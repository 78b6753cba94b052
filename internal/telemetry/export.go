package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file is the spine's egress: standard-format renderings of what the
// hub already knows. WritePrometheus emits the Meter and CallTable in
// Prometheus text exposition format (one scrape of /debug/wspeer/metrics);
// WriteChromeTrace renders spans as Chrome trace-event JSON loadable in
// chrome://tracing or Perfetto; SpanRing is the bounded buffer the trace
// endpoint serves from.

// promPrefix namespaces every exported metric.
const promPrefix = "wspeer_"

// WritePrometheus renders the hub's instruments in Prometheus text
// exposition format (version 0.0.4). Metric families are sorted by name,
// so consecutive scrapes of an idle hub are byte-identical. Counters gain
// the conventional _total suffix, latency histograms are exported as
// cumulative le-bucketed histograms in seconds, and the CallTable becomes
// three families labelled by {service, dir}.
func (h *Hub) WritePrometheus(w io.Writer) error {
	counters, gauges, hists := h.Meter.snapshot()
	bw := &errWriter{w: w}

	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name) + "_total"
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", pn, pn, counters[name])
	}

	names = names[:0]
	for name := range gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", pn, pn, gauges[name])
	}

	names = names[:0]
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		writePromHistogram(bw, promName(name)+"_seconds", "", hists[name])
	}

	calls := h.Calls.Snapshot()
	if len(calls) > 0 {
		fmt.Fprintf(bw, "# TYPE %scalls_total counter\n", promPrefix)
		for _, c := range calls {
			fmt.Fprintf(bw, "%scalls_total{service=%q,dir=%q} %d\n", promPrefix, c.Service, c.Dir, c.Calls)
		}
		fmt.Fprintf(bw, "# TYPE %scall_failures_total counter\n", promPrefix)
		for _, c := range calls {
			fmt.Fprintf(bw, "%scall_failures_total{service=%q,dir=%q} %d\n", promPrefix, c.Service, c.Dir, c.Failures)
		}
		fmt.Fprintf(bw, "# TYPE %scall_latency_seconds histogram\n", promPrefix)
		for _, c := range calls {
			labels := fmt.Sprintf("service=%q,dir=%q", c.Service, c.Dir)
			writePromHistogram(bw, promPrefix+"call_latency_seconds", labels, HistogramSnapshot{
				Count:   c.Calls,
				Sum:     c.TotalLatency,
				Buckets: c.Buckets,
			})
		}
	}

	if h.Flight != nil {
		st := h.Flight.Stats()
		fmt.Fprintf(bw, "# TYPE %sflight_seen_total counter\n%sflight_seen_total %d\n", promPrefix, promPrefix, st.Seen)
		fmt.Fprintf(bw, "# TYPE %sflight_kept_total counter\n%sflight_kept_total %d\n", promPrefix, promPrefix, st.Kept)
		fmt.Fprintf(bw, "# TYPE %sflight_slow_threshold_seconds gauge\n%sflight_slow_threshold_seconds %s\n",
			promPrefix, promPrefix, promSeconds(st.SlowThreshold))
	}
	return bw.err
}

// writePromHistogram emits one histogram family: cumulative le buckets in
// seconds, then _sum and _count. The TYPE line is emitted only for the
// unlabelled form (labelled families share a TYPE line written by the
// caller).
func writePromHistogram(w io.Writer, name, labels string, s HistogramSnapshot) {
	if labels == "" {
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	}
	bounds := BucketBounds()
	var cum int64
	for i, b := range s.Buckets {
		cum += b
		le := "+Inf"
		if i < len(bounds) {
			le = promSeconds(bounds[i])
		}
		if labels != "" {
			fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, labels, le, cum)
		} else {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
		}
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, suffix, promSeconds(s.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, s.Count)
}

// promSeconds renders a duration as seconds with enough precision for
// sub-microsecond latencies.
func promSeconds(d time.Duration) string {
	return fmt.Sprintf("%g", d.Seconds())
}

// promName mangles a spine instrument name ("core.sched.wait") into a
// Prometheus metric name ("wspeer_core_sched_wait").
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(promPrefix) + len(name))
	b.WriteString(promPrefix)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// errWriter latches the first write error so exposition code can stay
// fmt.Fprintf-shaped.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, err
}

// SpanRing is a bounded ring Sink retaining the most recent spans — the
// buffer behind /debug/wspeer/trace. Unlike Collector (which stops
// accepting at capacity, for deterministic tests), a SpanRing keeps the
// newest spans and evicts the oldest.
type SpanRing struct {
	mu    sync.Mutex
	spans ring[SpanData]
}

// NewSpanRing returns a ring retaining up to capacity spans (default
// 2048 for capacity <= 0).
func NewSpanRing(capacity int) *SpanRing {
	if capacity <= 0 {
		capacity = 2048
	}
	return &SpanRing{spans: newRing[SpanData](capacity)}
}

// OnSpanEnd implements Sink.
func (r *SpanRing) OnSpanEnd(d SpanData) {
	r.mu.Lock()
	r.spans.write(d)
	r.mu.Unlock()
}

// Spans returns the retained spans, oldest first.
func (r *SpanRing) Spans() []SpanData {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans.read(nil)
}

// Len reports how many spans are retained.
func (r *SpanRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans.len()
}

// chromeTraceEvent is one entry in the Chrome trace-event format's
// traceEvents array (the subset Perfetto and chrome://tracing read).
type chromeTraceEvent struct {
	Name  string                 `json:"name"`
	Cat   string                 `json:"cat,omitempty"`
	Phase string                 `json:"ph"`
	TS    float64                `json:"ts"`
	Dur   float64                `json:"dur,omitempty"`
	PID   int                    `json:"pid"`
	TID   int                    `json:"tid"`
	Scope string                 `json:"s,omitempty"`
	Args  map[string]interface{} `json:"args,omitempty"`
}

// chromeTraceFile is the JSON-object form of the trace-event format.
type chromeTraceFile struct {
	TraceEvents     []chromeTraceEvent `json:"traceEvents"`
	DisplayTimeUnit string             `json:"displayTimeUnit"`
}

// WriteChromeTrace renders spans as Chrome trace-event JSON, loadable in
// chrome://tracing and Perfetto. Each trace gets its own tid row (named
// by a thread_name metadata event), spans become complete ("X") events,
// and span annotations become instant ("i") events on the same row.
func WriteChromeTrace(w io.Writer, spans []SpanData) error {
	tids := map[uint64]int{}
	out := chromeTraceFile{DisplayTimeUnit: "ms", TraceEvents: []chromeTraceEvent{}}
	for _, d := range spans {
		tid, ok := tids[d.TraceID]
		if !ok {
			tid = len(tids) + 1
			tids[d.TraceID] = tid
			out.TraceEvents = append(out.TraceEvents, chromeTraceEvent{
				Name:  "thread_name",
				Phase: "M",
				PID:   1,
				TID:   tid,
				Args:  map[string]interface{}{"name": fmt.Sprintf("trace %016x", d.TraceID)},
			})
		}
		cat := d.Dir
		if cat == "" {
			cat = "span"
		}
		args := map[string]interface{}{
			"trace_id": fmt.Sprintf("%016x", d.TraceID),
			"span_id":  fmt.Sprintf("%016x", d.SpanID),
		}
		if d.ParentID != 0 {
			args["parent_id"] = fmt.Sprintf("%016x", d.ParentID)
		}
		if d.Service != "" {
			args["service"] = d.Service
		}
		if d.Op != "" {
			args["op"] = d.Op
		}
		if d.Endpoint != "" {
			args["endpoint"] = d.Endpoint
		}
		if d.Err != "" {
			args["err"] = d.Err
		}
		out.TraceEvents = append(out.TraceEvents, chromeTraceEvent{
			Name:  d.Name,
			Cat:   cat,
			Phase: "X",
			TS:    float64(d.Start.UnixNano()) / 1e3,
			Dur:   float64(d.Duration().Nanoseconds()) / 1e3,
			PID:   1,
			TID:   tid,
			Args:  args,
		})
		for _, a := range d.Annotations {
			out.TraceEvents = append(out.TraceEvents, chromeTraceEvent{
				Name:  a.Msg,
				Cat:   cat,
				Phase: "i",
				TS:    float64(a.Time.UnixNano()) / 1e3,
				PID:   1,
				TID:   tid,
				Scope: "t",
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
