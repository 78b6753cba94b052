// Package telemetry is WSPeer's observation spine: one zero-dependency
// layer every other package emits its operational signals through. The
// callback-style hooks that remain — resilience breaker OnChange and the
// core event-listener tree — fire from the same instrumented points that
// feed it.
//
// Three primitives make up the spine:
//
//   - Tracer: per-call spans with parent/child linkage across client
//     invocation → transport → server dispatch. Tracing is off until a
//     Sink is attached; with no sink, StartSpan returns a nil *Span and
//     every Span method is nil-receiver-safe, so the disabled hot path
//     costs one atomic load and zero allocations.
//   - Meter: a named registry of counters, gauges and latency histograms.
//     Instruments are atomic; instrumented packages pre-fetch their
//     handles at init, so the hot path is lock-free and allocation-free.
//   - CallTable: per-(service, direction) call accounting — counts,
//     failures and a latency histogram — always on, recorded by the core
//     client and the engine's server terminal.
//
// The process-wide Hub is Default(); isolated hubs (New) exist for tests.
package telemetry

import (
	"sync/atomic"
	"time"
)

// Hub bundles the spine's primitives. Layers emit through the Default
// hub; tests that need isolation construct their own with New.
type Hub struct {
	// Tracer produces spans (disabled until a sink is attached).
	Tracer *Tracer
	// Meter is the named instrument registry.
	Meter *Meter
	// Calls is the always-on per-service call table.
	Calls *CallTable
	// Flight is the always-on flight recorder of completed calls.
	Flight *Recorder
	// Log is the spine's structured leveled logger.
	Log *Logger

	// traceRing remembers the ring installed by EnableTracing so the
	// trace endpoint can find recent spans.
	traceRing atomic.Pointer[SpanRing]
}

// New returns an isolated hub (no sink attached, empty registries, a
// default-sampled flight recorder and a Warn-level logger with no
// external sink).
func New() *Hub {
	return &Hub{
		Tracer: NewTracer(),
		Meter:  NewMeter(),
		Calls:  NewCallTable(),
		Flight: NewRecorder(RecorderOptions{}),
		Log:    NewLogger(),
	}
}

// EnableTracing attaches a bounded SpanRing as the tracer's sink and
// remembers it so /debug/wspeer/trace can serve recent spans. capacity
// <= 0 takes the SpanRing default. Calling it again replaces the ring;
// SetSink with a custom sink leaves the remembered ring stale, so prefer
// one mechanism per process.
func (h *Hub) EnableTracing(capacity int) *SpanRing {
	ring := NewSpanRing(capacity)
	h.traceRing.Store(ring)
	h.Tracer.SetSink(ring)
	return ring
}

// TraceRing returns the ring installed by EnableTracing (nil before the
// first call).
func (h *Hub) TraceRing() *SpanRing { return h.traceRing.Load() }

// std is the process-wide hub every layer's package-level instrument
// handles bind to.
var std = New()

// Default returns the process-wide hub.
func Default() *Hub { return std }

// Snapshot is a point-in-time copy of a hub's state, shaped for JSON
// (httpd's /debug/wspeer endpoint emits it verbatim).
type Snapshot struct {
	// Counters maps counter name to its current value.
	Counters map[string]int64 `json:"counters"`
	// Gauges maps gauge name to its current value.
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// Histograms maps histogram name to its bucketed snapshot.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Calls is the call table, ordered by service then direction.
	Calls []CallSnapshot `json:"calls"`
}

// Snapshot returns a consistent-enough point-in-time copy of the hub:
// each instrument is read atomically (the set is read under the registry
// locks), though instruments updated concurrently may be captured at
// slightly different instants.
func (h *Hub) Snapshot() Snapshot {
	counters, gauges, hists := h.Meter.snapshot()
	return Snapshot{
		Counters:   counters,
		Gauges:     gauges,
		Histograms: hists,
		Calls:      h.Calls.Snapshot(),
	}
}

// Directions recorded in the CallTable and stamped on spans. They match
// pipeline.Direction.String(), keeping the two layers aligned without an
// import in either direction.
const (
	// DirClient marks outbound invocations (application → transport).
	DirClient = "client"
	// DirServer marks inbound dispatches (host → engine).
	DirServer = "server"
)

// latencyBuckets are the upper bounds of every latency histogram in the
// spine (the CallTable's and the Meter's); the final bucket is unbounded.
// They have never changed, so historic snapshots remain comparable.
var latencyBuckets = [...]time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// NumBuckets counts histogram buckets: one per bound plus the unbounded
// overflow bucket.
const NumBuckets = len(latencyBuckets) + 1

// BucketBounds returns the histogram upper bounds (the final, unbounded
// bucket is not listed — bucket slices have one more entry than this).
func BucketBounds() []time.Duration {
	return append([]time.Duration(nil), latencyBuckets[:]...)
}

// bucketFor returns the histogram bucket index for an elapsed duration.
func bucketFor(elapsed time.Duration) int {
	for i, ub := range latencyBuckets {
		if elapsed <= ub {
			return i
		}
	}
	return len(latencyBuckets)
}

// bucketQuantile estimates the q-quantile (0..1) from bucket counts by
// linear interpolation within the containing bucket, clamped to the
// observed [min, max] range. A zero-count histogram yields 0.
func bucketQuantile(buckets []int64, q float64, min, max time.Duration) time.Duration {
	var total int64
	for _, c := range buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		lower := time.Duration(0)
		if i > 0 {
			lower = latencyBuckets[i-1]
		}
		upper := max
		if i < len(latencyBuckets) && latencyBuckets[i] < upper {
			upper = latencyBuckets[i]
		}
		if lower < min {
			lower = min
		}
		if upper < lower {
			upper = lower
		}
		frac := 0.0
		if c > 0 {
			frac = (rank - float64(prev)) / float64(c)
		}
		if frac < 0 {
			frac = 0
		}
		return lower + time.Duration(frac*float64(upper-lower))
	}
	return max
}
