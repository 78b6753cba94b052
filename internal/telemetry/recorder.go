package telemetry

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// CallRecord is one completed call as kept by the flight Recorder: enough
// to answer "what did this peer just do and why was it slow?" without a
// debugger attached. Records are plain values — the recorder preallocates
// its ring, so keeping one copies a struct and allocates nothing.
type CallRecord struct {
	// Time is when the call started.
	Time time.Time `json:"time"`
	// Service and Op name the work; Dir is DirClient or DirServer.
	Service string `json:"service"`
	Op      string `json:"op,omitempty"`
	Dir     string `json:"dir"`
	// Endpoint is the address the call used (client side); Scheme is its
	// transport scheme, derived by the recorder when left empty.
	Endpoint string `json:"endpoint,omitempty"`
	Scheme   string `json:"scheme,omitempty"`
	// Pattern is the message-exchange pattern ("request-response",
	// "one-way", "callback"); empty means request-response.
	Pattern string `json:"pattern,omitempty"`
	// Latency is the call's total elapsed time.
	Latency time.Duration `json:"latency_ns"`
	// Err is the error text ("" on success); ErrClass is its coarse
	// classification — see ClassifyError.
	Err      string `json:"err,omitempty"`
	ErrClass string `json:"err_class,omitempty"`
	// TraceID/SpanID correlate the record with exported spans and log
	// lines (zero when tracing was disabled for the call).
	TraceID uint64 `json:"trace_id,omitempty"`
	SpanID  uint64 `json:"span_id,omitempty"`
	// Retries counts retransmissions beyond the first attempt; Hedges
	// counts speculative attempts launched beyond the primary. Both are
	// pulled from pipeline Meta by the recording layer.
	Retries int `json:"retries,omitempty"`
	Hedges  int `json:"hedges,omitempty"`
	// Reason says why the tail sampler kept this record: "error", "slow"
	// or "sampled".
	Reason string `json:"reason,omitempty"`
}

// Sampling reasons stamped on kept records. Static strings: stamping them
// never allocates.
const (
	// KeepError marks records kept because the call failed.
	KeepError = "error"
	// KeepSlow marks records kept because latency crossed the recorder's
	// rolling slow threshold (the bucket bound above the p99).
	KeepSlow = "slow"
	// KeepSampled marks success records kept by probabilistic sampling.
	KeepSampled = "sampled"
)

// Error classes stamped on failed records (static strings). ErrorClasser
// implementors may add their own; "overload" (admission sheds) and
// "breaker-open" (circuit refusals) come from resilience, "fault" from
// soap.
const (
	ClassTimeout     = "timeout"
	ClassCancel      = "cancel"
	ClassFault       = "fault"
	ClassOverload    = "overload"
	ClassBreakerOpen = "breaker-open"
	ClassError       = "error"
)

// ErrorClasser lets error types declare their own flight-recorder class
// without telemetry importing them. resilience's overload and breaker
// errors and soap faults implement it.
type ErrorClasser interface {
	ErrorClass() string
}

// ClassifyError maps an error to its coarse flight-recorder class:
// context errors to "timeout"/"cancel", ErrorClasser implementors to
// whatever they declare, everything else to "error". A nil error is "".
func ClassifyError(err error) string {
	if err == nil {
		return ""
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return ClassTimeout
	}
	if errors.Is(err, context.Canceled) {
		return ClassCancel
	}
	var ec ErrorClasser
	if errors.As(err, &ec) {
		return ec.ErrorClass()
	}
	return ClassError
}

// RecorderOptions tune a flight recorder.
type RecorderOptions struct {
	// Capacity bounds the ring (default 1024).
	Capacity int
	// SuccessOneIn keeps roughly one in N unremarkable successes
	// (default 16; 1 keeps everything, 0 takes the default).
	SuccessOneIn int
}

// RecorderStats summarise a recorder's sampling behaviour.
type RecorderStats struct {
	// Seen counts every call offered to the recorder.
	Seen int64 `json:"seen"`
	// Kept counts records written to the ring; Dropped = Seen - Kept.
	Kept    int64 `json:"kept"`
	Dropped int64 `json:"dropped"`
	// SlowThreshold is the current "slow" latency cutoff (the bound of
	// the bucket holding the rolling p99; zero until enough calls have
	// been observed).
	SlowThreshold time.Duration `json:"slow_threshold_ns"`
	// Capacity is the ring size.
	Capacity int `json:"capacity"`
}

// Recorder is the always-on flight recorder: a bounded ring of completed
// CallRecords with a tail-sampling policy — errors are always kept, calls
// slower than the rolling p99 are always kept, and unremarkable successes
// are kept one-in-N. The sampling decision is made before anything is
// allocated, so the common sampled-out case costs a few atomic ops and
// zero allocations; kept records are copied into preallocated slots under
// a mutex held for the copy alone.
type Recorder struct {
	successOneIn uint64

	seen    atomic.Int64
	kept    atomic.Int64
	dropped atomic.Int64
	rng     atomic.Uint64

	// latency is the distribution of every call offered; the "slow"
	// threshold is recomputed from it every slowRecalcEvery calls and
	// cached in slowNS.
	latency Histogram
	slowNS  atomic.Int64

	mu   sync.Mutex
	ring ring[CallRecord]
}

// slowRecalcEvery is how many observations pass between recomputations of
// the rolling p99 threshold.
const slowRecalcEvery = 256

// NewRecorder returns a flight recorder with the given options.
func NewRecorder(opts RecorderOptions) *Recorder {
	if opts.Capacity <= 0 {
		opts.Capacity = 1024
	}
	if opts.SuccessOneIn <= 0 {
		opts.SuccessOneIn = 16
	}
	r := &Recorder{
		successOneIn: uint64(opts.SuccessOneIn),
		ring:         newRing[CallRecord](opts.Capacity),
	}
	r.rng.Store(0x9e3779b97f4a7c15)
	return r
}

// Record offers one completed call. rec carries everything but the error
// fields and keep reason; err (which may be nil even for failures the
// caller classifies itself via rec.ErrClass, e.g. fault envelopes) is
// only rendered to text if the record is kept. Safe for concurrent use;
// allocation-free when the call is sampled out, and allocation-free for
// kept calls whose error text is already materialised.
func (r *Recorder) Record(rec CallRecord, err error) {
	if r == nil {
		return
	}
	r.latency.Observe(rec.Latency)
	if r.seen.Add(1)%slowRecalcEvery == 0 {
		r.recalcSlow()
	}

	failed := err != nil || rec.ErrClass != ""
	switch {
	case failed:
		rec.Reason = KeepError
	case r.isSlow(rec.Latency.Nanoseconds()):
		rec.Reason = KeepSlow
	case r.sampleIn():
		rec.Reason = KeepSampled
	default:
		r.dropped.Add(1)
		return
	}
	if rec.ErrClass == "" {
		rec.ErrClass = ClassifyError(err)
	}
	if rec.Err == "" && err != nil {
		rec.Err = err.Error()
	}
	if rec.Scheme == "" && rec.Endpoint != "" {
		rec.Scheme = schemeOf(rec.Endpoint)
	}
	r.kept.Add(1)
	r.mu.Lock()
	r.ring.write(rec)
	r.mu.Unlock()
}

// isSlow reports whether ns crosses the cached slow threshold. Zero
// threshold (not enough data yet) keeps nothing as "slow". Strictly
// greater: traffic sitting exactly on the threshold is the common case,
// not a straggler.
func (r *Recorder) isSlow(ns int64) bool {
	slow := r.slowNS.Load()
	return slow > 0 && ns > slow
}

// sampleIn rolls the success sampler: true for roughly one in
// successOneIn calls. xorshift over an atomic word — racy interleavings
// only perturb the sequence, which is fine for sampling.
func (r *Recorder) sampleIn() bool {
	if r.successOneIn <= 1 {
		return true
	}
	x := r.rng.Load()
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.rng.Store(x)
	return x%r.successOneIn == 0
}

// recalcSlow re-estimates the slow threshold: the upper bound of the
// bucket holding the p99 of everything observed so far (the observed max
// for the unbounded bucket). Using the bucket bound rather than an
// interpolated p99 keeps the threshold robust when traffic is
// near-uniform — interpolation would land just below the common latency
// and classify nearly every call as slow.
func (r *Recorder) recalcSlow() {
	var total int64
	var counts [NumBuckets]int64
	for i := range counts {
		counts[i] = r.latency.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return
	}
	rank := int64(0.99 * float64(total))
	var cum int64
	for i, c := range counts {
		cum += c
		if cum <= rank {
			continue
		}
		if i < len(latencyBuckets) {
			r.slowNS.Store(latencyBuckets[i].Nanoseconds())
		} else {
			r.slowNS.Store(r.latency.maxNS.Load())
		}
		return
	}
}

// Stats returns the recorder's sampling counters.
func (r *Recorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	return RecorderStats{
		Seen:          r.seen.Load(),
		Kept:          r.kept.Load(),
		Dropped:       r.dropped.Load(),
		SlowThreshold: time.Duration(r.slowNS.Load()),
		Capacity:      len(r.ring.buf),
	}
}

// Snapshot returns every retained record, oldest first.
func (r *Recorder) Snapshot() []CallRecord {
	return r.Query(RecordFilter{})
}

// RecordFilter selects flight records. Zero values match everything.
type RecordFilter struct {
	// Service and Dir match exactly when non-empty.
	Service string `json:"service,omitempty"`
	Dir     string `json:"dir,omitempty"`
	// ErrorsOnly keeps only failed calls.
	ErrorsOnly bool `json:"errors_only,omitempty"`
	// TraceID matches records from one trace.
	TraceID uint64 `json:"trace_id,omitempty"`
	// MinLatency drops faster calls.
	MinLatency time.Duration `json:"min_latency_ns,omitempty"`
	// Limit keeps only the most recent N matches (0 = all).
	Limit int `json:"limit,omitempty"`
}

// matches reports whether rec passes the filter.
func (f RecordFilter) matches(rec *CallRecord) bool {
	if f.Service != "" && rec.Service != f.Service {
		return false
	}
	if f.Dir != "" && rec.Dir != f.Dir {
		return false
	}
	if f.ErrorsOnly && rec.ErrClass == "" {
		return false
	}
	if f.TraceID != 0 && rec.TraceID != f.TraceID {
		return false
	}
	if f.MinLatency > 0 && rec.Latency < f.MinLatency {
		return false
	}
	return true
}

// Query returns retained records matching the filter, oldest first.
func (r *Recorder) Query(f RecordFilter) []CallRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := r.ring.read(f.matches)
	r.mu.Unlock()
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// schemeOf extracts the lowercase transport scheme from an endpoint URL
// ("" when there is none). Mirrors transport.SchemeOf without the import;
// already-lowercase schemes come back as a substring, no allocation.
func schemeOf(endpoint string) string {
	i := strings.Index(endpoint, "://")
	if i <= 0 {
		return ""
	}
	return strings.ToLower(endpoint[:i])
}
