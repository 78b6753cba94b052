package resilience

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wspeer/internal/soap"
	"wspeer/internal/telemetry"
	"wspeer/internal/xmlutil"
)

// Spine instruments for admission control: lifetime admit/shed counters
// and live depth gauges. Process-wide across controllers, like the rest
// of the spine; per-controller figures stay available via Stats.
var (
	mAdmAdmitted = telemetry.Default().Meter.Counter("resilience.admission.admitted")
	mAdmShed     = telemetry.Default().Meter.Counter("resilience.admission.shed")
	gAdmInflight = telemetry.Default().Meter.Gauge("resilience.admission.inflight")
	gAdmQueued   = telemetry.Default().Meter.Gauge("resilience.admission.queued")
	gAdmLimit    = telemetry.Default().Meter.Gauge("resilience.admission.limit")
)

// AdmissionOptions tunes server-side admission control.
type AdmissionOptions struct {
	// MaxConcurrent is the hard concurrency limit (default 64). The host
	// never has more than this many dispatches in flight; with Adaptive
	// set it is the upper clamp of the AIMD limit.
	MaxConcurrent int
	// MaxQueue is how many callers may wait for a slot beyond the limit
	// (default 0: shed immediately when saturated).
	MaxQueue int
	// QueueTimeout bounds a queued caller's wait independently of its
	// context deadline (default 0: wait as long as the context allows).
	QueueTimeout time.Duration
	// RetryAfter is the backoff advertised to shed callers before the
	// controller has observed any service latency (default 1s); once
	// completions have been measured the advertised backoff is derived
	// from the live queue state instead. httpd turns it into an HTTP
	// Retry-After header.
	RetryAfter time.Duration
	// Adaptive enables the AIMD concurrency limiter: the effective limit
	// floats between MinConcurrent and MaxConcurrent, halving when queue
	// waits grow past LatencyFactor times the minimum observed service
	// time (the queue is the congestion signal) and creeping up by one
	// per adjustment window while the controller runs saturated.
	Adaptive bool
	// MinConcurrent floors the adaptive limit (default 1).
	MinConcurrent int
	// LatencyFactor is the congestion threshold: an adjustment window
	// whose average queue wait exceeds LatencyFactor × the window's
	// minimum service time triggers multiplicative decrease (default 2).
	LatencyFactor float64
	// AdjustEvery is how many completed dispatches make one AIMD
	// adjustment window (default 16).
	AdjustEvery int
}

func (o AdmissionOptions) withDefaults() AdmissionOptions {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 64
	}
	if o.MaxQueue < 0 {
		o.MaxQueue = 0
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.MinConcurrent <= 0 {
		o.MinConcurrent = 1
	}
	if o.MinConcurrent > o.MaxConcurrent {
		o.MinConcurrent = o.MaxConcurrent
	}
	if o.LatencyFactor <= 0 {
		o.LatencyFactor = 2
	}
	if o.AdjustEvery <= 0 {
		o.AdjustEvery = 16
	}
	return o
}

// OverloadError is returned to a caller the server refused to admit: the
// queue was full, the caller's wait expired, or the host is draining.
// Over the HTTP binding it becomes a SOAP Server fault carried on a 503
// response with a Retry-After header.
type OverloadError struct {
	// Reason is a short human-readable cause ("queue full", "draining",
	// "queue timeout", "deadline expired while queued").
	Reason string
	// RetryAfter is the advertised backoff.
	RetryAfter time.Duration
	cause      error
}

// NewOverloadError builds an overload refusal with an optional wrapped
// cause (a context error for expired queue waits). Shared by server-side
// admission control and the client-side invocation scheduler, so both
// shed with the same error shape.
func NewOverloadError(reason string, retryAfter time.Duration, cause error) *OverloadError {
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	return &OverloadError{Reason: reason, RetryAfter: retryAfter, cause: cause}
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("resilience: server overloaded (%s), retry after %s", e.Reason, e.RetryAfter)
}

// ErrorClass classifies sheds for the telemetry flight recorder.
func (e *OverloadError) ErrorClass() string { return "overload" }

// Unwrap exposes the underlying cause (a context error for expired
// queue waits), so errors.Is(err, context.DeadlineExceeded) still works.
func (e *OverloadError) Unwrap() error { return e.cause }

// RetryAfterHint returns the advertised backoff, satisfying the
// pipeline's RetryAfterHinter so pipeline.Retry floors its next backoff
// on the server's advice.
func (e *OverloadError) RetryAfterHint() time.Duration { return e.RetryAfter }

// RetryAfterSeconds is the advertised backoff rounded up to whole
// seconds, never less than 1 — the value httpd puts in the Retry-After
// header and Fault puts in the detail element.
func (e *OverloadError) RetryAfterSeconds() int {
	s := int((e.RetryAfter + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// Fault renders the overload as a SOAP Server fault whose detail is a
// soap.RetryAfterName element — the binding-neutral form of HTTP's
// Retry-After header, read back by the fault's RetryAfterHint: what
// soap.ServerFault answers a refusal with, on every binding.
func (e *OverloadError) Fault() *soap.Fault {
	w, name := xmlutil.AcquireWriter(), soap.RetryAfterName
	w.Assign(name.Space)
	w.Leaf(w.Prefix(name.Space), name.Local, strconv.Itoa(e.RetryAfterSeconds()))
	return &soap.Fault{Code: soap.FaultServer, String: e.Error(), Detail: w.FinishRaw(name)}
}

// AsOverload unwraps err to an *OverloadError if one is in the chain.
func AsOverload(err error) (*OverloadError, bool) {
	var o *OverloadError
	if errors.As(err, &o) {
		return o, true
	}
	return nil, false
}

// AdmissionStats is a point-in-time admission counter snapshot.
type AdmissionStats struct {
	// InFlight is the number of currently admitted dispatches.
	InFlight int
	// Queued is the number of callers currently waiting for a slot.
	Queued int
	// Limit is the effective concurrency limit: the AIMD limiter's
	// current value when Adaptive, MaxConcurrent otherwise.
	Limit int
	// Admitted counts dispatches ever admitted.
	Admitted int64
	// Shed counts callers refused (full queue, expired wait, draining).
	Shed int64
}

// Admission is a server-side admission controller: a semaphore capping
// concurrent dispatches, fronted by a bounded, deadline-aware wait queue.
// Callers past the queue bound — or whose wait outlives QueueTimeout or
// their context deadline — are shed with *OverloadError instead of piling
// onto a saturated host. Drain flips it into shutdown mode: new work is
// shed and Drain returns once in-flight dispatches finish.
//
// With Options.Adaptive the effective limit is steered by an AIMD loop
// (see AdmissionOptions); the semaphore keeps MaxConcurrent capacity and
// the limiter parks filler tokens in it to shrink the usable share.
type Admission struct {
	opts AdmissionOptions
	sem  chan struct{}

	queued   atomic.Int64
	admitted atomic.Int64
	shed     atomic.Int64
	draining atomic.Bool

	// amu guards the adaptive state below. limit is the effective
	// concurrency bound; fillers counts tokens parked in sem to shrink
	// usable capacity to limit; debt counts fillers owed but not yet
	// parked because the semaphore was full when the limit dropped
	// (releases pay debt before freeing a slot).
	amu          sync.Mutex
	limit        int
	fillers      int
	debt         int
	window       int
	sumWait      time.Duration
	winMinSvc    time.Duration
	ewmaSvcMicro int64 // EWMA service time in µs; also read via atomic for hints
}

// NewAdmission returns an admission controller with no dispatches in
// flight.
func NewAdmission(opts AdmissionOptions) *Admission {
	o := opts.withDefaults()
	a := &Admission{opts: o, sem: make(chan struct{}, o.MaxConcurrent), limit: o.MaxConcurrent}
	gAdmLimit.Set(int64(a.limit))
	return a
}

// Ticket is the receipt for one admitted dispatch. Done releases the slot
// and feeds the dispatch's queue-wait and service-time samples back to
// the adaptive limiter. The zero Ticket is inert.
type Ticket struct {
	a        *Admission
	admitted time.Time
	wait     time.Duration
}

// Done releases the admitted slot, recording the dispatch's service time.
// Call it exactly once per successful Admit.
func (t Ticket) Done() {
	if t.a == nil {
		return
	}
	t.a.release(t.wait, time.Since(t.admitted))
}

// Admit claims a dispatch slot, queueing within the configured bounds,
// and returns a Ticket whose Done releases it. Non-nil errors are always
// *OverloadError; when a queued wait expires against ctx, the error
// wraps ctx.Err().
func (a *Admission) Admit(ctx context.Context) (Ticket, error) {
	wait, err := a.admit(ctx)
	if err != nil {
		return Ticket{}, err
	}
	return Ticket{a: a, admitted: time.Now(), wait: wait}, nil
}

// Acquire claims a dispatch slot, queueing within the configured bounds.
// A nil return MUST be balanced by Release. Unlike Admit it feeds no
// latency samples to the adaptive limiter; hosts should prefer Admit.
func (a *Admission) Acquire(ctx context.Context) error {
	_, err := a.admit(ctx)
	return err
}

// admit is the shared admission path; it returns how long the caller
// waited in the queue (0 on the uncontended fast path).
func (a *Admission) admit(ctx context.Context) (time.Duration, error) {
	if a.draining.Load() {
		return 0, a.refuse(ctx, "draining", nil)
	}
	select {
	case a.sem <- struct{}{}:
		a.admitted.Add(1)
		mAdmAdmitted.Inc()
		gAdmInflight.Add(1)
		return 0, nil
	default:
	}
	// Saturated: join the wait queue if there is room.
	for {
		n := a.queued.Load()
		if n >= int64(a.opts.MaxQueue) {
			return 0, a.refuse(ctx, "queue full", nil)
		}
		if a.queued.CompareAndSwap(n, n+1) {
			break
		}
	}
	gAdmQueued.Add(1)
	start := time.Now()
	defer func() {
		a.queued.Add(-1)
		gAdmQueued.Add(-1)
	}()

	var timeout <-chan time.Time
	if a.opts.QueueTimeout > 0 {
		t := time.NewTimer(a.opts.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case a.sem <- struct{}{}:
		if a.draining.Load() {
			<-a.sem
			return 0, a.refuse(ctx, "draining", nil)
		}
		a.admitted.Add(1)
		mAdmAdmitted.Inc()
		gAdmInflight.Add(1)
		return time.Since(start), nil
	case <-ctx.Done():
		return 0, a.refuse(ctx, "deadline expired while queued", ctx.Err())
	case <-timeout:
		return 0, a.refuse(ctx, "queue timeout", nil)
	}
}

// Release returns a slot claimed by a successful Acquire.
func (a *Admission) Release() { a.release(0, 0) }

// release frees a slot, first feeding the dispatch's samples to the
// adaptive loop and paying any filler debt the limiter has accrued.
func (a *Admission) release(wait, service time.Duration) {
	if service > 0 {
		a.observe(wait, service)
	}
	if !a.draining.Load() {
		a.amu.Lock()
		if a.debt > 0 {
			// The limit shrank while the semaphore was full: the freed
			// token stays parked as a filler instead of admitting the
			// next waiter.
			a.debt--
			a.fillers++
			a.amu.Unlock()
			gAdmInflight.Add(-1)
			return
		}
		a.amu.Unlock()
	}
	<-a.sem
	gAdmInflight.Add(-1)
}

// observe feeds one completed dispatch into the latency estimators and,
// when Adaptive, runs the AIMD decision at each window boundary.
func (a *Admission) observe(wait, service time.Duration) {
	if service < time.Microsecond {
		service = time.Microsecond
	}
	a.amu.Lock()
	defer a.amu.Unlock()
	// EWMA service time backs the queue-state Retry-After hint whether or
	// not the limiter is adaptive.
	if a.ewmaSvcMicro == 0 {
		atomic.StoreInt64(&a.ewmaSvcMicro, service.Microseconds())
	} else {
		atomic.StoreInt64(&a.ewmaSvcMicro, a.ewmaSvcMicro+(service.Microseconds()-a.ewmaSvcMicro)/8)
	}
	if !a.opts.Adaptive || a.draining.Load() {
		return
	}
	a.window++
	a.sumWait += wait
	if a.winMinSvc == 0 || service < a.winMinSvc {
		a.winMinSvc = service
	}
	if a.window < a.opts.AdjustEvery {
		return
	}
	avgWait := a.sumWait / time.Duration(a.window)
	minSvc := a.winMinSvc
	a.window, a.sumWait, a.winMinSvc = 0, 0, 0
	switch {
	case avgWait > time.Duration(a.opts.LatencyFactor*float64(minSvc)):
		// Queue waits dwarf the service floor: the queue, not the work,
		// is where callers spend their budget. Halve the limit.
		next := a.limit / 2
		if next < a.opts.MinConcurrent {
			next = a.opts.MinConcurrent
		}
		a.applyLimitLocked(next)
	case a.queued.Load() > 0 || len(a.sem)-a.fillers >= a.limit:
		// Saturated but not congested: probe upward one slot at a time.
		if a.limit < a.opts.MaxConcurrent {
			a.applyLimitLocked(a.limit + 1)
		}
	}
}

// applyLimitLocked moves the effective limit to next by parking or
// unparking filler tokens in the semaphore. Caller holds amu. When the
// semaphore is full (every slot in flight) the shrink is recorded as
// debt, paid as dispatches complete.
func (a *Admission) applyLimitLocked(next int) {
	if next == a.limit {
		return
	}
	target := a.opts.MaxConcurrent - next // fillers (incl. debt) wanted
	for a.fillers+a.debt < target {
		select {
		case a.sem <- struct{}{}:
			a.fillers++
		default:
			a.debt++
		}
	}
	for a.fillers+a.debt > target {
		if a.debt > 0 {
			a.debt--
			continue
		}
		// Fillers are, by the accounting invariant, tokens present in the
		// channel, so this receive never blocks.
		<-a.sem
		a.fillers--
	}
	a.limit = next
	gAdmLimit.Set(int64(next))
}

// retryAfterHint derives the backoff advertised to a shed caller from the
// live queue state: roughly the time the current queue needs to clear at
// the observed service rate. Before any completion has been measured it
// falls back to the configured constant.
func (a *Admission) retryAfterHint() time.Duration {
	ewma := time.Duration(atomic.LoadInt64(&a.ewmaSvcMicro)) * time.Microsecond
	if ewma <= 0 {
		return a.opts.RetryAfter
	}
	a.amu.Lock()
	limit := a.limit
	a.amu.Unlock()
	if limit < 1 {
		limit = 1
	}
	hint := ewma * time.Duration(a.queued.Load()+1) / time.Duration(limit)
	if hint < ewma {
		hint = ewma
	}
	const maxHint = 30 * time.Second
	if hint > maxHint {
		hint = maxHint
	}
	return hint
}

func (a *Admission) refuse(ctx context.Context, reason string, cause error) error {
	a.shed.Add(1)
	mAdmShed.Inc()
	err := &OverloadError{Reason: reason, RetryAfter: a.retryAfterHint(), cause: cause}
	// ctx carries the caller's trace identity when the request arrived
	// with a trace header, so the shed log line joins the caller's trace.
	telemetry.Default().Log.Warn(ctx, "resilience: admission shed request",
		"reason", reason, "retry_after", err.RetryAfter)
	return err
}

// Stats returns a point-in-time snapshot of the controller.
func (a *Admission) Stats() AdmissionStats {
	a.amu.Lock()
	limit := a.limit
	fillers := a.fillers
	a.amu.Unlock()
	inFlight := len(a.sem) - fillers
	if inFlight < 0 {
		inFlight = 0
	}
	return AdmissionStats{
		InFlight: inFlight,
		Queued:   int(a.queued.Load()),
		Limit:    limit,
		Admitted: a.admitted.Load(),
		Shed:     a.shed.Load(),
	}
}

// Drain puts the controller into shutdown mode — all new work is shed —
// and blocks until every in-flight dispatch has released its slot or ctx
// expires. Hosts call it before closing their listeners so accepted work
// finishes cleanly.
func (a *Admission) Drain(ctx context.Context) error {
	a.draining.Store(true)
	// Adopt the limiter's parked fillers as already-held slots and stop
	// the adaptive bookkeeping: from here releases always free real
	// tokens.
	a.amu.Lock()
	held := a.fillers
	a.fillers, a.debt = 0, 0
	a.amu.Unlock()
	// Claiming every slot proves no dispatch is still holding one.
	defer func() {
		for ; held > 0; held-- {
			<-a.sem
		}
	}()
	for held < a.opts.MaxConcurrent {
		select {
		case a.sem <- struct{}{}:
			held++
		case <-ctx.Done():
			return fmt.Errorf("resilience: drain interrupted with %d dispatch(es) in flight: %w",
				a.opts.MaxConcurrent-held, ctx.Err())
		}
	}
	return nil
}
