package resilience

import (
	"sync"
	"time"

	"wspeer/internal/telemetry"
)

// Spine instruments for breaker activity: transition counters per target
// state and a gauge of currently-open breakers, maintained for every
// breaker whether or not an OnChange hook is installed.
var (
	mBreakerOpened   = telemetry.Default().Meter.Counter("resilience.breaker.opened")
	mBreakerClosed   = telemetry.Default().Meter.Counter("resilience.breaker.closed")
	mBreakerHalfOpen = telemetry.Default().Meter.Counter("resilience.breaker.halfopen")
	gBreakerOpen     = telemetry.Default().Meter.Gauge("resilience.breaker.open")
)

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: calls flow; outcomes are recorded in the window.
	BreakerClosed BreakerState = iota
	// BreakerOpen: calls are refused locally until OpenTimeout elapses.
	BreakerOpen
	// BreakerHalfOpen: a bounded number of probe calls are let through;
	// their outcomes decide between re-closing and re-opening.
	BreakerHalfOpen
)

// String returns "closed", "open" or "half-open".
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerOptions tunes a Breaker. The zero value means a 16-call window,
// 50% failure threshold with at least 4 samples, a 5-second open period
// and a single closing probe.
type BreakerOptions struct {
	// Window is the sliding window length in calls (default 16). The
	// window is count-based, not time-based, so a given outcome sequence
	// drives the state machine identically regardless of wall-clock —
	// the property the deterministic chaos tests depend on.
	Window int
	// FailureThreshold opens the breaker when failures/samples reaches it
	// (default 0.5).
	FailureThreshold float64
	// MinSamples is the minimum window occupancy before the threshold is
	// consulted (default 4), so one early failure cannot open a cold
	// breaker.
	MinSamples int
	// OpenTimeout is how long an open breaker refuses calls before
	// allowing a half-open probe (default 5s).
	OpenTimeout time.Duration
	// HalfOpenProbes is both the number of concurrent probes admitted in
	// half-open and the number of consecutive probe successes required to
	// close (default 1). Any probe failure re-opens immediately.
	HalfOpenProbes int
	// Now is the clock (default time.Now). Tests inject a fake clock to
	// make open→half-open transitions deterministic.
	Now func() time.Time
	// OnChange observes state transitions. It is called outside the
	// breaker's lock, in transition order per breaker.
	OnChange func(endpoint string, from, to BreakerState)
}

func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.Window <= 0 {
		o.Window = 16
	}
	if o.FailureThreshold <= 0 || o.FailureThreshold > 1 {
		o.FailureThreshold = 0.5
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 4
	}
	if o.MinSamples > o.Window {
		o.MinSamples = o.Window
	}
	if o.OpenTimeout <= 0 {
		o.OpenTimeout = 5 * time.Second
	}
	if o.HalfOpenProbes <= 0 {
		o.HalfOpenProbes = 1
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Breaker is a per-endpoint circuit breaker: closed→open on a sliding-
// window failure rate, open→half-open after OpenTimeout, half-open→closed
// on successful probes (→open again on a probe failure). All methods are
// safe for concurrent use.
type Breaker struct {
	endpoint string
	opts     BreakerOptions

	mu       sync.Mutex
	state    BreakerState
	window   []bool // ring buffer of outcomes, true = failure
	head     int
	count    int
	failures int
	openedAt time.Time
	probes   int // in-flight probes while half-open
	probeOK  int // consecutive probe successes while half-open
}

// NewBreaker returns a closed breaker for the endpoint.
func NewBreaker(endpoint string, opts BreakerOptions) *Breaker {
	o := opts.withDefaults()
	return &Breaker{endpoint: endpoint, opts: o, window: make([]bool, o.Window)}
}

// State returns the current state (open breakers past their timeout still
// report open until an Allow converts them to half-open).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Allow reports whether a call may proceed. In half-open it claims a
// probe slot, so every true return must be balanced by a Record — or, when
// the attempt says nothing about the endpoint, a release — or the breaker
// refuses the endpoint for good. Group.Do does the balancing.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	var fired func()
	ok := false
	switch b.state {
	case BreakerClosed:
		ok = true
	case BreakerOpen:
		if b.opts.Now().Sub(b.openedAt) >= b.opts.OpenTimeout {
			fired = b.transition(BreakerHalfOpen)
			b.probes = 1
			b.probeOK = 0
			ok = true
		}
	case BreakerHalfOpen:
		if b.probes < b.opts.HalfOpenProbes {
			b.probes++
			ok = true
		}
	}
	b.mu.Unlock()
	if fired != nil {
		fired()
	}
	return ok
}

// Record feeds one call outcome into the state machine. success follows
// the package's Classify judgment: application faults are successes,
// transport breakage and timeouts are failures.
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	var fired func()
	switch b.state {
	case BreakerClosed:
		b.push(!success)
		if b.count >= b.opts.MinSamples &&
			float64(b.failures) >= b.opts.FailureThreshold*float64(b.count) {
			fired = b.open()
		}
	case BreakerHalfOpen:
		if b.probes > 0 {
			b.probes--
		}
		if success {
			b.probeOK++
			if b.probeOK >= b.opts.HalfOpenProbes {
				fired = b.transition(BreakerClosed)
				b.reset()
			}
		} else {
			fired = b.open()
		}
	case BreakerOpen:
		// A straggler from before the breaker opened; the window was
		// reset at the transition, so there is nothing to attribute.
	}
	b.mu.Unlock()
	if fired != nil {
		fired()
	}
}

// release gives back the probe slot an Allow claimed when the attempt
// ended without evidence about the endpoint (the caller cancelled, or the
// call was refused locally): nothing is counted, and the next Allow may
// probe again.
func (b *Breaker) release() {
	b.mu.Lock()
	if b.state == BreakerHalfOpen && b.probes > 0 {
		b.probes--
	}
	b.mu.Unlock()
}

// push must be called with b.mu held and b.state == BreakerClosed.
func (b *Breaker) push(failure bool) {
	if b.count == len(b.window) {
		if b.window[b.head] {
			b.failures--
		}
	} else {
		b.count++
	}
	b.window[b.head] = failure
	if failure {
		b.failures++
	}
	b.head = (b.head + 1) % len(b.window)
}

// open must be called with b.mu held.
func (b *Breaker) open() func() {
	fired := b.transition(BreakerOpen)
	b.openedAt = b.opts.Now()
	b.reset()
	return fired
}

// reset must be called with b.mu held.
func (b *Breaker) reset() {
	for i := range b.window {
		b.window[i] = false
	}
	b.head, b.count, b.failures = 0, 0, 0
	b.probes, b.probeOK = 0, 0
}

// transition must be called with b.mu held; the returned closure reports
// the change to the telemetry spine and any OnChange hook, and must be
// invoked after the lock is released.
func (b *Breaker) transition(to BreakerState) func() {
	from := b.state
	b.state = to
	if from == to {
		return nil
	}
	onChange := b.opts.OnChange
	return func() {
		log := telemetry.Default().Log
		switch to {
		case BreakerOpen:
			mBreakerOpened.Inc()
			gBreakerOpen.Add(1)
			log.Warn(nil, "resilience: breaker opened", "endpoint", b.endpoint, "from", from)
		case BreakerHalfOpen:
			mBreakerHalfOpen.Inc()
			log.Info(nil, "resilience: breaker half-open, probing", "endpoint", b.endpoint)
		case BreakerClosed:
			mBreakerClosed.Inc()
			log.Info(nil, "resilience: breaker closed", "endpoint", b.endpoint)
		}
		if from == BreakerOpen {
			gBreakerOpen.Add(-1)
		}
		if onChange != nil {
			onChange(b.endpoint, from, to)
		}
	}
}

// ---------------------------------------------------------------------------
// Group

// Group is the endpoint health registry: a lazily populated set of
// breakers keyed by endpoint identity, sharing one option set. A Group
// hangs off each core Client (health transitions feed the event tree) and
// guards every attempt of its failover and hedged invocations.
type Group struct {
	opts BreakerOptions
	mu   sync.RWMutex
	m    map[string]*Breaker
}

// NewGroup returns an empty registry; breakers are created on first use.
func NewGroup(opts BreakerOptions) *Group {
	return &Group{opts: opts.withDefaults(), m: make(map[string]*Breaker)}
}

// Breaker returns (creating if needed) the breaker for an endpoint.
func (g *Group) Breaker(endpoint string) *Breaker {
	g.mu.RLock()
	b := g.m[endpoint]
	g.mu.RUnlock()
	if b != nil {
		return b
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if b = g.m[endpoint]; b == nil {
		b = NewBreaker(endpoint, g.opts)
		g.m[endpoint] = b
	}
	return b
}

// Do runs one attempt against the endpoint under its breaker, the one
// place an Allow is balanced: an open breaker refuses with
// *BreakerOpenError without calling attempt; otherwise attempt runs and its
// error is settled under Classify — Success and Failure are recorded, and a
// Skip (the caller cancelled, which Hedge does to every losing attempt)
// counts as neither and frees the half-open probe slot it may have held.
func (g *Group) Do(endpoint string, attempt func() error) error {
	br := g.Breaker(endpoint)
	if !br.Allow() {
		return &BreakerOpenError{Endpoint: endpoint}
	}
	err := attempt()
	switch Classify(err) {
	case Success:
		br.Record(true)
	case Failure:
		br.Record(false)
	default:
		br.release()
	}
	return err
}
