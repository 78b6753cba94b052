package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"wspeer/internal/transport"
)

// ErrInjected is the sentinel wrapped by every injector-produced error,
// so tests can assert errors.Is(err, ErrInjected).
var ErrInjected = errors.New("resilience: injected fault")

// FaultPlan describes the faults to inject for matching endpoints. Rates
// are probabilities in [0,1]; a call can draw both latency and an error.
type FaultPlan struct {
	// Endpoint matches calls whose endpoint identity has this prefix
	// ("" matches every call).
	Endpoint string
	// ErrorRate is the probability the call fails with ErrInjected.
	ErrorRate float64
	// HangRate is the probability the call blocks until its context is
	// done — the black-holed-peer case.
	HangRate float64
	// Latency is added to every matching call.
	Latency time.Duration
}

// InjectorOptions configures an Injector.
type InjectorOptions struct {
	// AfterFunc schedules fn after delay d and returns a cancel func. It
	// defaults to real timers (time.AfterFunc); netsim.Simulator.AfterFunc
	// satisfies it, so injected latency can elapse in virtual time.
	AfterFunc func(d time.Duration, fn func()) func()
}

// InjectorStats counts what the injector has done.
type InjectorStats struct {
	// Calls is how many calls were inspected.
	Calls int64
	// Faults is how many calls received an injected error.
	Faults int64
	// Hangs is how many calls were blocked until context cancellation.
	Hangs int64
	// Delayed is how many calls received injected latency.
	Delayed int64
}

// Injector deterministically injects faults into calls: all randomness
// flows from one seeded source, and a given plan set draws a fixed number
// of values per matching call, so the same seed and call sequence
// reproduce the same faults bit-for-bit. It wraps transports (Transport),
// installs as a pipeline interceptor (Interceptor), and plugs into
// netsim links (LinkFault).
type Injector struct {
	after func(d time.Duration, fn func()) func()

	mu    sync.Mutex
	rng   *rand.Rand
	plans []FaultPlan
	stats InjectorStats
}

// NewInjector returns an injector with no plans drawing from the seed.
func NewInjector(seed int64, opts ...InjectorOptions) *Injector {
	in := &Injector{rng: rand.New(rand.NewSource(seed))}
	if len(opts) > 0 && opts[0].AfterFunc != nil {
		in.after = opts[0].AfterFunc
	} else {
		in.after = func(d time.Duration, fn func()) func() {
			t := time.AfterFunc(d, fn)
			return func() { t.Stop() }
		}
	}
	return in
}

// SetPlans replaces the active fault plans. The first plan whose Endpoint
// prefix matches a call decides its faults; calls matching no plan pass
// through without consuming randomness.
func (in *Injector) SetPlans(plans ...FaultPlan) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plans = append([]FaultPlan(nil), plans...)
}

// Stats returns a snapshot of the injection counters.
func (in *Injector) Stats() InjectorStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// decision is the outcome of one deterministic draw.
type decision struct {
	fail  bool
	hang  bool
	delay time.Duration
}

// decide draws the call's fate. For a given plan configuration every
// matching call consumes the same number of random values regardless of
// outcome, keeping the stream aligned across runs.
func (in *Injector) decide(endpoint string) decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Calls++
	var plan *FaultPlan
	for i := range in.plans {
		if strings.HasPrefix(endpoint, in.plans[i].Endpoint) {
			plan = &in.plans[i]
			break
		}
	}
	if plan == nil {
		return decision{}
	}
	var d decision
	d.fail = in.rng.Float64() < plan.ErrorRate
	d.hang = in.rng.Float64() < plan.HangRate
	d.delay = plan.Latency
	if d.fail {
		in.stats.Faults++
	}
	if d.hang {
		in.stats.Hangs++
	}
	if d.delay > 0 {
		in.stats.Delayed++
	}
	return d
}

// apply executes a decision against the call's context: injected latency
// elapses on the configured clock, hangs block until the context is done,
// and failures return an error wrapping ErrInjected.
func (in *Injector) apply(ctx context.Context, endpoint string) error {
	d := in.decide(endpoint)
	if d.delay > 0 {
		elapsed := make(chan struct{})
		cancel := in.after(d.delay, func() { close(elapsed) })
		select {
		case <-elapsed:
		case <-ctx.Done():
			cancel()
			return ctx.Err()
		}
	}
	if d.hang {
		<-ctx.Done()
		return ctx.Err()
	}
	if d.fail {
		return fmt.Errorf("%w for endpoint %s", ErrInjected, endpoint)
	}
	return nil
}

// faultTransport decorates an inner transport with injection.
type faultTransport struct {
	in    *Injector
	inner transport.Transport
}

// Transport wraps a transport so every Call consults the injector before
// touching the wire. Register the wrapped transport in a binding's
// Registry to chaos-test the real client path.
func (in *Injector) Transport(inner transport.Transport) transport.Transport {
	return &faultTransport{in: in, inner: inner}
}

// Scheme implements transport.Transport.
func (t *faultTransport) Scheme() string { return t.inner.Scheme() }

// Call implements transport.Transport.
func (t *faultTransport) Call(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	if err := t.in.apply(ctx, req.Endpoint); err != nil {
		return nil, err
	}
	return t.inner.Call(ctx, req)
}

// LinkFault adapts the injector to netsim's per-link fault hook
// (Link.Fault): injected errors and hangs become message drops — in
// datagram semantics a black-holed message simply never arrives — and
// injected latency becomes extra propagation delay, all on the
// simulator's virtual clock.
func (in *Injector) LinkFault() func(from, to string, data []byte) (drop bool, extra time.Duration) {
	return func(from, to string, data []byte) (bool, time.Duration) {
		d := in.decide(to)
		return d.fail || d.hang, d.delay
	}
}
