package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"wspeer/internal/netsim"
	"wspeer/internal/soap"
	"wspeer/internal/transport"
)

// fakeClock is a manually advanced time source for deterministic
// open→half-open transitions.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Outcome
	}{
		{"nil", nil, Success},
		{"soap fault", soap.NewFault(soap.FaultServer, "boom"), Success},
		{"wrapped fault", fmt.Errorf("x: %w", soap.NewFault(soap.FaultClient, "bad")), Success},
		{"canceled", context.Canceled, Skip},
		{"breaker open", &BreakerOpenError{Endpoint: "http://x"}, Skip},
		{"deadline", context.DeadlineExceeded, Failure},
		{"transport", errors.New("connection refused"), Failure},
		{"injected", fmt.Errorf("%w for endpoint x", ErrInjected), Failure},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

// step is one scripted breaker interaction.
type step struct {
	advance   time.Duration // clock movement before the step
	allow     bool          // expected Allow result
	record    bool          // whether to Record (only when allowed)
	success   bool          // the outcome to record
	wantState BreakerState  // state after the step
}

// TestBreakerStateMachine walks the full state diagram:
// closed→open→half-open→closed, and half-open→open on a probe failure.
func TestBreakerStateMachine(t *testing.T) {
	clock := newFakeClock()
	var transitions []string
	opts := BreakerOptions{
		Window:           4,
		FailureThreshold: 0.5,
		MinSamples:       4,
		OpenTimeout:      100 * time.Millisecond,
		HalfOpenProbes:   1,
		Now:              clock.Now,
		OnChange: func(ep string, from, to BreakerState) {
			transitions = append(transitions, fmt.Sprintf("%s->%s", from, to))
		},
	}
	b := NewBreaker("http://primary", opts)

	script := []step{
		// Three failures among the first three calls: under MinSamples
		// after 2, at threshold on the 4th sample.
		{allow: true, record: true, success: false, wantState: BreakerClosed},
		{allow: true, record: true, success: true, wantState: BreakerClosed},
		{allow: true, record: true, success: false, wantState: BreakerClosed},
		// 4th sample: 3/4 failures ≥ 0.5 → opens.
		{allow: true, record: true, success: false, wantState: BreakerOpen},
		// Open: refused until the timeout elapses.
		{advance: 50 * time.Millisecond, allow: false, wantState: BreakerOpen},
		// Timeout elapsed: half-open, one probe admitted...
		{advance: 50 * time.Millisecond, allow: true, wantState: BreakerHalfOpen},
		// ...and only one: a second concurrent probe is refused.
		{allow: false, wantState: BreakerHalfOpen},
	}
	for i, s := range script {
		if s.advance > 0 {
			clock.Advance(s.advance)
		}
		if got := b.Allow(); got != s.allow {
			t.Fatalf("step %d: Allow = %v, want %v", i, got, s.allow)
		}
		if s.allow && s.record {
			b.Record(s.success)
		}
		if got := b.State(); got != s.wantState {
			t.Fatalf("step %d: state = %v, want %v", i, got, s.wantState)
		}
	}

	// Probe fails → re-open with a fresh timeout.
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("after failed probe: state = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("freshly re-opened breaker admitted a call")
	}

	// Second probe round succeeds → closed, with a clean window.
	clock.Advance(100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe not admitted after re-open timeout")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("after successful probe: state = %v, want closed", got)
	}
	// The reset window means one failure cannot re-open it.
	if !b.Allow() {
		t.Fatal("closed breaker refused a call")
	}
	b.Record(false)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("one failure after reset re-opened the breaker: %v", got)
	}

	want := []string{
		"closed->open",
		"open->half-open",
		"half-open->open",
		"open->half-open",
		"half-open->closed",
	}
	if strings.Join(transitions, ",") != strings.Join(want, ",") {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
}

func TestBreakerWindowSlides(t *testing.T) {
	b := NewBreaker("ep", BreakerOptions{Window: 4, FailureThreshold: 0.5, MinSamples: 4})
	// Two failures that never share a window (threshold 0.5 of 4 needs two
	// together) must not open the breaker: the first slides out before the
	// second arrives.
	outcomes := []bool{false, true, true, true, false, true}
	for _, ok := range outcomes {
		if !b.Allow() {
			t.Fatal("breaker refused mid-sequence")
		}
		b.Record(ok)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed (failures aged out)", got)
	}
}

// TestBreakerGroupDo drives the guarded attempt: outcomes are recorded under
// Classify, an open breaker refuses without calling the attempt, and a
// successful probe after the timeout heals the endpoint.
func TestBreakerGroupDo(t *testing.T) {
	clock := newFakeClock()
	g := NewGroup(BreakerOptions{
		Window: 2, FailureThreshold: 0.5, MinSamples: 2,
		OpenTimeout: time.Minute, Now: clock.Now,
	})
	const ep = "http://primary"
	boom := errors.New("transport down")
	calls := 0
	do := func(err error) error {
		return g.Do(ep, func() error { calls++; return err })
	}
	// An application fault proves the endpoint alive: it counts as a
	// success, so one failure beside it is half the window, which opens.
	fault := soap.NewFault(soap.FaultServer, "application says no")
	if err := do(fault); !errors.Is(err, fault) {
		t.Fatalf("err = %v, want the fault back", err)
	}
	if st := g.Breaker(ep).State(); st != BreakerClosed {
		t.Fatalf("state after a fault = %v, want closed", st)
	}
	if err := do(boom); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if st := g.Breaker(ep).State(); st != BreakerOpen {
		t.Fatalf("state after fault + failure in a window of 2 = %v, want open", st)
	}
	// Open: the attempt must not run.
	var open *BreakerOpenError
	if err := do(nil); !errors.As(err, &open) || open.Endpoint != ep {
		t.Fatalf("err = %v, want BreakerOpenError for %s", err, ep)
	}
	if calls != 2 {
		t.Fatalf("attempt ran %d times, want 2 (the refusal must not call it)", calls)
	}
	if err := g.Do("http://other", func() error { return nil }); err != nil {
		t.Fatalf("another endpoint is guarded by its own breaker, got %v", err)
	}
	// Probe after the timeout heals it.
	clock.Advance(time.Minute)
	if err := do(nil); err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if st := g.Breaker(ep).State(); st != BreakerClosed {
		t.Fatalf("state after probe = %v, want closed", st)
	}
}

// TestBreakerGroupDoSkipFreesProbe: an attempt that says nothing about the
// endpoint — the caller cancelled, which Hedge does to every losing
// attempt — records nothing and gives the half-open probe slot back, so
// the next attempt may probe and one success closes the breaker.
func TestBreakerGroupDoSkipFreesProbe(t *testing.T) {
	clock := newFakeClock()
	g := NewGroup(BreakerOptions{
		Window: 4, FailureThreshold: 0.5, MinSamples: 2,
		OpenTimeout: time.Minute, Now: clock.Now,
	})
	const ep = "http://primary"
	br := g.Breaker(ep)
	cancelled := func() error { return fmt.Errorf("send: %w", context.Canceled) }

	// Closed: skips leave the window untouched, however many there are.
	for i := 0; i < 8; i++ {
		if err := g.Do(ep, cancelled); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want the cancellation back", err)
		}
	}
	if st := br.State(); st != BreakerClosed {
		t.Fatalf("cancellations opened the breaker: %v", st)
	}
	boom := errors.New("transport down")
	for i := 0; i < 2; i++ {
		g.Do(ep, func() error { return boom })
	}
	if st := br.State(); st != BreakerOpen {
		t.Fatalf("state = %v, want open", st)
	}

	// The half-open probe is cancelled by its caller.
	clock.Advance(time.Minute)
	if err := g.Do(ep, cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("probe err = %v, want the cancellation back", err)
	}
	if st := br.State(); st != BreakerHalfOpen {
		t.Fatalf("state after a cancelled probe = %v, want half-open (nothing recorded)", st)
	}
	// The slot came back: the next attempt probes, and its success closes.
	clock.Advance(time.Hour)
	ran := false
	if err := g.Do(ep, func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("after a cancelled probe the endpoint is refused for good: ran=%v err=%v", ran, err)
	}
	if st := br.State(); st != BreakerClosed {
		t.Fatalf("state after the second probe = %v, want closed", st)
	}
}

// ---------------------------------------------------------------------------
// Admission

func TestAdmissionShedsBeyondQueue(t *testing.T) {
	a := NewAdmission(AdmissionOptions{MaxConcurrent: 2, MaxQueue: 0, RetryAfter: 3 * time.Second})
	ctx := context.Background()
	if err := a.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	err := a.Acquire(ctx)
	o, ok := AsOverload(err)
	if !ok {
		t.Fatalf("err = %v, want OverloadError", err)
	}
	if o.RetryAfterSeconds() != 3 {
		t.Fatalf("RetryAfterSeconds = %d, want 3", o.RetryAfterSeconds())
	}
	a.Release()
	a.Release()
	s := a.Stats()
	if s.InFlight != 0 || s.Admitted != 2 || s.Shed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAdmissionQueuedCallRespectsDeadline(t *testing.T) {
	a := NewAdmission(AdmissionOptions{MaxConcurrent: 1, MaxQueue: 4})
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := a.Acquire(ctx)
	if _, ok := AsOverload(err); !ok {
		t.Fatalf("err = %v, want OverloadError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want to wrap context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("queued call waited %v past its deadline", waited)
	}
	if q := a.Stats().Queued; q != 0 {
		t.Fatalf("queued = %d after expired wait, want 0", q)
	}
}

func TestAdmissionQueueHandsOffSlot(t *testing.T) {
	a := NewAdmission(AdmissionOptions{MaxConcurrent: 1, MaxQueue: 1})
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- a.Acquire(context.Background()) }()
	// Wait for the queuer to be parked, then free the slot.
	deadline := time.Now().Add(2 * time.Second)
	for a.Stats().Queued == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	a.Release()
	if err := <-got; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	a.Release()
}

func TestAdmissionDrain(t *testing.T) {
	a := NewAdmission(AdmissionOptions{MaxConcurrent: 2, MaxQueue: 0})
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- a.Drain(ctx)
	}()
	// New work is shed while draining. Until the flag is visible a probe
	// may still be admitted (release and retry) or collide with Drain over
	// the spare slot ("queue full" — retry).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		err := a.Acquire(context.Background())
		if err == nil {
			a.Release()
			time.Sleep(time.Millisecond)
			continue
		}
		o, ok := AsOverload(err)
		if !ok {
			t.Fatalf("unexpected acquire error: %v", err)
		}
		if o.Reason == "draining" {
			break
		}
		time.Sleep(time.Millisecond)
	}
	a.Release() // the in-flight dispatch finishes
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestOverloadFaultCarriesRetryAfter(t *testing.T) {
	o := &OverloadError{Reason: "queue full", RetryAfter: 1500 * time.Millisecond}
	f := o.Fault()
	if f.Code != soap.FaultServer {
		t.Fatalf("fault code = %v, want Server", f.Code)
	}
	detail, err := f.Detail.Element()
	if f.Detail.Name != soap.RetryAfterName || err != nil || strings.TrimSpace(detail.Text()) != "2" {
		t.Fatalf("fault detail = %v %v, want retryAfterSeconds 2", f.Detail.Name, detail)
	}
}

// TestParsedOverloadFaultHints: the overload fault a client parses
// advertises the server's backoff to pipeline.Retry, whatever the binding.
func TestParsedOverloadFaultHints(t *testing.T) {
	for _, v := range []soap.Version{soap.SOAP11, soap.SOAP12} {
		env, err := soap.Parse(soap.NewEnvelopeV(v).SetFault(NewOverloadError("queue full", time.Second, nil).Fault()).Marshal())
		if err != nil || !env.IsFault() {
			t.Fatalf("%v: %v", v, err)
		}
		if hint := env.Fault().RetryAfterHint(); hint != time.Second {
			t.Fatalf("%v: parsed overload fault hints %v, want 1s", v, hint)
		}
	}
	if hint := soap.NewFault(soap.FaultServer, "boom").RetryAfterHint(); hint != 0 {
		t.Fatalf("a fault without the detail hints %v", hint)
	}
}

// TestServerFaultOfWrappedOverload: an application error that wraps an
// overload refusal is answered with the overload's fault, retry hint and
// all.
func TestServerFaultOfWrappedOverload(t *testing.T) {
	err := fmt.Errorf("calling the backend: %w", NewOverloadError("queue full", 2500*time.Millisecond, nil))
	f := soap.ServerFault(err)
	if f.Code != soap.FaultServer || f.Detail.Name != soap.RetryAfterName || f.RetryAfterHint() != 3*time.Second {
		t.Fatalf("fault = %+v, hint %v; want the overload's, hinting 3s", f, f.RetryAfterHint())
	}
	if f := soap.ServerFault(errors.New("plain")); f.Code != soap.FaultServer || f.String != "plain" || !f.Detail.Name.IsZero() {
		t.Fatalf("plain error's fault = %+v", f)
	}
}

// TestFaultAllocs gates the shed request's fault: built and marshalled as
// a host sends it, and parsed as a client reads it.
func TestFaultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	o := NewOverloadError("queue full", 2*time.Second, nil)
	write := testing.AllocsPerRun(200, func() {
		soap.NewEnvelope().SetFault(o.Fault()).MarshalTo(io.Discard)
	})
	data := soap.NewEnvelope().SetFault(o.Fault()).Marshal()
	parse := testing.AllocsPerRun(200, func() {
		if _, err := soap.Parse(data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("overload fault: %.0f allocations to build and marshal, %.0f to parse", write, parse)
	// To build and marshal: the fault, its envelope, Error's Sprintf (4)
	// and the detail's Raw. To parse: the envelope, the fault and its two
	// strings.
	if write > 7 || parse > 4 {
		t.Fatalf("overload fault: %.0f allocations to build and marshal (gate 7), %.0f to parse (gate 4)", write, parse)
	}
}

// ---------------------------------------------------------------------------
// Injector

type countTransport struct {
	scheme string
	calls  int
}

func (c *countTransport) Scheme() string { return c.scheme }
func (c *countTransport) Call(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	c.calls++
	return &transport.Response{Body: req.Body}, nil
}

func TestInjectorDeterminism(t *testing.T) {
	run := func() []bool {
		in := NewInjector(7)
		in.SetPlans(FaultPlan{Endpoint: "http://", ErrorRate: 0.4})
		out := make([]bool, 0, 64)
		for i := 0; i < 64; i++ {
			err := in.apply(context.Background(), "http://primary/Echo")
			out = append(out, err != nil)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	faults := 0
	for _, f := range a {
		if f {
			faults++
		}
	}
	if faults == 0 || faults == len(a) {
		t.Fatalf("fault mix = %d/%d, want a genuine mix at rate 0.4", faults, len(a))
	}
}

func TestInjectorTransportAndMatching(t *testing.T) {
	inner := &countTransport{scheme: "http"}
	in := NewInjector(1)
	in.SetPlans(FaultPlan{Endpoint: "http://bad", ErrorRate: 1})
	tr := in.Transport(inner)
	if tr.Scheme() != "http" {
		t.Fatalf("scheme = %q", tr.Scheme())
	}
	_, err := tr.Call(context.Background(), &transport.Request{Endpoint: "http://bad/Echo"})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if inner.calls != 0 {
		t.Fatal("faulted call reached the inner transport")
	}
	// Non-matching endpoints pass through and consume no randomness.
	if _, err := tr.Call(context.Background(), &transport.Request{Endpoint: "http://good/Echo"}); err != nil {
		t.Fatal(err)
	}
	if inner.calls != 1 {
		t.Fatalf("inner calls = %d, want 1", inner.calls)
	}
	st := in.Stats()
	if st.Calls != 2 || st.Faults != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInjectorHangRespectsContext(t *testing.T) {
	in := NewInjector(1)
	in.SetPlans(FaultPlan{HangRate: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := in.apply(ctx, "http://blackhole")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("hang outlived its context")
	}
}

// TestInjectorNetsimComposition runs injected latency on the simulator's
// virtual clock and injected drops on a simulated link, and checks the
// whole composition reproduces bit-for-bit from the seeds.
func TestInjectorNetsimComposition(t *testing.T) {
	run := func() (delivered, dropped int64, elapsed time.Duration) {
		sim := netsim.New(11)
		in := NewInjector(12, InjectorOptions{AfterFunc: sim.AfterFunc})
		in.SetPlans(FaultPlan{Endpoint: "b", ErrorRate: 0.3, Latency: 5 * time.Millisecond})
		a, err := sim.NewEndpoint("a")
		if err != nil {
			t.Fatal(err)
		}
		bEP, err := sim.NewEndpoint("b")
		if err != nil {
			t.Fatal(err)
		}
		_ = bEP
		sim.SetLink("a", "b", netsim.Link{Latency: time.Millisecond, Fault: in.LinkFault()})
		for i := 0; i < 50; i++ {
			if err := a.Send("b", []byte("m")); err != nil {
				t.Fatal(err)
			}
		}
		sim.Run(0)
		st := sim.Stats()
		return st.Delivered, st.Dropped, sim.Now()
	}
	d1, x1, t1 := run()
	d2, x2, t2 := run()
	if d1 != d2 || x1 != x2 || t1 != t2 {
		t.Fatalf("same seeds diverged: (%d,%d,%v) vs (%d,%d,%v)", d1, x1, t1, d2, x2, t2)
	}
	if x1 == 0 || d1 == 0 {
		t.Fatalf("delivered=%d dropped=%d, want a mix", d1, x1)
	}
}
