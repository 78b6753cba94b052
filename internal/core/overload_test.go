package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wspeer/internal/engine"
	"wspeer/internal/pipeline"
	"wspeer/internal/resilience"
)

// blockingInvoker holds every call on a gate so the test controls when
// in-flight invocations complete.
type blockingInvoker struct {
	schemes []string
	gate    chan struct{}
	started chan struct{} // one send per call that begins
	calls   atomic.Int64
}

func (b *blockingInvoker) Schemes() []string { return b.schemes }
func (b *blockingInvoker) Invoke(c *pipeline.Call, svc *ServiceInfo, op string, params []engine.Param) (*engine.Result, error) {
	b.calls.Add(1)
	select {
	case b.started <- struct{}{}:
	default:
	}
	<-b.gate
	return &engine.Result{}, nil
}

// TestInvokeManyMidBatchShed pins the per-slot error semantics when the
// scheduler sheds part of a batch: shed slots carry *OverloadError, the
// surviving slots succeed, and the output stays in input order.
func TestInvokeManyMidBatchShed(t *testing.T) {
	p := NewPeer()
	// One worker, one queue slot: the first invocation pins the pool, one
	// more waits, and the rest of the batch is shed.
	p.Client().ConfigureScheduler(SchedulerOptions{MaxConcurrent: 1, MaxQueue: 1})
	inv := &blockingInvoker{
		schemes: []string{"http"},
		gate:    make(chan struct{}),
		started: make(chan struct{}, 1),
	}
	p.Client().RegisterInvoker(inv)

	svcs := make([]*ServiceInfo, 6)
	for i := range svcs {
		svcs[i] = &ServiceInfo{Name: "E", Endpoint: "http://h/E"}
	}

	// Release the gate once the first invocation is in flight, so the
	// batch ends with at least one success and at least one shed slot.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-inv.started
		time.Sleep(20 * time.Millisecond) // let the rest of the batch hit the full pool
		close(inv.gate)
	}()
	out := p.Client().InvokeMany(context.Background(), svcs, "op", nil)
	wg.Wait()

	if len(out) != len(svcs) {
		t.Fatalf("slots = %d, want %d", len(out), len(svcs))
	}
	var ok, shed int
	for i, r := range out {
		if r.Service != svcs[i] {
			t.Fatalf("slot %d out of input order: %+v", i, r.Service)
		}
		switch {
		case r.Err == nil:
			if r.Result == nil {
				t.Fatalf("successful slot %d has no result", i)
			}
			ok++
		default:
			var oe *resilience.OverloadError
			if !errors.As(r.Err, &oe) {
				t.Fatalf("slot %d error = %T %v, want *OverloadError", i, r.Err, r.Err)
			}
			if r.Result != nil {
				t.Fatalf("shed slot %d carries a result", i)
			}
			shed++
		}
	}
	if ok < 1 || shed < 1 {
		t.Fatalf("ok=%d shed=%d, want a mid-batch mix of both", ok, shed)
	}
	if st := p.Client().SchedulerStats(); st.Shed != int64(shed) {
		t.Fatalf("scheduler shed = %d, slots shed = %d", st.Shed, shed)
	}
}

// slowFastInvoker answers slowly on one endpoint and fast on the rest.
type slowFastInvoker struct {
	schemes  []string
	slowEP   string
	slowWait time.Duration
	calls    atomic.Int64
	slow     atomic.Int64
}

func (s *slowFastInvoker) Schemes() []string { return s.schemes }
func (s *slowFastInvoker) Invoke(c *pipeline.Call, svc *ServiceInfo, op string, params []engine.Param) (*engine.Result, error) {
	s.calls.Add(1)
	if svc.Endpoint == s.slowEP {
		s.slow.Add(1)
		select {
		case <-time.After(s.slowWait):
		case <-c.Ctx.Done():
			return nil, c.Ctx.Err()
		}
	}
	return &engine.Result{}, nil
}

func TestHedgedInvocationWinsOnSecondEndpoint(t *testing.T) {
	p := NewPeer()
	inv := &slowFastInvoker{
		schemes:  []string{"http"},
		slowEP:   "http://slow/E",
		slowWait: 5 * time.Second,
	}
	p.Client().RegisterInvoker(inv)

	hi, err := p.Client().NewHedgedInvocation(HedgeOptions{Threshold: 5 * time.Millisecond},
		&ServiceInfo{Name: "E", Endpoint: "http://slow/E"},
		&ServiceInfo{Name: "E", Endpoint: "http://fast/E"})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := hi.Invoke(context.Background(), "op")
	if err != nil {
		t.Fatalf("hedged invoke: %v", err)
	}
	if res == nil {
		t.Fatalf("no result from hedge winner")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedge did not rescue the slow primary (took %v)", elapsed)
	}
	if got := inv.calls.Load(); got != 2 {
		t.Fatalf("calls = %d, want 2 (primary + hedge)", got)
	}
}

func TestHedgedInvocationDeniedWithoutBudgetTokens(t *testing.T) {
	p := NewPeer()
	// A drained budget: floor 1 spent immediately below.
	b := p.Client().ConfigureRetryBudget(resilience.BudgetOptions{Floor: 1, Cap: 1, Ratio: 0.001})
	if !b.TryDraw() {
		t.Fatalf("priming draw failed")
	}
	inv := &slowFastInvoker{
		schemes:  []string{"http"},
		slowEP:   "http://slow/E",
		slowWait: 150 * time.Millisecond,
	}
	p.Client().RegisterInvoker(inv)
	hi, err := p.Client().NewHedgedInvocation(HedgeOptions{Threshold: 5 * time.Millisecond},
		&ServiceInfo{Name: "E", Endpoint: "http://slow/E"},
		&ServiceInfo{Name: "E", Endpoint: "http://fast/E"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hi.Invoke(context.Background(), "op"); err != nil {
		t.Fatalf("invoke: %v", err)
	}
	// With no tokens the hedge may not launch: only the slow primary ran.
	if got := inv.calls.Load(); got != 1 {
		t.Fatalf("calls = %d, want 1 (hedge denied by empty budget)", got)
	}
}

func TestClientBudgetCreditsOnLogicalSuccess(t *testing.T) {
	p := NewPeer()
	b := p.Client().ConfigureRetryBudget(resilience.BudgetOptions{Floor: 1, Cap: 10, Ratio: 0.25})
	p.Client().RegisterInvoker(&fakeInvoker{schemes: []string{"http"}, result: &engine.Result{}})
	ivk, err := p.Client().NewInvocation(&ServiceInfo{Name: "E", Endpoint: "http://h/E"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := ivk.Invoke(context.Background(), "op"); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	// Floor 1 + 4 × 0.25 = 2 tokens.
	if got := b.Balance(); got != 2 {
		t.Fatalf("balance = %v, want 2 after four credited successes", got)
	}
}

func TestHedgedInvocationSingleEndpoint(t *testing.T) {
	p := NewPeer()
	p.Client().RegisterInvoker(&fakeInvoker{schemes: []string{"http"}, result: &engine.Result{}})
	hi, err := p.Client().NewHedgedInvocation(HedgeOptions{},
		&ServiceInfo{Name: "E", Endpoint: "http://h/E"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hi.Invoke(context.Background(), "op"); err != nil {
		t.Fatalf("single-endpoint hedged invoke: %v", err)
	}
}
