package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wspeer/internal/engine"
	"wspeer/internal/pipeline"
	"wspeer/internal/resilience"
)

// gaugeInvoker records the peak number of concurrent Invoke calls.
type gaugeInvoker struct {
	schemes []string
	delay   time.Duration
	err     error
	cur     atomic.Int64
	peak    atomic.Int64
	calls   atomic.Int64
}

func (g *gaugeInvoker) Schemes() []string { return g.schemes }
func (g *gaugeInvoker) Invoke(_ *pipeline.Call, svc *ServiceInfo, op string, params []engine.Param) (*engine.Result, error) {
	c := g.cur.Add(1)
	for {
		p := g.peak.Load()
		if c <= p || g.peak.CompareAndSwap(p, c) {
			break
		}
	}
	if g.delay > 0 {
		time.Sleep(g.delay)
	}
	g.cur.Add(-1)
	g.calls.Add(1)
	return &engine.Result{}, g.err
}

// completedStats waits for the scheduler to count n tasks complete, which it
// does once a task's function — the callback that signals the test
// included — has returned, and returns its stats.
func completedStats(stats func() SchedulerStats, n int64) SchedulerStats {
	st := stats()
	for deadline := time.Now().Add(5 * time.Second); st.Completed < n && time.Now().Before(deadline); {
		runtime.Gosched()
		st = stats()
	}
	return st
}

func TestSchedulerBoundsConcurrency(t *testing.T) {
	s := newScheduler(SchedulerOptions{MaxConcurrent: 4, MaxQueue: 256})
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		s.submit(context.Background(),
			func() {
				defer wg.Done()
				c := cur.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				cur.Add(-1)
			},
			func(err error) { defer wg.Done(); t.Errorf("shed: %v", err) })
	}
	wg.Wait()
	if p := peak.Load(); p > 4 {
		t.Fatalf("peak concurrency = %d, want <= 4", p)
	}
	if st := completedStats(s.stats, 100); st.Submitted != 100 || st.Completed != 100 || st.Shed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSchedulerWorkersExitWhenIdle(t *testing.T) {
	s := newScheduler(SchedulerOptions{MaxConcurrent: 8})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		s.submit(context.Background(), func() { wg.Done() }, func(error) { wg.Done() })
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := s.workers
		s.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still alive after drain", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSchedulerQueueFullSheds(t *testing.T) {
	s := newScheduler(SchedulerOptions{MaxConcurrent: 1, MaxQueue: 1, RetryAfter: 42 * time.Millisecond})
	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	s.submit(context.Background(), func() { close(started); <-gate; wg.Done() }, nil)
	<-started // the only worker is now pinned

	wg.Add(1)
	s.submit(context.Background(), func() { wg.Done() }, nil) // fills the queue

	shedErr := make(chan error, 1)
	s.submit(context.Background(), func() { t.Error("overflow task ran") }, func(err error) { shedErr <- err })
	select {
	case err := <-shedErr:
		var oe *resilience.OverloadError
		if !errors.As(err, &oe) {
			t.Fatalf("err = %T %v", err, err)
		}
		if oe.RetryAfter != 42*time.Millisecond {
			t.Fatalf("retryAfter = %v", oe.RetryAfter)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("overflow submission never shed")
	}
	close(gate)
	wg.Wait()
	if st := s.stats(); st.Shed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSchedulerShedsExpiredContext(t *testing.T) {
	s := newScheduler(SchedulerOptions{MaxConcurrent: 1, MaxQueue: 8})
	gate := make(chan struct{})
	started := make(chan struct{})
	s.submit(context.Background(), func() { close(started); <-gate }, nil)
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expires while the task waits for the pinned worker
	shedErr := make(chan error, 1)
	s.submit(ctx, func() { t.Error("expired task ran") }, func(err error) { shedErr <- err })
	close(gate)
	select {
	case err := <-shedErr:
		var oe *resilience.OverloadError
		if !errors.As(err, &oe) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %T %v", err, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("expired task never shed")
	}
}

func TestSchedulerQueueTimeout(t *testing.T) {
	// The 10ms budget is far above an idle handoff (so the pilot task
	// runs) and far below the 100ms the gate pins the worker for (so the
	// queued task is over budget when it is finally dequeued).
	s := newScheduler(SchedulerOptions{MaxConcurrent: 1, MaxQueue: 8, QueueTimeout: 10 * time.Millisecond})
	gate := make(chan struct{})
	started := make(chan struct{})
	s.submit(context.Background(), func() { close(started); <-gate }, nil)
	<-started

	shedErr := make(chan error, 1)
	s.submit(context.Background(), func() { t.Error("timed-out task ran") }, func(err error) { shedErr <- err })
	time.Sleep(100 * time.Millisecond)
	close(gate)
	select {
	case err := <-shedErr:
		var oe *resilience.OverloadError
		if !errors.As(err, &oe) {
			t.Fatalf("err = %T %v", err, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued task never timed out")
	}
}

func TestInvokeAsyncRunsOnScheduler(t *testing.T) {
	p := NewPeer()
	p.Client().ConfigureScheduler(SchedulerOptions{MaxConcurrent: 3})
	inv := &gaugeInvoker{schemes: []string{"http"}, delay: 2 * time.Millisecond}
	p.Client().RegisterInvoker(inv)

	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		ivk, err := p.Client().NewInvocation(&ServiceInfo{Name: "E", Endpoint: "http://h/E"})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		ivk.InvokeAsync(context.Background(), "op", nil, func(*engine.Result, error) { wg.Done() })
	}
	wg.Wait()
	if pk := inv.peak.Load(); pk > 3 {
		t.Fatalf("peak concurrency = %d, want <= 3", pk)
	}
	if st := completedStats(p.Client().SchedulerStats, 50); st.Submitted != 50 || st.Completed != 50 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInvokeManyOrderingAndErrors(t *testing.T) {
	p := NewPeer()
	p.Client().RegisterInvoker(&fakeInvoker{schemes: []string{"http"}, result: &engine.Result{}})
	svcs := []*ServiceInfo{
		{Name: "A", Endpoint: "http://a/A"},
		{Name: "B", Endpoint: "gopher://b/B"}, // no invoker for this scheme
		{Name: "C", Endpoint: "http://c/C"},
	}
	out := p.Client().InvokeMany(context.Background(), svcs, "op", nil)
	if len(out) != 3 {
		t.Fatalf("slots = %d", len(out))
	}
	for i, r := range out {
		if r.Service != svcs[i] {
			t.Fatalf("slot %d out of order: %+v", i, r.Service)
		}
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("good slots errored: %v / %v", out[0].Err, out[2].Err)
	}
	if out[1].Err == nil || out[1].Result != nil {
		t.Fatalf("bad-scheme slot = %+v", out[1])
	}
}

// TestInvokeManyBurst is the acceptance check: a 100-call concurrent
// burst completes with goroutines bounded by the scheduler cap.
func TestInvokeManyBurst(t *testing.T) {
	p := NewPeer()
	p.Client().ConfigureScheduler(SchedulerOptions{MaxConcurrent: 8, MaxQueue: 256})
	inv := &gaugeInvoker{schemes: []string{"http"}, delay: time.Millisecond}
	p.Client().RegisterInvoker(inv)

	svcs := make([]*ServiceInfo, 100)
	for i := range svcs {
		svcs[i] = &ServiceInfo{Name: "E", Endpoint: "http://h/E"}
	}
	out := p.Client().InvokeMany(context.Background(), svcs, "op", []engine.Param{engine.P("msg", "x")})
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
	}
	if pk := inv.peak.Load(); pk > 8 {
		t.Fatalf("peak concurrency = %d, want <= 8", pk)
	}
	if got := inv.calls.Load(); got != 100 {
		t.Fatalf("invocations = %d", got)
	}
}
