package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/pipeline"
	"wspeer/internal/resilience"
	"wspeer/internal/transport"
	"wspeer/internal/wsdl"
)

// ResilienceRow is one R1 measurement: invocation outcomes at one injected
// fault rate, with or without the resilience stack (circuit breaker +
// cross-binding failover to a healthy replica).
type ResilienceRow struct {
	FaultRate  float64
	Resilient  bool
	Calls      int
	Successes  int
	P99        time.Duration
	FailedOver int64 // calls the fallback replica served
}

// memInvoker invokes mem:// endpoints through per-endpoint stubs, standing
// in for a binding on the latency-free in-memory network.
type memInvoker struct {
	stubs map[string]*engine.Stub
}

func (m *memInvoker) Schemes() []string { return []string{"mem"} }

func (m *memInvoker) Invoke(c *pipeline.Call, svc *core.ServiceInfo, op string, params []engine.Param) (*engine.Result, error) {
	stub, ok := m.stubs[svc.Endpoint]
	if !ok {
		return nil, fmt.Errorf("experiments: no stub for %q", svc.Endpoint)
	}
	return stub.Invoke(c.Ctx, op, params...)
}

// manualClock advances only when told to, making breaker open-timeouts a
// function of call count rather than wall time.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// RunResilienceSweep measures R1: one primary endpoint with seeded faults
// injected at each rate and one healthy replica, invoked `calls` times per
// cell. The bare stack invokes the primary directly and surfaces every
// injected failure; the resilient stack (per-endpoint circuit breaker +
// failover invocation) should hold success at 100% by routing around the
// fault while the breaker is open.
func RunResilienceSweep(seed int64, calls int, rates []float64) ([]ResilienceRow, error) {
	var rows []ResilienceRow
	for _, rate := range rates {
		for _, resilient := range []bool{false, true} {
			row, err := runResilienceCell(seed, calls, rate, resilient)
			if err != nil {
				return nil, err
			}
			rows = append(rows, *row)
		}
	}
	return rows, nil
}

func runResilienceCell(seed int64, calls int, rate float64, resilient bool) (*ResilienceRow, error) {
	const (
		primary  = "mem://primary/Echo"
		fallback = "mem://fallback/Echo"
	)
	eng := engine.New()
	if _, err := eng.Deploy(engine.ServiceDef{
		Name: "Echo",
		Operations: []engine.OperationDef{{
			Name: "echo", Func: func(s string) string { return s }, ParamNames: []string{"msg"},
		}},
	}); err != nil {
		return nil, err
	}
	serve := func(counter *atomic.Int64) transport.Handler {
		return transport.HandlerFunc(func(ctx context.Context, req *transport.Request) (*transport.Response, error) {
			if counter != nil {
				counter.Add(1)
			}
			return eng.ServeRequest(ctx, "Echo", req)
		})
	}
	var failedOver atomic.Int64
	netw := transport.NewInMemNetwork()
	netw.Register(primary, serve(nil))
	netw.Register(fallback, serve(&failedOver))

	inj := resilience.NewInjector(seed)
	inj.SetPlans(resilience.FaultPlan{Endpoint: primary, ErrorRate: rate})
	reg := transport.NewRegistry()
	reg.Register(inj.Transport(netw.Transport()))

	stubFor := func(endpoint string) (*engine.Stub, error) {
		defs, err := eng.Service("Echo").WSDL(wsdl.TransportHTTP, endpoint)
		if err != nil {
			return nil, err
		}
		return engine.NewStub(defs, reg), nil
	}
	ps, err := stubFor(primary)
	if err != nil {
		return nil, err
	}
	fs, err := stubFor(fallback)
	if err != nil {
		return nil, err
	}

	peer := core.NewPeer()
	peer.Client().RegisterInvoker(&memInvoker{stubs: map[string]*engine.Stub{primary: ps, fallback: fs}})
	clock := &manualClock{t: time.Unix(0, 0)}
	peer.Client().ConfigureBreakers(resilience.BreakerOptions{
		Window:           8,
		FailureThreshold: 0.5,
		MinSamples:       4,
		OpenTimeout:      50 * time.Millisecond,
		Now:              clock.Now,
	})

	primaryInfo := &core.ServiceInfo{Name: "Echo", Endpoint: primary}
	fallbackInfo := &core.ServiceInfo{Name: "Echo", Endpoint: fallback}
	var inv *core.Invocation
	if resilient {
		inv, err = peer.Client().NewFailoverInvocation(primaryInfo, fallbackInfo)
	} else {
		inv, err = peer.Client().NewInvocation(primaryInfo)
	}
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	latencies := make([]time.Duration, 0, calls)
	successes := 0
	for i := 0; i < calls; i++ {
		clock.Advance(10 * time.Millisecond)
		start := time.Now()
		_, err := inv.Invoke(ctx, "echo", engine.P("msg", "x"))
		latencies = append(latencies, time.Since(start))
		if err == nil {
			successes++
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[(len(latencies)*99)/100]
	return &ResilienceRow{
		FaultRate:  rate,
		Resilient:  resilient,
		Calls:      calls,
		Successes:  successes,
		P99:        p99,
		FailedOver: failedOver.Load(),
	}, nil
}

// ResilienceTable renders R1.
func ResilienceTable(rows []ResilienceRow) *Table {
	t := &Table{
		ID:      "R1",
		Title:   "resilience: success rate and p99 latency vs injected fault rate",
		Columns: []string{"fault rate", "stack", "success", "p99", "served by replica"},
		Notes: []string{
			"primary endpoint faulted by the seeded injector; one healthy replica available",
			"shape check: the bare stack loses ~rate of its calls; breaker+failover holds 100%",
		},
	}
	for _, r := range rows {
		stack := "bare"
		if r.Resilient {
			stack = "breaker+failover"
		}
		t.Rows = append(t.Rows, []string{
			fpct(r.FaultRate), stack,
			fmt.Sprintf("%d/%d (%s)", r.Successes, r.Calls, fpct(float64(r.Successes)/float64(r.Calls))),
			r.P99.String(),
			fmt.Sprint(r.FailedOver),
		})
	}
	return t
}
