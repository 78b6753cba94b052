package flow

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/pipeline"
	"wspeer/internal/resilience"
	"wspeer/internal/transport"
	"wspeer/internal/wsdl"
)

// rig hosts real engine-backed services over the in-memory transport and
// returns a client peer whose invocations hit them.
type rig struct {
	t    *testing.T
	peer *core.Peer
	net  *transport.InMemNetwork
	reg  *transport.Registry
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{
		t:    t,
		peer: core.NewPeer(),
		net:  transport.NewInMemNetwork(),
		reg:  transport.NewRegistry(),
	}
	r.reg.Register(r.net.Transport())
	r.peer.Client().RegisterInvoker(memInvoker{reg: r.reg})
	return r
}

type memInvoker struct{ reg *transport.Registry }

func (i memInvoker) Schemes() []string { return []string{"mem"} }
func (i memInvoker) Invoke(c *pipeline.Call, svc *core.ServiceInfo, op string, params []engine.Param) (*engine.Result, error) {
	stub := engine.NewStub(svc.Definitions, i.reg)
	stub.EndpointOverride = svc.Endpoint
	return stub.Invoke(c.Ctx, op, params...)
}

// host deploys a service and returns a bound invocation.
func (r *rig) host(def engine.ServiceDef) *core.Invocation {
	r.t.Helper()
	eng := engine.New()
	svc, err := eng.Deploy(def)
	if err != nil {
		r.t.Fatal(err)
	}
	addr := "mem://host/" + def.Name
	r.net.Register(addr, eng.Handler(def.Name))
	defs, err := svc.WSDL(wsdl.TransportHTTP, addr)
	if err != nil {
		r.t.Fatal(err)
	}
	inv, err := r.peer.Client().NewInvocation(&core.ServiceInfo{
		Name: def.Name, Endpoint: addr, Definitions: defs,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	return inv
}

func splitService() engine.ServiceDef {
	return engine.ServiceDef{
		Name: "Split",
		Operations: []engine.OperationDef{{
			Name:       "split",
			Func:       func(text string) []string { return strings.Fields(text) },
			ParamNames: []string{"text"},
		}},
	}
}

func countService() engine.ServiceDef {
	return engine.ServiceDef{
		Name: "Count",
		Operations: []engine.OperationDef{{
			Name:       "count",
			Func:       func(words []string) int64 { return int64(len(words)) },
			ParamNames: []string{"words"},
		}},
	}
}

func upperService() engine.ServiceDef {
	return engine.ServiceDef{
		Name: "Upper",
		Operations: []engine.OperationDef{{
			Name: "upper",
			Func: func(words []string) []string {
				out := make([]string, len(words))
				for i, w := range words {
					out[i] = strings.ToUpper(w)
				}
				return out
			},
			ParamNames: []string{"words"},
		}},
	}
}

func TestLinearPipeline(t *testing.T) {
	r := newRig(t)
	wf := New("pipeline")
	if err := wf.AddStep(Step{
		Name: "split", Invocation: r.host(splitService()), Operation: "split",
		Inputs: map[string]Source{"text": Const("a b c d")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := wf.AddStep(Step{
		Name: "count", Invocation: r.host(countService()), Operation: "count",
		Inputs: map[string]Source{"words": Output("split", "return", []string(nil))},
	}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var events []string
	wf.OnStep(func(e StepEvent) {
		mu.Lock()
		events = append(events, e.Step)
		mu.Unlock()
	})

	res, err := wf.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	if err := res.Decode("count", "return", &n); err != nil || n != 4 {
		t.Fatalf("count = %d, %v", n, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 || events[0] != "split" || events[1] != "count" {
		t.Fatalf("events = %v", events)
	}
	if wf.Name() != "pipeline" {
		t.Fatal("Name")
	}
}

func TestDiamondRunsBranchesConcurrently(t *testing.T) {
	r := newRig(t)
	// split feeds both count and upper; join counts the uppercased words.
	wf := New("diamond")
	wf.AddStep(Step{
		Name: "split", Invocation: r.host(splitService()), Operation: "split",
		Inputs: map[string]Source{"text": Const("x y z")},
	})
	wf.AddStep(Step{
		Name: "upper", Invocation: r.host(upperService()), Operation: "upper",
		Inputs: map[string]Source{"words": Output("split", "return", []string(nil))},
	})
	wf.AddStep(Step{
		Name: "count", Invocation: r.host(countService()), Operation: "count",
		Inputs: map[string]Source{"words": Output("split", "return", []string(nil))},
	})
	wf.AddStep(Step{
		Name: "countUpper", Invocation: r.host(engine.ServiceDef{
			Name: "Count2",
			Operations: []engine.OperationDef{{
				Name:       "count",
				Func:       func(words []string) int64 { return int64(len(words)) },
				ParamNames: []string{"words"},
			}},
		}), Operation: "count",
		Inputs: map[string]Source{"words": Output("upper", "return", []string(nil))},
	})

	res, err := wf.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var upper []string
	if err := res.Decode("upper", "return", &upper); err != nil {
		t.Fatal(err)
	}
	sort.Strings(upper)
	if strings.Join(upper, "") != "XYZ" {
		t.Fatalf("upper = %v", upper)
	}
	var a, b int64
	res.Decode("count", "return", &a)
	res.Decode("countUpper", "return", &b)
	if a != 3 || b != 3 {
		t.Fatalf("counts = %d, %d", a, b)
	}
}

func TestStepFailureCancelsRun(t *testing.T) {
	r := newRig(t)
	failDef := engine.ServiceDef{
		Name: "Fail",
		Operations: []engine.OperationDef{{
			Name: "boom",
			Func: func() (string, error) { return "", errors.New("step exploded") },
		}},
	}
	wf := New("failing")
	wf.AddStep(Step{
		Name: "boom", Invocation: r.host(failDef), Operation: "boom",
		Inputs: map[string]Source{},
	})
	wf.AddStep(Step{
		Name: "after", Invocation: r.host(countService()), Operation: "count",
		Inputs: map[string]Source{"words": Output("boom", "return", []string(nil))},
	})
	_, err := wf.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "step exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestExplicitOrderingAfter(t *testing.T) {
	r := newRig(t)
	var mu sync.Mutex
	var order []string
	record := func(name string) engine.ServiceDef {
		return engine.ServiceDef{
			Name: name,
			Operations: []engine.OperationDef{{
				Name: "go",
				Func: func() string {
					mu.Lock()
					order = append(order, name)
					mu.Unlock()
					return name
				},
			}},
		}
	}
	wf := New("ordered")
	wf.AddStep(Step{Name: "second", Invocation: r.host(record("B")), Operation: "go",
		Inputs: map[string]Source{}, After: []string{"first"}})
	wf.AddStep(Step{Name: "first", Invocation: r.host(record("A")), Operation: "go",
		Inputs: map[string]Source{}})
	if _, err := wf.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "A" || order[1] != "B" {
		t.Fatalf("order = %v", order)
	}
}

func TestValidation(t *testing.T) {
	r := newRig(t)
	inv := r.host(countService())

	wf := New("empty")
	if _, err := wf.Run(context.Background()); err == nil {
		t.Fatal("empty workflow ran")
	}

	wf = New("bad")
	if err := wf.AddStep(Step{Name: "", Invocation: inv, Operation: "count"}); err == nil {
		t.Fatal("nameless step accepted")
	}
	if err := wf.AddStep(Step{Name: "x", Operation: "count"}); err == nil {
		t.Fatal("invocation-less step accepted")
	}
	if err := wf.AddStep(Step{Name: "x", Invocation: inv}); err == nil {
		t.Fatal("operation-less step accepted")
	}
	if err := wf.AddStep(Step{Name: "x", Invocation: inv, Operation: "count"}); err != nil {
		t.Fatal(err)
	}
	if err := wf.AddStep(Step{Name: "x", Invocation: inv, Operation: "count"}); err == nil {
		t.Fatal("duplicate step accepted")
	}

	// Unknown dependency.
	wf2 := New("dangling")
	wf2.AddStep(Step{Name: "a", Invocation: inv, Operation: "count",
		Inputs: map[string]Source{"words": Output("ghost", "return", []string(nil))}})
	if _, err := wf2.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("dangling dep: %v", err)
	}

	// Cycle.
	wf3 := New("cycle")
	wf3.AddStep(Step{Name: "a", Invocation: inv, Operation: "count",
		Inputs: map[string]Source{}, After: []string{"b"}})
	wf3.AddStep(Step{Name: "b", Invocation: inv, Operation: "count",
		Inputs: map[string]Source{}, After: []string{"a"}})
	if _, err := wf3.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle: %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	r := newRig(t)
	slow := engine.ServiceDef{
		Name: "Slow",
		Operations: []engine.OperationDef{{
			Name: "sleep",
			Func: func(ctx context.Context) (string, error) {
				select {
				case <-time.After(5 * time.Second):
					return "done", nil
				case <-ctx.Done():
					return "", ctx.Err()
				}
			},
		}},
	}
	wf := New("cancelled")
	wf.AddStep(Step{Name: "sleep", Invocation: r.host(slow), Operation: "sleep", Inputs: map[string]Source{}})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := wf.Run(ctx)
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("cancellation not honoured promptly")
	}
}

func TestFanOutRespectsSchedulerBound(t *testing.T) {
	r := newRig(t)
	r.peer.Client().ConfigureScheduler(core.SchedulerOptions{MaxConcurrent: 2, MaxQueue: 64})

	var inFlight, peak int64
	var mu sync.Mutex
	gauge := engine.ServiceDef{
		Name: "Gauge",
		Operations: []engine.OperationDef{{
			Name: "tick",
			Func: func() string {
				mu.Lock()
				inFlight++
				if inFlight > peak {
					peak = inFlight
				}
				mu.Unlock()
				time.Sleep(20 * time.Millisecond)
				mu.Lock()
				inFlight--
				mu.Unlock()
				return "ok"
			},
		}},
	}
	inv := r.host(gauge)
	wf := New("wide")
	for _, name := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		wf.AddStep(Step{Name: name, Invocation: inv, Operation: "tick", Inputs: map[string]Source{}})
	}
	if _, err := wf.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if peak > 2 {
		t.Fatalf("peak concurrency = %d, scheduler bound is 2", peak)
	}
	if peak < 1 {
		t.Fatalf("no step ran")
	}
}

func TestFanOutShedsWhenSchedulerSaturated(t *testing.T) {
	r := newRig(t)
	r.peer.Client().ConfigureScheduler(core.SchedulerOptions{MaxConcurrent: 1, MaxQueue: 1})

	// The held step unblocks when the run is cancelled (by the shed
	// error) so Run can drain; a hard block would deadlock wg.Wait.
	block := make(chan struct{})
	slow := engine.ServiceDef{
		Name: "Block",
		Operations: []engine.OperationDef{{
			Name: "hold",
			Func: func(ctx context.Context) (string, error) {
				select {
				case <-block:
					return "ok", nil
				case <-ctx.Done():
					return "", ctx.Err()
				}
			},
		}},
	}
	inv := r.host(slow)
	wf := New("stampede")
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		wf.AddStep(Step{Name: name, Invocation: inv, Operation: "hold", Inputs: map[string]Source{}})
	}
	_, err := wf.Run(context.Background())
	close(block)
	if err == nil {
		t.Fatal("saturated fan-out succeeded")
	}
	if _, ok := resilience.AsOverload(err); !ok {
		t.Fatalf("err = %v, want *resilience.OverloadError", err)
	}
}

func TestFromFuncAndResultAccess(t *testing.T) {
	r := newRig(t)
	wf := New("fn")
	wf.AddStep(Step{
		Name: "count", Invocation: r.host(countService()), Operation: "count",
		Inputs: map[string]Source{"words": FromFunc(func() (interface{}, error) {
			return []string{"a", "b"}, nil
		})},
	})
	res, err := wf.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Result("count") == nil {
		t.Fatal("Result accessor")
	}
	if res.Result("missing") != nil {
		t.Fatal("missing step result")
	}
	if err := res.Decode("missing", "x", new(int64)); err == nil {
		t.Fatal("decode of missing step")
	}
}
