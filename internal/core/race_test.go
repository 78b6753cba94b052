package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"wspeer/internal/engine"
	"wspeer/internal/exchange"
	"wspeer/internal/pipeline"
	"wspeer/internal/transport"
	"wspeer/internal/wsaddr"
)

// The tests in this file exist to be run under -race (make check): they
// assert very little beyond "no panic, no deadlock" and instead drive the
// peer's concurrent seams hard — deploy/undeploy racing in-flight
// invocations, and listener churn racing event delivery.

// raceDeployer is a fully mutex-protected ServiceDeployer fake, safe for
// concurrent Deploy/Undeploy from many goroutines.
type raceDeployer struct {
	mu       sync.Mutex
	deployed map[string]bool
}

func (d *raceDeployer) Name() string { return "race" }

func (d *raceDeployer) Deploy(def engine.ServiceDef) (*Deployment, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.deployed == nil {
		d.deployed = make(map[string]bool)
	}
	d.deployed[def.Name] = true
	return &Deployment{Endpoint: "mem://host/" + def.Name, Service: mustService(def)}, nil
}

func (d *raceDeployer) Undeploy(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.deployed[name] {
		return fmt.Errorf("race: %q not deployed", name)
	}
	delete(d.deployed, name)
	return nil
}

// slowInvoker holds every call for a moment so invocations are genuinely
// in flight while deploy/undeploy churn runs.
type slowInvoker struct{}

func (slowInvoker) Schemes() []string { return []string{"mem"} }
func (slowInvoker) Invoke(c *pipeline.Call, svc *ServiceInfo, op string, params []engine.Param) (*engine.Result, error) {
	select {
	case <-time.After(100 * time.Microsecond):
	case <-c.Ctx.Done():
		return nil, c.Ctx.Err()
	}
	return &engine.Result{}, nil
}

func TestConcurrentDeployUndeployWithInFlightInvocations(t *testing.T) {
	p := NewPeer()
	p.Server().SetDeployer(&raceDeployer{})
	p.Server().AddPublisher(&fakePublisher{name: "pub"})
	p.Client().RegisterInvoker(slowInvoker{})
	p.AddListener(&recorder{}) // events must be deliverable throughout

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const (
		churners = 4
		invokers = 4
		rounds   = 50
	)
	var wg sync.WaitGroup

	// Deploy/undeploy churn, each goroutine on its own service name so
	// every undeploy targets a live deployment.
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("Svc%d", g)
			def := engine.ServiceDef{
				Name: name,
				Operations: []engine.OperationDef{
					{Name: "echo", Func: func(s string) string { return s }},
				},
			}
			for i := 0; i < rounds; i++ {
				if _, err := p.Server().DeployAndPublish(ctx, def); err != nil {
					t.Errorf("deploy %s: %v", name, err)
					return
				}
				if err := p.Server().Undeploy(ctx, name); err != nil {
					t.Errorf("undeploy %s: %v", name, err)
					return
				}
			}
		}(g)
	}

	// In-flight invocations (with an interceptor being installed midway,
	// racing the per-call chain snapshot).
	for g := 0; g < invokers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			inv, err := p.Client().NewInvocation(&ServiceInfo{Name: "Target", Endpoint: "mem://host/Target"})
			if err != nil {
				t.Errorf("new invocation: %v", err)
				return
			}
			for i := 0; i < rounds; i++ {
				if i == rounds/2 && g == 0 {
					p.Client().Use(pipeline.Deadline(time.Second))
				}
				if _, err := inv.Invoke(ctx, "echo", engine.P("msg", "x")); err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
			}
		}(g)
	}

	wg.Wait()
}

func TestListenerChurnRacesEventDelivery(t *testing.T) {
	p := NewPeer()
	p.Client().RegisterInvoker(slowInvoker{})

	ctx := context.Background()
	stop := make(chan struct{})
	var churn, wg sync.WaitGroup

	// Listener churn: add and remove recorders while events flow.
	for g := 0; g < 3; g++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := &recorder{}
				p.AddListener(rec)
				p.RemoveListener(rec)
			}
		}()
	}

	// A listener present before any event fires must observe all of them,
	// however hard the churn above races the delivery path.
	rec := &recorder{}
	p.AddListener(rec)

	// Client events from invocations, server events fired directly.
	wg.Add(2)
	go func() {
		defer wg.Done()
		inv, err := p.Client().NewInvocation(&ServiceInfo{Name: "E", Endpoint: "mem://h/E"})
		if err != nil {
			t.Errorf("new invocation: %v", err)
			return
		}
		for i := 0; i < 200; i++ {
			if _, err := inv.Invoke(ctx, "op"); err != nil {
				t.Errorf("invoke: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			p.FireServerMessage("E", &transport.Request{}, &transport.Response{})
		}
	}()

	wg.Wait()
	close(stop)
	churn.Wait()

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.server) != 200 {
		t.Fatalf("stable listener saw %d/200 server events", len(rec.server))
	}
	if len(rec.client) != 200 {
		t.Fatalf("stable listener saw %d/200 client events", len(rec.client))
	}
}

// callbackInvoker is slowInvoker plus a reply endpoint nothing ever writes
// to: enough for InvokeCallback to register a pending exchange.
type callbackInvoker struct{ slowInvoker }

func (callbackInvoker) HostReplyEndpoint(func([]byte)) (ReplyEndpoint, error) {
	return idleReplyEndpoint{}, nil
}

type idleReplyEndpoint struct{}

func (idleReplyEndpoint) EPR() *wsaddr.EndpointReference {
	return wsaddr.NewEndpointReference("mem://consumer/callback")
}
func (idleReplyEndpoint) Close() error { return nil }

// TestInvokeLeavesExchangeStateAlone: plain Invoke from many goroutines
// never touches the client's exchange state; the correlation table is
// built by the first InvokeCallback, with the default bounds.
func TestInvokeLeavesExchangeStateAlone(t *testing.T) {
	p := NewPeer()
	p.Client().RegisterInvoker(callbackInvoker{})
	inv, err := p.Client().NewInvocation(&ServiceInfo{Name: "Target", Endpoint: "mem://host/Target"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := inv.Invoke(ctx, "echo", engine.P("msg", "x")); err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if p.Client().exch.table != nil {
		t.Fatal("plain Invoke built the correlation table")
	}

	pending, err := inv.InvokeCallback(ctx, "echo", engine.P("msg", "x"))
	if err != nil {
		t.Fatal(err)
	}
	table := p.Client().exch.table
	if table == nil || p.Client().ExchangeStats().Inflight != 1 {
		t.Fatalf("InvokeCallback did not register in a fresh table: %+v", p.Client().ExchangeStats())
	}
	// Default capacity: 4096 pending exchanges, the next one shed.
	for i := 1; i < 4096; i++ {
		if _, err := table.Register(fmt.Sprintf("urn:fill:%d", i), time.Minute); err != nil {
			t.Fatalf("registration %d of 4096: %v", i+1, err)
		}
	}
	if _, err := table.Register("urn:over", time.Minute); !errors.Is(err, exchange.ErrTableFull) {
		t.Fatalf("registration 4097: %v, want ErrTableFull", err)
	}
	if err := p.Client().CloseExchange(); err != nil {
		t.Fatal(err)
	}
	if _, err := pending.Wait(ctx); !errors.Is(err, exchange.ErrClosed) {
		t.Fatalf("pending reply after CloseExchange: %v, want ErrClosed", err)
	}
}
