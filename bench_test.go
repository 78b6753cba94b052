package wspeer_test

// Microbenchmarks of the paths the paper's claims exercise (E1-E4, E8-E10
// in DESIGN.md's index), for `go test -bench` while working. The claims
// themselves are asserted in claims_test.go; the system's numbers come from
// the benchmark in bench/.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"wspeer"
	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/flow"
	"wspeer/internal/httpd"
	"wspeer/internal/p2ps"
	"wspeer/internal/pipeline"
	"wspeer/internal/query"
	"wspeer/internal/soap"
	"wspeer/internal/transport"
	"wspeer/internal/wsdl"
	"wspeer/internal/xmlutil"
)

func benchEchoDef(name string) wspeer.ServiceDef {
	return wspeer.ServiceDef{
		Name: name,
		Operations: []wspeer.OperationDef{{
			Name:       "echo",
			Func:       func(s string) string { return s },
			ParamNames: []string{"msg"},
		}},
	}
}

// BenchmarkEventPropagation (E1): cost of one event through the interface
// tree to a registered listener.
func BenchmarkEventPropagation(b *testing.B) {
	peer := wspeer.NewPeer()
	var sink int
	peer.AddListener(wspeer.ListenerFuncs{Server: func(e wspeer.ServerMessageEvent) { sink++ }})
	req := &transport.Request{Body: []byte("x")}
	resp := &transport.Response{Body: []byte("y")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peer.FireServerMessage("Svc", req, resp)
	}
	if sink != b.N {
		b.Fatalf("delivered %d of %d", sink, b.N)
	}
}

// BenchmarkHTTPLifecycle (E2): the full Fig. 3 cycle — deploy, publish,
// locate, invoke, undeploy — over real HTTP and a live registry.
func BenchmarkHTTPLifecycle(b *testing.B) {
	registryHost := httpd.New(engine.New(), httpd.Options{})
	defer registryHost.Close()
	registryURL, err := registryHost.Deploy(wspeer.UDDIServiceDef(wspeer.NewUDDIRegistry()))
	if err != nil {
		b.Fatal(err)
	}
	peer := wspeer.NewPeer()
	binding, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{UDDIEndpoint: registryURL})
	if err != nil {
		b.Fatal(err)
	}
	defer binding.Close()
	binding.Attach(peer)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("Echo%d", i)
		if _, err := peer.Server().DeployAndPublish(ctx, benchEchoDef(name)); err != nil {
			b.Fatal(err)
		}
		info, err := peer.Client().LocateOne(ctx, wspeer.NameQuery{Name: name})
		if err != nil {
			b.Fatal(err)
		}
		inv, err := peer.Client().NewInvocation(info)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := inv.Invoke(ctx, "echo", wspeer.P("msg", "x")); err != nil {
			b.Fatal(err)
		}
		if err := peer.Server().Undeploy(ctx, name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTTPInvoke (E2): steady-state invocation over real HTTP.
func BenchmarkHTTPInvoke(b *testing.B) {
	peer := wspeer.NewPeer()
	binding, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer binding.Close()
	binding.Attach(peer)
	dep, err := peer.Server().Deploy(benchEchoDef("Echo"))
	if err != nil {
		b.Fatal(err)
	}
	inv, err := peer.Client().NewInvocation(&wspeer.ServiceInfo{
		Name: "Echo", Endpoint: dep.Endpoint, Definitions: dep.Definitions,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inv.Invoke(ctx, "echo", wspeer.P("msg", "x")); err != nil {
			b.Fatal(err)
		}
	}
}

// p2psBenchRig builds a provider+consumer pair on an in-process overlay.
func p2psBenchRig(b *testing.B) (provider, consumer *wspeer.Peer, cleanup func()) {
	b.Helper()
	overlay := p2ps.NewLocalNetwork()
	rdv, err := p2ps.NewPeer(p2ps.Config{Transport: overlay.NewEndpoint(), Rendezvous: true})
	if err != nil {
		b.Fatal(err)
	}
	var closers []func()
	closers = append(closers, func() { rdv.Close() })
	mk := func() *wspeer.Peer {
		node, err := p2ps.NewPeer(p2ps.Config{Transport: overlay.NewEndpoint(), Seeds: []string{rdv.Addr()}})
		if err != nil {
			b.Fatal(err)
		}
		closers = append(closers, func() { node.Close() })
		bind, err := wspeer.NewP2PSBinding(wspeer.P2PSOptions{Peer: node, DiscoveryTimeout: 100 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		p := wspeer.NewPeer()
		bind.Attach(p)
		return p
	}
	provider, consumer = mk(), mk()
	return provider, consumer, func() {
		for _, c := range closers {
			c()
		}
	}
}

func locateP2PS(b *testing.B, consumer *wspeer.Peer, name string) *wspeer.ServiceInfo {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		info, err := consumer.Client().LocateOne(context.Background(), wspeer.NameQuery{Name: name})
		if err == nil {
			return info
		}
	}
	b.Fatalf("service %q never became locatable", name)
	return nil
}

// BenchmarkP2PSLifecycle (E3): deploy+publish+undeploy over the P2PS
// binding (locate is excluded here — its latency is the discovery timeout
// by construction; see BenchmarkP2PSInvoke for the data path).
func BenchmarkP2PSLifecycle(b *testing.B) {
	provider, _, cleanup := p2psBenchRig(b)
	defer cleanup()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("Echo%d", i)
		if _, err := provider.Server().DeployAndPublish(ctx, benchEchoDef(name)); err != nil {
			b.Fatal(err)
		}
		if err := provider.Server().Undeploy(ctx, name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkP2PSInvoke (E3/E4): steady-state request/response over
// unidirectional pipes with WS-Addressing correlation.
func BenchmarkP2PSInvoke(b *testing.B) {
	provider, consumer, cleanup := p2psBenchRig(b)
	defer cleanup()
	ctx := context.Background()
	if _, err := provider.Server().DeployAndPublish(ctx, benchEchoDef("Echo")); err != nil {
		b.Fatal(err)
	}
	info := locateP2PS(b, consumer, "Echo")
	inv, err := consumer.Client().NewInvocation(info)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inv.Invoke(ctx, "echo", wspeer.P("msg", "x")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStubGeneration (E8): dynamic request construction straight to
// bytes, over pre-parsed definitions.
func BenchmarkStubGeneration(b *testing.B) {
	e := engine.New()
	svc, err := e.Deploy(engine.ServiceDef{
		Name: "Echo",
		Operations: []engine.OperationDef{{
			Name: "echo", Func: func(s string) string { return s }, ParamNames: []string{"msg"},
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defs, err := svc.WSDL(wsdl.TransportHTTP, "http://h/Echo")
	if err != nil {
		b.Fatal(err)
	}
	stub := engine.NewStub(defs, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := stub.BuildRequest("echo", engine.P("msg", "hello")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicVsStatic (E8): the naive per-call WSDL reparse baseline,
// for comparison against BenchmarkStubGeneration.
func BenchmarkDynamicVsStatic(b *testing.B) {
	e := engine.New()
	svc, err := e.Deploy(engine.ServiceDef{
		Name: "Echo",
		Operations: []engine.OperationDef{{
			Name: "echo", Func: func(s string) string { return s }, ParamNames: []string{"msg"},
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defs, err := svc.WSDL(wsdl.TransportHTTP, "http://h/Echo")
	if err != nil {
		b.Fatal(err)
	}
	raw, err := defs.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := wsdl.Parse(raw)
		if err != nil {
			b.Fatal(err)
		}
		stub := engine.NewStub(d, nil)
		if _, _, err := stub.BuildRequest("echo", engine.P("msg", "hello")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLazyDeploy (E9): host creation + lazy listener launch + first
// deployment, per iteration.
func BenchmarkLazyDeploy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := httpd.New(engine.New(), httpd.Options{})
		if _, err := h.Deploy(engine.ServiceDef{
			Name: "Echo",
			Operations: []engine.OperationDef{{
				Name: "echo", Func: func(s string) string { return s },
			}},
		}); err != nil {
			b.Fatal(err)
		}
		h.Close()
	}
}

// BenchmarkStatefulService (E10): invocation of an operation bound to a
// live object, over the in-memory transport.
func BenchmarkStatefulService(b *testing.B) {
	type counter struct {
		mu sync.Mutex
		n  int64
	}
	c := &counter{}
	eng := engine.New()
	def := engine.ServiceDef{
		Name: "Counter",
		Operations: []engine.OperationDef{{
			Name: "inc",
			Func: func() int64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				c.n++
				return c.n
			},
		}},
	}
	svc, err := eng.Deploy(def)
	if err != nil {
		b.Fatal(err)
	}
	net := transport.NewInMemNetwork()
	net.Register("mem://h/Counter", eng.Handler("Counter"))
	defs, err := svc.WSDL("urn:mem", "mem://h/Counter")
	if err != nil {
		b.Fatal(err)
	}
	reg := transport.NewRegistry()
	reg.Register(net.Transport())
	stub := engine.NewStub(defs, reg)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stub.Invoke(ctx, "inc"); err != nil {
			b.Fatal(err)
		}
	}
	if c.n != int64(b.N) {
		b.Fatalf("state = %d, want %d", c.n, b.N)
	}
}

// BenchmarkEngineDispatch: the server-side hot path alone (parse +
// dispatch + encode), no transport.
func BenchmarkEngineDispatch(b *testing.B) {
	eng := engine.New()
	if _, err := eng.Deploy(engine.ServiceDef{
		Name: "Echo",
		Operations: []engine.OperationDef{{
			Name: "echo", Func: func(s string) string { return s }, ParamNames: []string{"msg"},
		}},
	}); err != nil {
		b.Fatal(err)
	}
	svc := eng.Service("Echo")
	defs, err := svc.WSDL(wsdl.TransportHTTP, "http://h/Echo")
	if err != nil {
		b.Fatal(err)
	}
	stub := engine.NewStub(defs, nil)
	req, _, err := stub.BuildRequest("echo", engine.P("msg", "hello"))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := eng.ServeRequest(ctx, "Echo", req)
		if err != nil || resp.Faulted {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueuedListener: event delivery through the decoupling queue.
func BenchmarkQueuedListener(b *testing.B) {
	var sink int64
	var mu sync.Mutex
	inner := core.ListenerFuncs{Server: func(core.ServerMessageEvent) {
		mu.Lock()
		sink++
		mu.Unlock()
	}}
	q := core.NewQueuedListener(inner, 1024)
	defer q.Close()
	peer := core.NewPeer()
	peer.AddListener(q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peer.FireServerMessage("S", nil, nil)
	}
}

// BenchmarkQueryCompile: compiling a representative rich query expression.
func BenchmarkQueryCompile(b *testing.B) {
	const src = `name like 'Echo*' and (attr(kind) = 'echo' or attr(price) < 0.5) and not attr(deprecated) = 'true'`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := query.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryEval: evaluating a compiled expression against a subject.
func BenchmarkQueryEval(b *testing.B) {
	e := query.MustCompile(`name like 'Echo*' and attr(kind) = 'echo' and attr(price) < 0.5`)
	s := &query.Subject{
		Name:  "EchoService",
		Attrs: map[string]string{"kind": "echo", "price": "0.25"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !e.Matches(s) {
			b.Fatal("no match")
		}
	}
}

// BenchmarkEnvelopeMarshal: envelope rendering alone through the pooled
// XML writer — the serialization leg of every invocation and dispatch.
func BenchmarkEnvelopeMarshal(b *testing.B) {
	env := soap.NewEnvelope()
	body := xmlutil.NewElement(xmlutil.N("urn:bench", "echo"))
	body.NewChild(xmlutil.N("urn:bench", "msg")).SetText("hello world")
	env.AddBodyElement(body)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(env.Marshal()) == 0 {
			b.Fatal("empty envelope")
		}
	}
}

// BenchmarkSOAP12RoundTrip: marshal+parse of a SOAP 1.2 envelope.
func BenchmarkSOAP12RoundTrip(b *testing.B) {
	env := soap.NewEnvelopeV(soap.SOAP12)
	body := xmlutil.NewElement(xmlutil.N("urn:bench", "op"))
	body.NewChild(xmlutil.N("urn:bench", "p")).SetText("value")
	env.AddBodyElement(body)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := soap.Parse(env.Marshal()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkflowRun: a three-stage linear workflow over the in-memory
// transport per iteration.
func BenchmarkWorkflowRun(b *testing.B) {
	peer := core.NewPeer()
	net := transport.NewInMemNetwork()
	reg := transport.NewRegistry()
	reg.Register(net.Transport())
	peer.Client().RegisterInvoker(benchMemInvoker{reg: reg})

	host := func(def engine.ServiceDef) *core.Invocation {
		eng := engine.New()
		svc, err := eng.Deploy(def)
		if err != nil {
			b.Fatal(err)
		}
		addr := "mem://h/" + def.Name
		net.Register(addr, eng.Handler(def.Name))
		defs, err := svc.WSDL(wsdl.TransportHTTP, addr)
		if err != nil {
			b.Fatal(err)
		}
		inv, err := peer.Client().NewInvocation(&core.ServiceInfo{Name: def.Name, Endpoint: addr, Definitions: defs})
		if err != nil {
			b.Fatal(err)
		}
		return inv
	}
	stage := func(name string) engine.ServiceDef {
		return engine.ServiceDef{
			Name: name,
			Operations: []engine.OperationDef{{
				Name: "next", Func: func(n int64) int64 { return n + 1 }, ParamNames: []string{"n"},
			}},
		}
	}
	a, bb, c := host(stage("A")), host(stage("B")), host(stage("C"))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wf := flow.New("bench")
		wf.AddStep(flow.Step{Name: "a", Invocation: a, Operation: "next",
			Inputs: map[string]flow.Source{"n": flow.Const(int64(0))}})
		wf.AddStep(flow.Step{Name: "b", Invocation: bb, Operation: "next",
			Inputs: map[string]flow.Source{"n": flow.Output("a", "return", int64(0))}})
		wf.AddStep(flow.Step{Name: "c", Invocation: c, Operation: "next",
			Inputs: map[string]flow.Source{"n": flow.Output("b", "return", int64(0))}})
		res, err := wf.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		var n int64
		if err := res.Decode("c", "return", &n); err != nil || n != 3 {
			b.Fatalf("n = %d, %v", n, err)
		}
	}
}

type benchMemInvoker struct{ reg *transport.Registry }

func (i benchMemInvoker) Schemes() []string { return []string{"mem"} }
func (i benchMemInvoker) Invoke(c *pipeline.Call, svc *core.ServiceInfo, op string, params []engine.Param) (*engine.Result, error) {
	stub := engine.NewStub(svc.Definitions, i.reg)
	stub.EndpointOverride = svc.Endpoint
	return stub.Invoke(c.Ctx, op, params...)
}

// BenchmarkPipelineOverhead: per-call cost of the unified call pipeline.
// "bare" is a direct in-memory transport call; "stack" pushes the same
// call through the full stock interceptor set (Events + Deadline +
// Retry), so the delta is the pipeline's overhead.
func BenchmarkPipelineOverhead(b *testing.B) {
	net := transport.NewInMemNetwork()
	net.Register("mem://h/Echo", transport.HandlerFunc(func(ctx context.Context, req *transport.Request) (*transport.Response, error) {
		return &transport.Response{Body: req.Body}, nil
	}))
	tr := net.Transport()
	ctx := context.Background()
	body := []byte("<echo/>")
	terminal := func(c *pipeline.Call) error {
		resp, err := tr.Call(c.Ctx, c.Request)
		if err != nil {
			return err
		}
		c.Response = resp
		return nil
	}

	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req := &transport.Request{Endpoint: "mem://h/Echo", Body: body}
			if _, err := tr.Call(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("stack", func(b *testing.B) {
		chain := pipeline.NewChain(
			pipeline.Events(func(c *pipeline.Call) {}),
			pipeline.Deadline(time.Minute),
			pipeline.Retry(pipeline.RetryOptions{}),
		)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := &pipeline.Call{
				Ctx:     ctx,
				Dir:     pipeline.ClientCall,
				Service: "Echo",
				Request: &transport.Request{Endpoint: "mem://h/Echo", Body: body},
			}
			if err := chain.Run(c, terminal); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Throughput benchmarks (E12): resolution cache and bounded scheduler.

// uddiBenchRig publishes one echo service in a live UDDI-over-HTTP
// registry and returns a peer whose locator discovers it.
func uddiBenchRig(b *testing.B) (*wspeer.Peer, func()) {
	b.Helper()
	registryHost := httpd.New(engine.New(), httpd.Options{})
	registryURL, err := registryHost.Deploy(wspeer.UDDIServiceDef(wspeer.NewUDDIRegistry()))
	if err != nil {
		registryHost.Close()
		b.Fatal(err)
	}
	peer := wspeer.NewPeer()
	binding, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{UDDIEndpoint: registryURL})
	if err != nil {
		registryHost.Close()
		b.Fatal(err)
	}
	binding.Attach(peer)
	if _, err := peer.Server().DeployAndPublish(context.Background(), benchEchoDef("Echo")); err != nil {
		binding.Close()
		registryHost.Close()
		b.Fatal(err)
	}
	return peer, func() {
		binding.Close()
		registryHost.Close()
	}
}

// BenchmarkLocateUncached (E12): every resolution is a live UDDI inquiry
// over HTTP — the cost LocateCached amortizes away.
func BenchmarkLocateUncached(b *testing.B) {
	peer, cleanup := uddiBenchRig(b)
	defer cleanup()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		infos, err := peer.Client().Locate(ctx, wspeer.NameQuery{Name: "Echo"})
		if err != nil || len(infos) == 0 {
			b.Fatalf("locate: %v %v", infos, err)
		}
	}
}

// BenchmarkLocateCached (E12): repeated resolution of the same query
// through the per-client resolution cache.
func BenchmarkLocateCached(b *testing.B) {
	peer, cleanup := uddiBenchRig(b)
	defer cleanup()
	ctx := context.Background()
	// Long TTL: this measures the steady-state hit, not refresh churn.
	peer.Client().ConfigureResolutionCache(wspeer.ResolutionCacheOptions{TTL: time.Hour})
	if _, err := peer.Client().LocateCached(ctx, wspeer.NameQuery{Name: "Echo"}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		infos, err := peer.Client().LocateCached(ctx, wspeer.NameQuery{Name: "Echo"})
		if err != nil || len(infos) == 0 {
			b.Fatalf("locate: %v %v", infos, err)
		}
	}
}

// invokeManyRig deploys one HTTP echo service and fans a burst of
// invocation targets at it. serviceTime > 0 adds simulated work per call
// — the latency-bound regime (a remote peer across a network) where a
// concurrent scatter pays off even on one CPU.
func invokeManyRig(b *testing.B, burst int, serviceTime time.Duration) (*wspeer.Peer, []*wspeer.ServiceInfo, func()) {
	b.Helper()
	peer := wspeer.NewPeer()
	binding, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{})
	if err != nil {
		b.Fatal(err)
	}
	binding.Attach(peer)
	def := benchEchoDef("Echo")
	if serviceTime > 0 {
		def.Operations[0].Func = func(s string) string {
			time.Sleep(serviceTime)
			return s
		}
	}
	dep, err := peer.Server().Deploy(def)
	if err != nil {
		binding.Close()
		b.Fatal(err)
	}
	svcs := make([]*wspeer.ServiceInfo, burst)
	for i := range svcs {
		svcs[i] = &wspeer.ServiceInfo{Name: "Echo", Endpoint: dep.Endpoint, Definitions: dep.Definitions}
	}
	return peer, svcs, func() { binding.Close() }
}

func benchInvokeSequential(b *testing.B, serviceTime time.Duration) {
	peer, svcs, cleanup := invokeManyRig(b, 100, serviceTime)
	defer cleanup()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, svc := range svcs {
			inv, err := peer.Client().NewInvocation(svc)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := inv.Invoke(ctx, "echo", wspeer.P("msg", "x")); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchInvokeMany(b *testing.B, serviceTime time.Duration) {
	peer, svcs, cleanup := invokeManyRig(b, 100, serviceTime)
	defer cleanup()
	peer.Client().ConfigureScheduler(wspeer.SchedulerOptions{MaxConcurrent: 32, MaxQueue: 256})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := peer.Client().InvokeMany(ctx, svcs, "echo", []wspeer.Param{wspeer.P("msg", "x")})
		for _, r := range out {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkInvokeSequential100 (E12): the baseline a scatter is judged
// against — 100 loopback calls, one at a time, one goroutine.
func BenchmarkInvokeSequential100(b *testing.B) { benchInvokeSequential(b, 0) }

// BenchmarkInvokeMany100 (E12): the same 100 loopback calls as one
// scatter-gather burst on the bounded scheduler. Loopback echo is pure
// CPU, so this measures scheduler overhead, not concurrency win.
func BenchmarkInvokeMany100(b *testing.B) { benchInvokeMany(b, 0) }

// BenchmarkInvokeSequential100Latency (E12): 100 sequential calls against
// a service with 1ms simulated service time — the remote-peer regime.
func BenchmarkInvokeSequential100Latency(b *testing.B) { benchInvokeSequential(b, time.Millisecond) }

// BenchmarkInvokeMany100Latency (E12): the same latency-bound burst
// scattered on the scheduler; waits overlap, so the burst approaches
// burst/MaxConcurrent service times instead of burst of them.
func BenchmarkInvokeMany100Latency(b *testing.B) { benchInvokeMany(b, time.Millisecond) }
