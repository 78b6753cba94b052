package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"wspeer/internal/pipeline"
	"wspeer/internal/soap"
	"wspeer/internal/transport"
	"wspeer/internal/wsdl"
	"wspeer/internal/xmlutil"
)

// Coordinates is a typed parameter exercised end to end.
type Coordinates struct {
	Lat float64
	Lon float64
}

func echoDef() ServiceDef {
	return ServiceDef{
		Name: "Echo",
		Operations: []OperationDef{
			{
				Name:       "echoString",
				Func:       func(msg string) string { return msg },
				ParamNames: []string{"msg"},
				Doc:        "echoes its input",
			},
			{
				Name: "add",
				Func: func(ctx context.Context, a, b int64) (int64, error) {
					if ctx == nil {
						return 0, errors.New("no context")
					}
					return a + b, nil
				},
				ParamNames: []string{"a", "b"},
			},
			{
				Name: "locate",
				Func: func(name string) (Coordinates, error) {
					if name == "" {
						return Coordinates{}, errors.New("empty name")
					}
					return Coordinates{Lat: 51.48, Lon: -3.18}, nil
				},
			},
			{
				Name:   "fireAndForget",
				Func:   func(event string) error { return nil },
				OneWay: true,
			},
			{
				Name: "panics",
				Func: func() string { panic("kaboom") },
			},
			{
				Name: "divide",
				Func: func(a, b float64) (float64, float64, error) {
					if b == 0 {
						return 0, 0, soap.NewFault(soap.FaultClient, "division by zero")
					}
					return a / b, 0, nil
				},
				ResultNames: []string{"quotient", "remainder"},
			},
		},
	}
}

// harness wires an engine-backed Echo service to an in-memory network and
// returns a stub built from the generated-and-reparsed WSDL, exactly as a
// remote consumer would see it.
func harness(t *testing.T) (*Engine, *Stub, *transport.InMemNetwork) {
	t.Helper()
	e := New()
	svc, err := e.Deploy(echoDef())
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInMemNetwork()
	const addr = "mem://host/services/Echo"
	net.Register(addr, e.Handler("Echo"))

	defs, err := svc.WSDL(wsdl.TransportHTTP, addr)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := defs.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := wsdl.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	reg := transport.NewRegistry()
	reg.Register(net.Transport())
	return e, NewStub(parsed, reg), net
}

func TestEndToEndEcho(t *testing.T) {
	_, stub, _ := harness(t)
	res, err := stub.Invoke(context.Background(), "echoString", P("msg", "hello wspeer"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.String("return")
	if err != nil || got != "hello wspeer" {
		t.Fatalf("echo = %q, %v", got, err)
	}
}

func TestEndToEndTypedAndContext(t *testing.T) {
	_, stub, _ := harness(t)
	res, err := stub.Invoke(context.Background(), "add", P("a", int64(40)), P("b", int64(2)))
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	if err := res.Decode("return", &sum); err != nil || sum != 42 {
		t.Fatalf("add = %d, %v", sum, err)
	}

	res, err = stub.Invoke(context.Background(), "locate", P("in0", "cardiff"))
	if err != nil {
		t.Fatal(err)
	}
	var c Coordinates
	if err := res.Decode("return", &c); err != nil || c.Lat != 51.48 || c.Lon != -3.18 {
		t.Fatalf("locate = %+v, %v", c, err)
	}
}

func TestEndToEndMultipleResults(t *testing.T) {
	_, stub, _ := harness(t)
	res, err := stub.Invoke(context.Background(), "divide", P("in0", 10.0), P("in1", 4.0))
	if err != nil {
		t.Fatal(err)
	}
	var q, r float64
	if err := res.Decode("quotient", &q); err != nil || q != 2.5 {
		t.Fatalf("quotient = %v, %v", q, err)
	}
	if err := res.Decode("remainder", &r); err != nil || r != 0 {
		t.Fatalf("remainder = %v, %v", r, err)
	}
}

func TestEndToEndFaults(t *testing.T) {
	_, stub, _ := harness(t)

	// Application error becomes a Server fault.
	_, err := stub.Invoke(context.Background(), "locate", P("in0", ""))
	var f *soap.Fault
	if !errors.As(err, &f) || f.Code != soap.FaultServer {
		t.Fatalf("want Server fault, got %v", err)
	}
	if !strings.Contains(f.String, "empty name") {
		t.Fatalf("fault string: %q", f.String)
	}

	// An explicit *soap.Fault passes through with its own code.
	_, err = stub.Invoke(context.Background(), "divide", P("in0", 1.0), P("in1", 0.0))
	if !errors.As(err, &f) || !f.IsClient() {
		t.Fatalf("want Client fault, got %v", err)
	}

	// Panics are contained as Server faults.
	_, err = stub.Invoke(context.Background(), "panics")
	if !errors.As(err, &f) || !strings.Contains(f.String, "kaboom") {
		t.Fatalf("panic fault: %v", err)
	}
}

func TestEndToEndOneWay(t *testing.T) {
	_, stub, net := harness(t)
	res, err := stub.Invoke(context.Background(), "fireAndForget", P("in0", "tick"))
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("one-way produced a result: %+v", res)
	}
	if net.Calls() != 1 {
		t.Fatalf("calls = %d", net.Calls())
	}
}

func TestDispatchMalformedAndUnknown(t *testing.T) {
	e := New()
	if _, err := e.Deploy(echoDef()); err != nil {
		t.Fatal(err)
	}
	serve := func(body string) *soap.Envelope {
		resp, err := e.ServeRequest(context.Background(), "Echo", &transport.Request{Body: []byte(body)})
		if err != nil {
			t.Fatalf("transport error: %v", err)
		}
		env, err := soap.Parse(resp.Body)
		if err != nil {
			t.Fatalf("unparseable response: %v", err)
		}
		return env
	}

	env := serve("garbage")
	if !env.IsFault() || env.Fault().Code != soap.FaultClient {
		t.Fatalf("garbage: %+v", env.Fault())
	}

	// SOAP 1.2 is understood; an empty 1.2 body is a (1.2) Client fault.
	env = serve(`<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope"><env:Body/></env:Envelope>`)
	if !env.IsFault() || !env.Fault().IsClient() {
		t.Fatalf("soap12 empty body: %+v", env.Fault())
	}
	if env.Version() != soap.SOAP12 {
		t.Fatalf("response version = %v, want 1.2", env.Version())
	}

	// A genuinely unknown envelope version is a VersionMismatch fault.
	env = serve(`<env:Envelope xmlns:env="urn:future-soap"><env:Body/></env:Envelope>`)
	if !env.IsFault() || env.Fault().Code != soap.FaultVersionMismatch {
		t.Fatalf("unknown version: %+v", env.Fault())
	}

	empty := soap.NewEnvelope()
	empty.AddBodyElement(xmlutil.NewElement(xmlutil.N("urn:x", "noSuchOp")))
	env = serve(string(empty.Marshal()))
	if !env.IsFault() || !strings.Contains(env.Fault().String, "noSuchOp") {
		t.Fatalf("unknown op: %+v", env.Fault())
	}

	// Unknown service.
	resp, err := e.ServeRequest(context.Background(), "Nope", &transport.Request{Body: empty.Marshal()})
	if err != nil {
		t.Fatal(err)
	}
	env, _ = soap.Parse(resp.Body)
	if !env.IsFault() {
		t.Fatal("unknown service must fault")
	}

	// Empty body.
	noBody := soap.NewEnvelope()
	noBody.AddBodyElement(xmlutil.NewElement(xmlutil.N("urn:x", "z")))
	noBody2 := `<soapenv:Envelope xmlns:soapenv="` + soap.Namespace + `"><soapenv:Body/></soapenv:Envelope>`
	env = serve(noBody2)
	if !env.IsFault() {
		t.Fatal("empty body must fault")
	}
}

func TestMustUnderstand(t *testing.T) {
	e := New()
	if _, err := e.Deploy(echoDef()); err != nil {
		t.Fatal(err)
	}
	build := func() *soap.Envelope {
		env := soap.NewEnvelope()
		h := xmlutil.NewElement(xmlutil.N("urn:ext", "Security"))
		soap.SetMustUnderstand(h)
		env.AddHeader(h)
		wrapper := xmlutil.NewElement(xmlutil.N(DefaultNamespacePrefix+"Echo", "echoString"))
		wrapper.NewChild(xmlutil.N(DefaultNamespacePrefix+"Echo", "msg")).SetText("x")
		env.AddBodyElement(wrapper)
		return env
	}
	resp, err := e.ServeRequest(context.Background(), "Echo", &transport.Request{Body: build().Marshal()})
	if err != nil {
		t.Fatal(err)
	}
	env, _ := soap.Parse(resp.Body)
	if !env.IsFault() || env.Fault().Code != soap.FaultMustUnderstand {
		t.Fatalf("want MustUnderstand fault, got %+v", env.Fault())
	}

	// After registering the extension namespace the call succeeds.
	e.Understand("urn:ext")
	resp, err = e.ServeRequest(context.Background(), "Echo", &transport.Request{Body: build().Marshal()})
	if err != nil {
		t.Fatal(err)
	}
	env, _ = soap.Parse(resp.Body)
	if env.IsFault() {
		t.Fatalf("understood header still faulted: %+v", env.Fault())
	}
}

// TestHandlerChains: Engine.Use is the server's one extension seam.
// Interceptors run in registration order, outermost first, around the
// parse/dispatch terminal; they share state through the call's meta, see
// the resolved operation and the raw response once the terminal has run,
// and leave faults and one-way answers as the engine produced them.
func TestHandlerChains(t *testing.T) {
	e, stub, _ := harness(t)
	var mu sync.Mutex
	var trace []string
	note := func(s string) {
		mu.Lock()
		defer mu.Unlock()
		trace = append(trace, s)
	}
	e.Use(func(next pipeline.CallFunc) pipeline.CallFunc {
		return func(c *pipeline.Call) error {
			note("outer:in:" + c.Service)
			c.SetMeta("seen", true)
			err := next(c)
			faulted := c.Response != nil && c.Response.Faulted
			note(fmt.Sprintf("outer:out:%s:faulted=%t:bytes=%t", c.Op, faulted, c.Response != nil && len(c.Response.Body) > 0))
			return err
		}
	})
	e.Use(func(next pipeline.CallFunc) pipeline.CallFunc {
		return func(c *pipeline.Call) error {
			if c.GetMeta("seen") != true {
				t.Error("meta not shared along the chain")
			}
			note("inner:in")
			err := next(c)
			note("inner:out")
			return err
		}
	})
	run := func(want ...string) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if strings.Join(trace, " ") != strings.Join(want, " ") {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
		trace = nil
	}
	ctx := context.Background()

	res, err := stub.Invoke(ctx, "echoString", P("msg", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.String("return"); got != "x" {
		t.Fatalf("echo through chain = %q", got)
	}
	run("outer:in:Echo", "inner:in", "inner:out", "outer:out:echoString:faulted=false:bytes=true")

	// A fault is the engine's answer, not an interceptor error: it comes
	// back verbatim, and the interceptors see a faulted response.
	_, err = stub.Invoke(ctx, "divide", P("in0", 1.0), P("in1", 0.0))
	var f *soap.Fault
	if !errors.As(err, &f) || !f.IsClient() || f.String != "division by zero" {
		t.Fatalf("operation fault through chain: %v", err)
	}
	run("outer:in:Echo", "inner:in", "inner:out", "outer:out:divide:faulted=true:bytes=true")

	// A one-way dispatch still answers with the empty response.
	if _, err := stub.Invoke(ctx, "fireAndForget", P("in0", "e")); err != nil {
		t.Fatal(err)
	}
	run("outer:in:Echo", "inner:in", "inner:out", "outer:out:fireAndForget:faulted=false:bytes=false")
}

// TestHandlerChainAbort: an interceptor that refuses the call keeps it from
// the operation, and its error reaches the transport for the host to turn
// into its binding's failure (a SOAP Server fault on HTTP and P2PS; see
// httpd's TestEngineInterceptorError).
func TestHandlerChainAbort(t *testing.T) {
	e, stub, _ := harness(t)
	requests := mEngineRequests.Value()
	e.Use(func(pipeline.CallFunc) pipeline.CallFunc {
		return func(*pipeline.Call) error { return errors.New("denied by policy") }
	})
	_, err := stub.Invoke(context.Background(), "echoString", P("msg", "x"))
	if err == nil || !strings.Contains(err.Error(), "denied by policy") {
		t.Fatalf("chain abort: %v", err)
	}
	if d := mEngineRequests.Value() - requests; d != 0 {
		t.Fatalf("refused call reached dispatch: engine.requests +%d", d)
	}
}

// TestServeRequestAllocs pins the allocation count of the whole server
// side — parse, dispatch, encode, span, call record — on the echo envelope:
// 10, of which the pipeline's frame is the carrier alone.
func TestServeRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	e, stub, _ := harness(t)
	req, _, err := stub.BuildRequest("echoString", P("msg", "hello"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if resp, err := e.ServeRequest(ctx, "Echo", req); err != nil || resp.Faulted {
			t.Fatal(err, resp)
		}
	})
	if allocs > 10 {
		t.Fatalf("ServeRequest of the echo envelope: %.0f allocs, want <= 10", allocs)
	} else {
		t.Logf("%.0f allocations", allocs)
	}
}

func TestDeployValidation(t *testing.T) {
	e := New()
	bad := []ServiceDef{
		{Name: "has space", Operations: []OperationDef{{Name: "x", Func: func() {}}}},
		{Name: "NoOps"},
		{Name: "BadOpName", Operations: []OperationDef{{Name: "9bad", Func: func() {}}}},
		{Name: "NilFunc", Operations: []OperationDef{{Name: "x"}}},
		{Name: "NotFunc", Operations: []OperationDef{{Name: "x", Func: 42}}},
		{Name: "Variadic", Operations: []OperationDef{{Name: "x", Func: func(a ...string) {}}}},
		{Name: "OneWayResult", Operations: []OperationDef{{Name: "x", Func: func() string { return "" }, OneWay: true}}},
		{Name: "DupOp", Operations: []OperationDef{
			{Name: "x", Func: func() {}}, {Name: "x", Func: func() {}},
		}},
		{Name: "BadParam", Operations: []OperationDef{{Name: "x", Func: func(m map[string]int) {}}}},
		{Name: "DupParams", Operations: []OperationDef{{Name: "x", Func: func(a, b string) {}, ParamNames: []string{"p", "p"}}}},
	}
	for _, def := range bad {
		if _, err := e.Deploy(def); err == nil {
			t.Errorf("Deploy(%s) accepted invalid definition", def.Name)
		}
	}

	if _, err := e.Deploy(echoDef()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Deploy(echoDef()); err == nil {
		t.Error("duplicate deployment accepted")
	}
}

func TestUndeployAndListing(t *testing.T) {
	e := New()
	if _, err := e.Deploy(echoDef()); err != nil {
		t.Fatal(err)
	}
	if got := e.Services(); len(got) != 1 || got[0] != "Echo" {
		t.Fatalf("services = %v", got)
	}
	svc := e.Service("Echo")
	if svc == nil || svc.Name() != "Echo" {
		t.Fatal("Service lookup")
	}
	if svc.Namespace() != DefaultNamespacePrefix+"Echo" {
		t.Fatalf("namespace = %q", svc.Namespace())
	}
	ops := svc.Operations()
	if len(ops) != 6 || ops[0] != "echoString" {
		t.Fatalf("ops = %v", ops)
	}
	if !e.Undeploy("Echo") {
		t.Fatal("undeploy failed")
	}
	if e.Undeploy("Echo") {
		t.Fatal("double undeploy succeeded")
	}
	if len(e.Services()) != 0 || e.Service("Echo") != nil {
		t.Fatal("service lingered")
	}
}

// Counter is a stateful object exposed as a service (paper §III point 3).
type Counter struct {
	mu sync.Mutex
	n  int64
}

func (c *Counter) Increment(by int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += by
	return c.n
}

func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func TestFromObjectStatefulService(t *testing.T) {
	counter := &Counter{}
	def, err := FromObject("Counter", counter)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	if _, err := e.Deploy(def); err != nil {
		t.Fatal(err)
	}
	svc := e.Service("Counter")
	net := transport.NewInMemNetwork()
	net.Register("mem://host/Counter", e.Handler("Counter"))
	defs, err := svc.WSDL(wsdl.TransportHTTP, "mem://host/Counter")
	if err != nil {
		t.Fatal(err)
	}
	reg := transport.NewRegistry()
	reg.Register(net.Transport())
	stub := NewStub(defs, reg)

	for i := int64(1); i <= 3; i++ {
		res, err := stub.Invoke(context.Background(), "Increment", P("in0", int64(2)))
		if err != nil {
			t.Fatal(err)
		}
		var v int64
		if err := res.Decode("return", &v); err != nil || v != 2*i {
			t.Fatalf("increment %d = %d, %v", i, v, err)
		}
	}
	// State lives in the object, visible outside the service too.
	if counter.Value() != 6 {
		t.Fatalf("object state = %d", counter.Value())
	}
}

func TestFromObjectErrors(t *testing.T) {
	if _, err := FromObject("X", 42); err == nil {
		t.Fatal("non-struct accepted")
	}
	type empty struct{}
	if _, err := FromObject("X", &empty{}); err == nil {
		t.Fatal("method-less object accepted")
	}
}

func TestWSDLGenerationFromService(t *testing.T) {
	e := New()
	svc, err := e.Deploy(echoDef())
	if err != nil {
		t.Fatal(err)
	}
	defs, err := svc.WSDL(wsdl.TransportHTTP, "http://h/Echo")
	if err != nil {
		t.Fatal(err)
	}
	if err := defs.Validate(); err != nil {
		t.Fatal(err)
	}
	det, err := defs.Detail("echoString")
	if err != nil {
		t.Fatal(err)
	}
	if det.SOAPAction != svc.SOAPAction("echoString") {
		t.Fatalf("action = %q", det.SOAPAction)
	}
	// One-way operation must have no output message.
	det, err = defs.Detail("fireAndForget")
	if err != nil {
		t.Fatal(err)
	}
	if !det.Operation.OneWay() {
		t.Fatal("one-way lost in WSDL")
	}
	// Documentation must survive into the WSDL text.
	raw, _ := defs.Marshal()
	if !strings.Contains(string(raw), "echoes its input") {
		t.Fatal("doc lost")
	}
}

func TestStubErrors(t *testing.T) {
	_, stub, _ := harness(t)
	if _, err := stub.Invoke(context.Background(), "noSuchOp"); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := stub.Invoke(context.Background(), "echoString", Param{Name: "", Value: "x"}); err == nil {
		t.Fatal("unnamed param accepted")
	}
	if _, err := stub.Invoke(context.Background(), "echoString", P("msg", map[int]int{})); err == nil {
		t.Fatal("unencodable param accepted")
	}
	res := &Result{}
	if err := res.Decode("x", nil); err == nil {
		t.Fatal("nil out accepted")
	}
	var s string
	if err := (&Result{}).Decode("x", s); err == nil {
		t.Fatal("non-pointer out accepted")
	}
	var nilRes *Result
	if err := nilRes.Decode("x", &s); err == nil {
		t.Fatal("nil result accepted")
	}
}

func TestStubEndpointOverride(t *testing.T) {
	e := New()
	if _, err := e.Deploy(echoDef()); err != nil {
		t.Fatal(err)
	}
	net := transport.NewInMemNetwork()
	net.Register("mem://elsewhere/Echo", e.Handler("Echo"))
	svc := e.Service("Echo")
	// WSDL advertises an address nothing listens on.
	defs, err := svc.WSDL(wsdl.TransportHTTP, "mem://nowhere/Echo")
	if err != nil {
		t.Fatal(err)
	}
	reg := transport.NewRegistry()
	reg.Register(net.Transport())
	stub := NewStub(defs, reg)
	if _, err := stub.Invoke(context.Background(), "echoString", P("msg", "x")); err == nil {
		t.Fatal("advertised endpoint should be dead")
	}
	stub.EndpointOverride = "mem://elsewhere/Echo"
	if _, err := stub.Invoke(context.Background(), "echoString", P("msg", "x")); err != nil {
		t.Fatalf("override not honoured: %v", err)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	_, stub, _ := harness(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := fmt.Sprintf("m%d", i)
			res, err := stub.Invoke(context.Background(), "echoString", P("msg", msg))
			if err != nil {
				errs <- err
				return
			}
			got, err := res.String("return")
			if err != nil || got != msg {
				errs <- fmt.Errorf("got %q want %q (%v)", got, msg, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestAnalyzeOperationNaming(t *testing.T) {
	op, err := analyzeOperation(OperationDef{
		Name: "op",
		Func: func(a string, b int64) (string, int64) { return a, b },
	})
	if err != nil {
		t.Fatal(err)
	}
	if op.inNames[0] != "in0" || op.inNames[1] != "in1" {
		t.Fatalf("in names: %v", op.inNames)
	}
	if op.outNames[0] != "out0" || op.outNames[1] != "out1" {
		t.Fatalf("out names: %v", op.outNames)
	}
	op, err = analyzeOperation(OperationDef{
		Name: "op",
		Func: func(a string) string { return a },
	})
	if err != nil {
		t.Fatal(err)
	}
	if op.outNames[0] != "return" {
		t.Fatalf("single out name: %v", op.outNames)
	}
	if op.hasCtx || !ncName.MatchString(op.name) {
		t.Fatal("analysis flags")
	}
}

// Gauge is a second stateful object for multi-object services.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

func (g *Gauge) Set(v float64) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.v = v
	return g.v
}

func (g *Gauge) Read() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

func TestFromObjectsMultipleStatefulObjects(t *testing.T) {
	counter := &Counter{}
	gauge := &Gauge{}
	def, err := FromObjects("Instruments", counter, gauge)
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Operations) != 4 {
		t.Fatalf("ops = %d", len(def.Operations))
	}
	e := New()
	if _, err := e.Deploy(def); err != nil {
		t.Fatal(err)
	}
	net := transport.NewInMemNetwork()
	net.Register("mem://h/Instruments", e.Handler("Instruments"))
	defs, err := e.Service("Instruments").WSDL(wsdl.TransportHTTP, "mem://h/Instruments")
	if err != nil {
		t.Fatal(err)
	}
	reg := transport.NewRegistry()
	reg.Register(net.Transport())
	stub := NewStub(defs, reg)
	ctx := context.Background()

	// Operations dispatch to their respective objects' state.
	if _, err := stub.Invoke(ctx, "Increment", P("in0", int64(3))); err != nil {
		t.Fatal(err)
	}
	if _, err := stub.Invoke(ctx, "Set", P("in0", 2.5)); err != nil {
		t.Fatal(err)
	}
	if counter.Value() != 3 || gauge.Read() != 2.5 {
		t.Fatalf("state routed wrong: counter=%d gauge=%v", counter.Value(), gauge.Read())
	}
	res, err := stub.Invoke(ctx, "Read")
	if err != nil {
		t.Fatal(err)
	}
	var v float64
	if err := res.Decode("return", &v); err != nil || v != 2.5 {
		t.Fatalf("Read = %v, %v", v, err)
	}
}

func TestFromObjectsCollision(t *testing.T) {
	if _, err := FromObjects("X", &Counter{}, &Counter{}); err == nil {
		t.Fatal("method collision accepted")
	}
	if _, err := FromObjects("X"); err == nil {
		t.Fatal("empty object list accepted")
	}
}

func TestSOAP12RequestGetsSOAP12Response(t *testing.T) {
	e := New()
	if _, err := e.Deploy(echoDef()); err != nil {
		t.Fatal(err)
	}
	ns := DefaultNamespacePrefix + "Echo"
	env := soap.NewEnvelopeV(soap.SOAP12)
	wrapper := xmlutil.NewElement(xmlutil.N(ns, "echoString"))
	wrapper.NewChild(xmlutil.N(ns, "msg")).SetText("twelve")
	env.AddBodyElement(wrapper)

	resp, err := e.ServeRequest(context.Background(), "Echo", &transport.Request{Body: env.Marshal()})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp.ContentType, "application/soap+xml") {
		t.Fatalf("content type = %q", resp.ContentType)
	}
	back, err := soap.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version() != soap.SOAP12 {
		t.Fatalf("response version = %v", back.Version())
	}
	out := back.FirstBodyElement()
	if out == nil || out.Name.Local != "echoStringResponse" {
		t.Fatalf("response body: %s", resp.Body)
	}
	if got := out.Find(xmlutil.N(out.Name.Space, "return")).Text(); got != "twelve" {
		t.Fatalf("return = %q", got)
	}
}

// TestEngineStats: the spine counters are the engine's dispatch statistics.
func TestEngineStats(t *testing.T) {
	_, stub, _ := harness(t)
	requests, faults, oneWay := mEngineRequests.Value(), mEngineFaults.Value(), mEngineOneWay.Value()
	ctx := context.Background()
	if _, err := stub.Invoke(ctx, "echoString", P("msg", "x")); err != nil {
		t.Fatal(err)
	}
	if _, err := stub.Invoke(ctx, "fireAndForget", P("in0", "e")); err != nil {
		t.Fatal(err)
	}
	if _, err := stub.Invoke(ctx, "panics"); err == nil {
		t.Fatal("panic op should fault")
	}
	dr, df, do := mEngineRequests.Value()-requests, mEngineFaults.Value()-faults, mEngineOneWay.Value()-oneWay
	if dr != 3 || do != 1 || df != 1 {
		t.Fatalf("engine.requests +%d, engine.faults +%d, engine.oneway +%d", dr, df, do)
	}
}

// Property: arbitrary sanitized strings survive a full request/response
// dispatch through real envelope bytes.
func TestQuickDispatchRoundTrip(t *testing.T) {
	_, stub, _ := harness(t)
	ctx := context.Background()
	// Characters XML 1.0 cannot represent (most control characters,
	// surrogates) are outside the domain: encoding/xml drops them, as
	// every SOAP stack must.
	xmlSafe := func(s string) string {
		var b strings.Builder
		for _, r := range strings.ToValidUTF8(s, "") {
			switch {
			case r == '\t' || r == '\n':
				b.WriteRune(r)
			case r < 0x20 || r == '\r': // \r is normalized to \n by parsers
				continue
			case r >= 0xD800 && r <= 0xDFFF:
				continue
			case r == 0xFFFE || r == 0xFFFF:
				continue
			default:
				b.WriteRune(r)
			}
		}
		return b.String()
	}
	f := func(msg string) bool {
		msg = xmlSafe(msg)
		res, err := stub.Invoke(ctx, "echoString", P("msg", msg))
		if err != nil {
			return false
		}
		got, err := res.String("return")
		return err == nil && got == msg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
