package inmembind

import (
	"context"
	"testing"
	"time"

	"wspeer/internal/binding/bindtest"
	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/resilience"
	"wspeer/internal/soap"
	"wspeer/internal/transport"
	"wspeer/internal/wsdl"
)

// TestConformance runs the shared binding conformance suite against the
// in-memory binding: each fabric is one shared network plus one shared
// directory, the binding's analogue of a common overlay and registry.
func TestConformance(t *testing.T) {
	bindtest.Run(t, bindtest.World{
		NewFabric: func(t *testing.T) *bindtest.Fabric {
			net := transport.NewInMemNetwork()
			dir := NewDirectory()
			return &bindtest.Fabric{
				NewPeer: func(t *testing.T) (*core.Peer, core.Binding) {
					t.Helper()
					b, err := New(Options{Network: net, Directory: dir})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { b.Close() })
					p := core.NewPeer()
					if err := p.AttachBinding(b); err != nil {
						t.Fatal(err)
					}
					return p, b
				},
			}
		},
	})
}

func TestDirectoryQueries(t *testing.T) {
	dir := NewDirectory()
	defs := &wsdl.Definitions{Name: "Echo"}
	id := dir.Publish(Record{Name: "Echo", Endpoint: "mem://a/Echo", Definitions: defs,
		Attrs: map[string]string{"kind": "echo"}})
	dir.Publish(Record{Name: "EchoPlus", Endpoint: "mem://a/EchoPlus", Definitions: defs,
		Attrs: map[string]string{"kind": "plus"}})
	dir.Publish(Record{Name: "Other", Endpoint: "mem://a/Other", Definitions: defs})

	cases := []struct {
		q    core.ServiceQuery
		want int
	}{
		{core.NameQuery{Name: "Echo"}, 1},
		{core.NameQuery{Name: "Echo*"}, 2},
		{core.NameQuery{Name: "*"}, 3},
		{core.NameQuery{Name: ""}, 3},
		{core.NameQuery{Name: "*Plus"}, 1},
		{core.NameQuery{Name: "Echo*", Attrs: map[string]string{"kind": "plus"}}, 1},
		{core.NameQuery{Name: "Echo*", Attrs: map[string]string{"kind": "nope"}}, 0},
		{core.NameQuery{Name: "*", MaxResults: 2}, 2},
		{core.ExprQuery{Expr: "name like 'Echo*' and attr(kind) = 'echo'"}, 1},
	}
	for _, c := range cases {
		got, err := dir.find(c.q)
		if err != nil {
			t.Fatalf("find(%+v): %v", c.q, err)
		}
		if len(got) != c.want {
			t.Errorf("find(%+v) = %d records, want %d", c.q, len(got), c.want)
		}
	}
	if _, err := dir.find(core.ExprQuery{Expr: "name like ("}); err == nil {
		t.Error("bad expression should error")
	}

	if !dir.Unpublish(id) || dir.Unpublish(id) {
		t.Error("unpublish should succeed once")
	}
	if dir.Len() != 2 {
		t.Errorf("len = %d", dir.Len())
	}
}

func TestForeignPublishCarriesEndpoint(t *testing.T) {
	// A record published for another binding's deployment keeps its
	// foreign endpoint, so the scheme routes invocation elsewhere.
	dir := NewDirectory()
	b, err := New(Options{Directory: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	p := core.NewPeer()
	if err := p.AttachBinding(b); err != nil {
		t.Fatal(err)
	}
	svcName := "Remote"
	eng := b.Engine()
	if _, err := eng.Deploy(engine.ServiceDef{
		Name: svcName,
		Operations: []engine.OperationDef{
			{Name: "ping", Func: func(s string) string { return s }, ParamNames: []string{"msg"}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	svc := eng.Service(svcName)
	defs, err := svc.WSDL(wsdl.TransportHTTP, "http://example.org/Remote")
	if err != nil {
		t.Fatal(err)
	}
	dep := &core.Deployment{Service: svc, Endpoint: "http://example.org/Remote", Definitions: defs, Deployer: "httpd"}
	loc, err := b.Publisher().Publish(context.Background(), dep)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Publisher().Unpublish(context.Background(), loc)

	info, err := p.Client().LocateOne(context.Background(), core.NameQuery{Name: svcName})
	if err != nil {
		t.Fatal(err)
	}
	if transport.SchemeOf(info.Endpoint) != "http" {
		t.Fatalf("foreign endpoint = %q", info.Endpoint)
	}
}

// goldenOverloadFault is the fault a shed request gets over mem:// from an
// engine whose admission advertises 2 s: captured from the tree-rendering
// fault writer, and byte for byte HTTP's 503 body.
const goldenOverloadFault = `<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/" xmlns:ns1="http://wspeer.dev/resilience"><soapenv:Body><soapenv:Fault><faultcode>soapenv:Server</faultcode><faultstring>resilience: server overloaded (queue full), retry after 2s</faultstring><detail><ns1:retryAfterSeconds>2</ns1:retryAfterSeconds></detail></soapenv:Fault></soapenv:Body></soapenv:Envelope>`

// TestGoldenOverloadFault: the fault of a request the engine sheds does not
// move by a byte.
func TestGoldenOverloadFault(t *testing.T) {
	net := transport.NewInMemNetwork()
	b, err := New(Options{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Engine().SetAdmission(resilience.NewAdmission(resilience.AdmissionOptions{MaxConcurrent: 1, RetryAfter: 2 * time.Second}))
	entered, release := make(chan struct{}), make(chan struct{})
	dep, err := b.Deployer().Deploy(engine.ServiceDef{Name: "Gated", Operations: []engine.OperationDef{{
		Name: "wait", Func: func() string { entered <- struct{}{}; <-release; return "done" },
	}}})
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPeer()
	if err := p.AttachBinding(b); err != nil {
		t.Fatal(err)
	}
	inv, err := p.Client().NewInvocation(&core.ServiceInfo{Name: "Gated", Endpoint: dep.Endpoint, Definitions: dep.Definitions})
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan error, 1)
	go func() {
		_, err := inv.Invoke(context.Background(), "wait")
		held <- err
	}()
	<-entered
	resp, err := net.Transport().Call(context.Background(), &transport.Request{Endpoint: dep.Endpoint, ContentType: soap.ContentType, Body: []byte("<x/>")})
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-held; err != nil {
		t.Fatalf("held invocation: %v", err)
	}
	if !resp.Faulted || string(resp.Body) != goldenOverloadFault {
		t.Fatalf("shed request: faulted %v, body drifted from the golden bytes:\n got: %s\nwant: %s", resp.Faulted, resp.Body, goldenOverloadFault)
	}
}
