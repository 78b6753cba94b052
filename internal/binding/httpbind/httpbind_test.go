package httpbind

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/httpd"
	"wspeer/internal/pipeline"
	"wspeer/internal/uddi"
	"wspeer/internal/wsdl"
)

// startRegistry hosts a UDDI registry as a WSPeer service over real HTTP
// and returns its endpoint plus the in-process registry for assertions.
func startRegistry(t *testing.T) (string, *uddi.Registry) {
	t.Helper()
	reg := uddi.NewRegistry()
	host := httpd.New(engine.New(), httpd.Options{})
	t.Cleanup(func() { host.Close() })
	endpoint, err := host.Deploy(uddi.ServiceDef(reg))
	if err != nil {
		t.Fatal(err)
	}
	return endpoint, reg
}

func echoDef() engine.ServiceDef {
	return engine.ServiceDef{
		Name: "Echo",
		Operations: []engine.OperationDef{
			{Name: "echoString", Func: func(s string) string { return "echo:" + s }, ParamNames: []string{"msg"}},
		},
	}
}

func newBoundPeer(t *testing.T, uddiEndpoint string) (*core.Peer, *Binding) {
	t.Helper()
	b, err := New(Options{UDDIEndpoint: uddiEndpoint})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	p := core.NewPeer()
	b.Attach(p)
	return p, b
}

// TestFigure3Lifecycle runs the paper's Fig. 3 end to end: deploy →
// publish (UDDI) → locate (UDDI) → invoke (HTTP), between two distinct
// peers over real sockets.
func TestFigure3Lifecycle(t *testing.T) {
	uddiEndpoint, registry := startRegistry(t)
	providerPeer, _ := newBoundPeer(t, uddiEndpoint)
	consumerPeer, _ := newBoundPeer(t, uddiEndpoint)
	ctx := context.Background()

	// Track events on the provider side.
	var mu sync.Mutex
	var events []string
	providerPeer.AddListener(core.ListenerFuncs{
		Deployment: func(e core.DeploymentMessageEvent) {
			mu.Lock()
			events = append(events, "deploy")
			mu.Unlock()
		},
		Publish: func(e core.PublishEvent) {
			mu.Lock()
			events = append(events, "publish:"+e.Publisher)
			mu.Unlock()
		},
		Server: func(e core.ServerMessageEvent) {
			mu.Lock()
			events = append(events, "server")
			mu.Unlock()
		},
	})

	dep, err := providerPeer.Server().DeployAndPublish(ctx, echoDef())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(dep.Endpoint, "http://") {
		t.Fatalf("endpoint = %q", dep.Endpoint)
	}
	if registry.Len() != 1 {
		t.Fatalf("registry records = %d", registry.Len())
	}

	// Consumer: locate through UDDI.
	info, err := consumerPeer.Client().LocateOne(ctx, core.NameQuery{Name: "Echo"})
	if err != nil {
		t.Fatal(err)
	}
	if info.Endpoint != dep.Endpoint {
		t.Fatalf("located endpoint %q != deployed %q", info.Endpoint, dep.Endpoint)
	}
	if info.Definitions == nil || info.Definitions.Operation("echoString") == nil {
		t.Fatal("definitions not delivered by locator")
	}

	// Consumer: invoke over HTTP.
	inv, err := consumerPeer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inv.Invoke(ctx, "echoString", engine.P("msg", "fig3"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.String("return")
	if err != nil || got != "echo:fig3" {
		t.Fatalf("invoke = %q, %v", got, err)
	}

	mu.Lock()
	joined := strings.Join(events, ",")
	mu.Unlock()
	if !strings.Contains(joined, "deploy") || !strings.Contains(joined, "publish:uddi") || !strings.Contains(joined, "server") {
		t.Fatalf("events = %s", joined)
	}

	// Undeploy withdraws the registry record.
	if err := providerPeer.Server().Undeploy(ctx, "Echo"); err != nil {
		t.Fatal(err)
	}
	if registry.Len() != 0 {
		t.Fatalf("registry records after undeploy = %d", registry.Len())
	}
	if _, err := consumerPeer.Client().LocateOne(ctx, core.NameQuery{Name: "Echo"}); err == nil {
		t.Fatal("undeployed service still locatable")
	}
}

func TestLocatorWildcardsAndCategories(t *testing.T) {
	uddiEndpoint, _ := startRegistry(t)
	providerPeer, _ := newBoundPeer(t, uddiEndpoint)
	consumerPeer, _ := newBoundPeer(t, uddiEndpoint)
	ctx := context.Background()
	if _, err := providerPeer.Server().DeployAndPublish(ctx, echoDef()); err != nil {
		t.Fatal(err)
	}

	// '*' wildcard translation.
	infos, err := consumerPeer.Client().Locate(ctx, core.NameQuery{Name: "Ec*"})
	if err != nil || len(infos) != 1 {
		t.Fatalf("wildcard: %v, %v", infos, err)
	}

	// Binding-specific UDDIQuery with the category the publisher applies.
	infos, err = consumerPeer.Client().Locate(ctx, UDDIQuery{
		Name: "%",
		Categories: []uddi.KeyedReference{{
			TModelKey: CategoryTModel, KeyValue: "wspeer-http",
		}},
	})
	if err != nil || len(infos) != 1 {
		t.Fatalf("category query: %v, %v", infos, err)
	}
	// A non-matching category excludes the record.
	infos, _ = consumerPeer.Client().Locate(ctx, UDDIQuery{
		Name:       "%",
		Categories: []uddi.KeyedReference{{TModelKey: CategoryTModel, KeyValue: "other"}},
	})
	if len(infos) != 0 {
		t.Fatalf("category mismatch returned %d", len(infos))
	}
}

func TestLocatorFetchesWSDLFromLocation(t *testing.T) {
	uddiEndpoint, registry := startRegistry(t)
	providerPeer, providerBinding := newBoundPeer(t, uddiEndpoint)
	consumerPeer, _ := newBoundPeer(t, uddiEndpoint)
	ctx := context.Background()

	dep, err := providerPeer.Server().Deploy(echoDef())
	if err != nil {
		t.Fatal(err)
	}
	_ = providerBinding
	// Publish manually WITHOUT the inline WSDL, forcing the ?wsdl fetch.
	if _, err := registry.Publish(uddi.BusinessService{
		Name: "Echo",
		Bindings: []uddi.BindingTemplate{{
			AccessPoint:  dep.Endpoint,
			WSDLLocation: dep.Endpoint + "?wsdl",
		}},
	}); err != nil {
		t.Fatal(err)
	}

	info, err := consumerPeer.Client().LocateOne(ctx, core.NameQuery{Name: "Echo"})
	if err != nil {
		t.Fatal(err)
	}
	if info.Definitions == nil {
		t.Fatal("WSDL fetch failed")
	}
	inv, err := consumerPeer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inv.Invoke(ctx, "echoString", engine.P("msg", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.String("return"); got != "echo:x" {
		t.Fatalf("via fetched WSDL: %q", got)
	}
}

func TestHTTPGBindingEndToEnd(t *testing.T) {
	uddiEndpoint, _ := startRegistry(t)
	secret := []byte("grid-credentials")
	mk := func() *core.Peer {
		b, err := New(Options{UDDIEndpoint: uddiEndpoint, Profile: "httpg", Secret: secret})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		p := core.NewPeer()
		b.Attach(p)
		return p
	}
	provider, consumer := mk(), mk()
	ctx := context.Background()
	dep, err := provider.Server().DeployAndPublish(ctx, echoDef())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(dep.Endpoint, "httpg://") {
		t.Fatalf("endpoint = %q", dep.Endpoint)
	}
	info, err := consumer.Client().LocateOne(ctx, core.NameQuery{Name: "Echo"})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := consumer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inv.Invoke(ctx, "echoString", engine.P("msg", "secure"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.String("return"); got != "echo:secure" {
		t.Fatalf("httpg invoke = %q", got)
	}
}

func TestBindingWithoutUDDI(t *testing.T) {
	b, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	p := core.NewPeer()
	b.Attach(p)
	// No locator registered.
	if _, err := p.Client().Locate(context.Background(), core.NameQuery{Name: "X"}); err != core.ErrNoLocator {
		t.Fatalf("err = %v", err)
	}
	// Hosting and direct invocation still work.
	dep, err := p.Server().Deploy(echoDef())
	if err != nil {
		t.Fatal(err)
	}
	info := &core.ServiceInfo{Name: "Echo", Endpoint: dep.Endpoint, Definitions: dep.Definitions}
	inv, err := p.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inv.Invoke(context.Background(), "echoString", engine.P("msg", "direct"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.String("return"); got != "echo:direct" {
		t.Fatalf("direct = %q", got)
	}
}

func TestInvokerRequiresDefinitions(t *testing.T) {
	b, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	inv := b.Invoker()
	if _, err := inv.Invoke(&pipeline.Call{Ctx: context.Background()}, &core.ServiceInfo{Name: "X", Endpoint: "http://x"}, "op", nil); err == nil {
		t.Fatal("missing definitions accepted")
	}
}

func TestFetchWSDLErrors(t *testing.T) {
	if _, err := FetchWSDL(context.Background(), "http://127.0.0.1:1/nope"); err == nil {
		t.Fatal("unreachable URL accepted")
	}
}

// TestFetchWSDLOverLimit: a document one byte over the limit is refused with
// an error that names the limit, not read short and then failed as XML.
func TestFetchWSDLOverLimit(t *testing.T) {
	const head = `<definitions xmlns="http://schemas.xmlsoap.org/wsdl/"><documentation>`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(head))
		pad := []byte(strings.Repeat("x", 1<<16))
		for left := maxWSDLBytes + 1 - len(head); left > 0; left -= len(pad) {
			w.Write(pad[:min(left, len(pad))])
		}
	}))
	defer srv.Close()
	_, err := FetchWSDL(context.Background(), srv.URL)
	if err == nil || !strings.Contains(err.Error(), "16777216-byte limit") || strings.Contains(err.Error(), "parse") {
		t.Fatalf("FetchWSDL of a 16 MiB + 1 B document: %v", err)
	}
}

func TestDeployerUndeployUnknown(t *testing.T) {
	b, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Deployer().Undeploy("Nope"); err == nil {
		t.Fatal("unknown service undeploy accepted")
	}
}

func TestRegistryFailurePropagates(t *testing.T) {
	uddiEndpoint, registry := startRegistry(t)
	peer, _ := newBoundPeer(t, uddiEndpoint)
	registry.SetFailed(true)
	if _, err := peer.Client().Locate(context.Background(), core.NameQuery{Name: "X"}); err == nil {
		t.Fatal("failed registry not surfaced")
	}
	// Publishing against the failed registry also errors (deploy succeeds,
	// publish fails).
	_, err := peer.Server().DeployAndPublish(context.Background(), echoDef())
	if err == nil {
		t.Fatal("publish against failed registry succeeded")
	}
}

func TestExprQueryOverUDDI(t *testing.T) {
	uddiEndpoint, _ := startRegistry(t)
	providerPeer, providerBinding := newBoundPeer(t, uddiEndpoint)
	consumerPeer, _ := newBoundPeer(t, uddiEndpoint)
	ctx := context.Background()

	// Two services with different categories.
	providerBinding.SetCategories("Echo", []uddi.KeyedReference{
		{TModelKey: "uuid:attrs", KeyName: "kind", KeyValue: "echo"},
		{TModelKey: "uuid:attrs", KeyName: "price", KeyValue: "0.25"},
	})
	if _, err := providerPeer.Server().DeployAndPublish(ctx, echoDef()); err != nil {
		t.Fatal(err)
	}
	def2 := echoDef()
	def2.Name = "Expensive"
	providerBinding.SetCategories("Expensive", []uddi.KeyedReference{
		{TModelKey: "uuid:attrs", KeyName: "kind", KeyValue: "echo"},
		{TModelKey: "uuid:attrs", KeyName: "price", KeyValue: "9.99"},
	})
	if _, err := providerPeer.Server().DeployAndPublish(ctx, def2); err != nil {
		t.Fatal(err)
	}

	// Rich predicate: only the cheap echo service qualifies.
	infos, err := consumerPeer.Client().Locate(ctx, core.ExprQuery{
		Expr: `attr(kind) = 'echo' and attr(price) < 1`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "Echo" {
		t.Fatalf("expr query: %+v", infos)
	}

	// Malformed expressions surface as errors.
	if _, err := consumerPeer.Client().Locate(ctx, core.ExprQuery{Expr: `=`}); err == nil {
		t.Fatal("malformed expression accepted")
	}
}

// TestInlineWSDLResolvesImports: a registry record whose inline service
// document imports its messages, portType and binding from a second
// document locates to definitions a stub can invoke through.
func TestInlineWSDLResolvesImports(t *testing.T) {
	uddiEndpoint, registry := startRegistry(t)
	providerPeer, _ := newBoundPeer(t, uddiEndpoint)
	consumerPeer, _ := newBoundPeer(t, uddiEndpoint)
	ctx := context.Background()
	dep, err := providerPeer.Server().Deploy(echoDef())
	if err != nil {
		t.Fatal(err)
	}
	d := dep.Definitions
	iface, err := (&wsdl.Definitions{Name: d.Name, TargetNamespace: d.TargetNamespace, Schema: d.Schema,
		Messages: d.Messages, PortTypes: d.PortTypes, Bindings: d.Bindings}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write(iface) }))
	defer srv.Close()
	serviceDoc := `<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
	  xmlns:tns="` + d.TargetNamespace + `" xmlns:ws="http://schemas.xmlsoap.org/wsdl/soap/"
	  targetNamespace="` + d.TargetNamespace + `">
	  <wsdl:import namespace="` + d.TargetNamespace + `" location="` + srv.URL + `/interface.wsdl"/>
	  <wsdl:service name="Echo">
	    <wsdl:port name="P" binding="tns:EchoBinding"><ws:address location="` + dep.Endpoint + `"/></wsdl:port>
	  </wsdl:service>
	</wsdl:definitions>`
	if _, err := registry.Publish(uddi.BusinessService{
		Name:         "Echo",
		Bindings:     []uddi.BindingTemplate{{AccessPoint: dep.Endpoint}},
		WSDLDocument: serviceDoc,
	}); err != nil {
		t.Fatal(err)
	}

	info, err := consumerPeer.Client().LocateOne(ctx, core.NameQuery{Name: "Echo"})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := consumerPeer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inv.Invoke(ctx, "echoString", engine.P("msg", "imported"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.String("return"); got != "echo:imported" {
		t.Fatalf("via the imported interface: %q", got)
	}
}

func TestFetchWSDLResolvesImports(t *testing.T) {
	// A service document that imports its interface from a second URL.
	const tns2 = "urn:split-http"
	interfaceDoc := `<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
	  xmlns:tns="` + tns2 + `" xmlns:ws="http://schemas.xmlsoap.org/wsdl/soap/"
	  targetNamespace="` + tns2 + `">
	  <wsdl:message name="PingIn"><wsdl:part name="p" element="tns:ping"/></wsdl:message>
	  <wsdl:portType name="PingPT">
	    <wsdl:operation name="ping"><wsdl:input message="tns:PingIn"/></wsdl:operation>
	  </wsdl:portType>
	  <wsdl:binding name="PingB" type="tns:PingPT">
	    <ws:binding style="document" transport="http://schemas.xmlsoap.org/soap/http"/>
	    <wsdl:operation name="ping">
	      <ws:operation soapAction="urn:ping"/>
	      <wsdl:input><ws:body use="literal"/></wsdl:input>
	    </wsdl:operation>
	  </wsdl:binding>
	</wsdl:definitions>`

	mux := http.NewServeMux()
	srv := httptest.NewServer(mux)
	defer srv.Close()
	serviceDoc := `<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
	  xmlns:tns="` + tns2 + `" xmlns:ws="http://schemas.xmlsoap.org/wsdl/soap/"
	  targetNamespace="` + tns2 + `">
	  <wsdl:import namespace="` + tns2 + `" location="` + srv.URL + `/interface.wsdl"/>
	  <wsdl:service name="PingSvc">
	    <wsdl:port name="P" binding="tns:PingB"><ws:address location="http://host/ping"/></wsdl:port>
	  </wsdl:service>
	</wsdl:definitions>`
	mux.HandleFunc("/service.wsdl", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(serviceDoc))
	})
	mux.HandleFunc("/interface.wsdl", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(interfaceDoc))
	})

	defs, err := FetchWSDL(context.Background(), srv.URL+"/service.wsdl")
	if err != nil {
		t.Fatal(err)
	}
	det, err := defs.Detail("ping")
	if err != nil {
		t.Fatal(err)
	}
	if det.Address != "http://host/ping" || det.SOAPAction != "urn:ping" {
		t.Fatalf("detail: %+v", det)
	}
}
