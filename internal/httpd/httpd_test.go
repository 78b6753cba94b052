package httpd

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"wspeer/internal/engine"
	"wspeer/internal/pipeline"
	"wspeer/internal/soap"
	"wspeer/internal/transport"
	"wspeer/internal/wsdl"
)

func echoDef() engine.ServiceDef {
	return engine.ServiceDef{
		Name: "Echo",
		Operations: []engine.OperationDef{
			{Name: "echoString", Func: func(s string) string { return s }, ParamNames: []string{"msg"}},
			{Name: "notify", Func: func(s string) error { return nil }, OneWay: true},
		},
	}
}

func newHost(t *testing.T, opts Options) *Host {
	t.Helper()
	h := New(engine.New(), opts)
	t.Cleanup(func() { h.Close() })
	return h
}

func registry(secret []byte) *transport.Registry {
	reg := transport.NewRegistry()
	reg.Register(transport.NewHTTPTransport())
	if secret != nil {
		reg.Register(transport.NewHTTPGTransport(secret))
	}
	return reg
}

func stubFor(t *testing.T, h *Host, service string, secret []byte) *engine.Stub {
	t.Helper()
	defs, err := h.WSDL(service)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip the WSDL through bytes like a remote consumer.
	raw, err := defs.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := wsdl.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return engine.NewStub(parsed, registry(secret))
}

func TestLazyStart(t *testing.T) {
	h := newHost(t, Options{})
	if h.Started() {
		t.Fatal("server must not start before first deployment")
	}
	if h.Endpoint("Echo") != "" {
		t.Fatal("no endpoint before start")
	}
	endpoint, err := h.Deploy(echoDef())
	if err != nil {
		t.Fatal(err)
	}
	if !h.Started() {
		t.Fatal("server must start on first deployment")
	}
	if !strings.HasPrefix(endpoint, "http://127.0.0.1:") || !strings.HasSuffix(endpoint, "/services/Echo") {
		t.Fatalf("endpoint = %q", endpoint)
	}
}

func TestEndToEndOverRealHTTP(t *testing.T) {
	h := newHost(t, Options{})
	if _, err := h.Deploy(echoDef()); err != nil {
		t.Fatal(err)
	}
	stub := stubFor(t, h, "Echo", nil)
	res, err := stub.Invoke(context.Background(), "echoString", engine.P("msg", "over the wire"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.String("return")
	if err != nil || got != "over the wire" {
		t.Fatalf("echo = %q, %v", got, err)
	}
}

func TestOneWayGets202(t *testing.T) {
	h := newHost(t, Options{})
	if _, err := h.Deploy(echoDef()); err != nil {
		t.Fatal(err)
	}
	stub := stubFor(t, h, "Echo", nil)
	res, err := stub.Invoke(context.Background(), "notify", engine.P("in0", "evt"))
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatal("one-way must not decode a result")
	}
}

func TestWSDLEndpoint(t *testing.T) {
	h := newHost(t, Options{})
	endpoint, err := h.Deploy(echoDef())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(endpoint + "?wsdl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	defs, err := wsdl.Parse(body)
	if err != nil {
		t.Fatalf("served WSDL unparseable: %v", err)
	}
	det, err := defs.Detail("echoString")
	if err != nil {
		t.Fatal(err)
	}
	if det.Address != endpoint {
		t.Fatalf("WSDL address %q != live endpoint %q", det.Address, endpoint)
	}
}

func TestServiceListing(t *testing.T) {
	h := newHost(t, Options{})
	if _, err := h.Deploy(echoDef()); err != nil {
		t.Fatal(err)
	}
	base := strings.TrimSuffix(h.Endpoint("Echo"), "Echo")
	resp, err := http.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "/services/Echo") {
		t.Fatalf("listing: %s", body)
	}
	// Unknown service: 404.
	resp2, err := http.Get(base + "Nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown service status = %d", resp2.StatusCode)
	}
	// GET without ?wsdl on a service: 405.
	resp3, err := http.Get(base + "Echo")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("plain GET status = %d", resp3.StatusCode)
	}
}

func TestInterceptorHandles(t *testing.T) {
	h := newHost(t, Options{})
	if _, err := h.Deploy(echoDef()); err != nil {
		t.Fatal(err)
	}
	var intercepted atomic.Int64
	h.SetInterceptor(func(service string, req *transport.Request) (*transport.Response, bool, error) {
		intercepted.Add(1)
		if strings.Contains(string(req.Body), "hijack") {
			f := soap.NewFault(soap.FaultClient, "handled by application")
			return &transport.Response{Body: soap.NewEnvelope().SetFault(f).Marshal(), Faulted: true}, true, nil
		}
		return nil, false, nil
	})
	stub := stubFor(t, h, "Echo", nil)

	// Passed through to the engine.
	res, err := stub.Invoke(context.Background(), "echoString", engine.P("msg", "normal"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.String("return"); got != "normal" {
		t.Fatalf("pass-through = %q", got)
	}

	// Handled directly by the application.
	_, err = stub.Invoke(context.Background(), "echoString", engine.P("msg", "hijack"))
	var f *soap.Fault
	if !errors.As(err, &f) || f.String != "handled by application" {
		t.Fatalf("intercepted call: %v", err)
	}
	if intercepted.Load() != 2 {
		t.Fatalf("interceptor saw %d requests", intercepted.Load())
	}
}

func TestInterceptorError(t *testing.T) {
	h := newHost(t, Options{})
	if _, err := h.Deploy(echoDef()); err != nil {
		t.Fatal(err)
	}
	h.SetInterceptor(func(string, *transport.Request) (*transport.Response, bool, error) {
		return nil, false, errors.New("interceptor exploded")
	})
	stub := stubFor(t, h, "Echo", nil)
	_, err := stub.Invoke(context.Background(), "echoString", engine.P("msg", "x"))
	var f *soap.Fault
	if !errors.As(err, &f) || !strings.Contains(f.String, "interceptor exploded") {
		t.Fatalf("err = %v", err)
	}
}

// TestEngineInterceptorError: an error from a server-pipeline interceptor
// (Engine.Use) reaches the caller as a SOAP Server fault carrying its text.
func TestEngineInterceptorError(t *testing.T) {
	eng := engine.New()
	h := New(eng, Options{})
	t.Cleanup(func() { h.Close() })
	if _, err := h.Deploy(echoDef()); err != nil {
		t.Fatal(err)
	}
	eng.Use(func(pipeline.CallFunc) pipeline.CallFunc {
		return func(*pipeline.Call) error { return errors.New("denied by policy") }
	})
	_, err := stubFor(t, h, "Echo", nil).Invoke(context.Background(), "echoString", engine.P("msg", "x"))
	var f *soap.Fault
	if !errors.As(err, &f) || f.IsClient() || !strings.Contains(f.String, "denied by policy") {
		t.Fatalf("err = %v, want a Server fault carrying the interceptor's text", err)
	}
}

// TestSpineCounters checks the httpd.* counters the telemetry spine reads:
// one httpd.requests tick per exchange, and an httpd.faults tick only when
// the host answered with a fault.
func TestSpineCounters(t *testing.T) {
	h := newHost(t, Options{})
	if _, err := h.Deploy(echoDef()); err != nil {
		t.Fatal(err)
	}
	stub := stubFor(t, h, "Echo", nil)
	requests, faults := mHostRequests.Value(), mHostFaults.Value()
	if _, err := stub.Invoke(context.Background(), "echoString", engine.P("msg", "x")); err != nil {
		t.Fatal(err)
	}
	if dr, df := mHostRequests.Value()-requests, mHostFaults.Value()-faults; dr != 1 || df != 0 {
		t.Fatalf("after a good call: httpd.requests +%d, httpd.faults +%d", dr, df)
	}
	h.SetInterceptor(func(string, *transport.Request) (*transport.Response, bool, error) {
		return nil, false, errors.New("refused")
	})
	if _, err := stub.Invoke(context.Background(), "echoString", engine.P("msg", "x")); err == nil {
		t.Fatal("refused call succeeded")
	}
	if dr, df := mHostRequests.Value()-requests, mHostFaults.Value()-faults; dr != 2 || df != 1 {
		t.Fatalf("after a faulted call: httpd.requests +%d, httpd.faults +%d", dr, df)
	}
}

func TestHTTPGProfile(t *testing.T) {
	secret := []byte("grid-secret")
	h := newHost(t, Options{Profile: "httpg", Secret: secret})
	endpoint, err := h.Deploy(echoDef())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(endpoint, "httpg://") {
		t.Fatalf("endpoint = %q", endpoint)
	}
	stub := stubFor(t, h, "Echo", secret)
	res, err := stub.Invoke(context.Background(), "echoString", engine.P("msg", "secure"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.String("return"); got != "secure" {
		t.Fatalf("httpg echo = %q", got)
	}

	// A client with the wrong secret is rejected at the transport level.
	bad := stubFor(t, h, "Echo", []byte("wrong"))
	if _, err := bad.Invoke(context.Background(), "echoString", engine.P("msg", "x")); err == nil {
		t.Fatal("wrong secret accepted")
	}
}

func TestUndeployAndClose(t *testing.T) {
	h := newHost(t, Options{})
	endpoint, err := h.Deploy(echoDef())
	if err != nil {
		t.Fatal(err)
	}
	if !h.Undeploy("Echo") {
		t.Fatal("undeploy")
	}
	resp, err := http.Post(endpoint, soap.ContentType, strings.NewReader("<x/>"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("undeployed service status = %d", resp.StatusCode)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	// Deploy after close must fail.
	if _, err := h.Deploy(echoDef()); err == nil {
		t.Fatal("deploy after close accepted")
	}
}

func TestDeployFailureDoesNotStartServer(t *testing.T) {
	h := newHost(t, Options{})
	if _, err := h.Deploy(engine.ServiceDef{Name: "bad name"}); err == nil {
		t.Fatal("invalid def accepted")
	}
	if h.Started() {
		t.Fatal("server started despite failed deployment")
	}
}

func TestMultipleServicesShareListener(t *testing.T) {
	h := newHost(t, Options{})
	e1, err := h.Deploy(echoDef())
	if err != nil {
		t.Fatal(err)
	}
	def2 := echoDef()
	def2.Name = "Echo2"
	e2, err := h.Deploy(def2)
	if err != nil {
		t.Fatal(err)
	}
	host1 := strings.Split(strings.TrimPrefix(e1, "http://"), "/")[0]
	host2 := strings.Split(strings.TrimPrefix(e2, "http://"), "/")[0]
	if host1 != host2 {
		t.Fatalf("services on different listeners: %q vs %q", e1, e2)
	}
}
