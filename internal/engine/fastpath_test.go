package engine

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"wspeer/internal/transport"
	"wspeer/internal/wsdl"
)

// fastpathRig deploys an echo service over the in-memory transport and
// returns its shared Definitions plus a ready registry.
func fastpathRig(t *testing.T) (*wsdl.Definitions, *transport.Registry) {
	t.Helper()
	eng := New()
	svc, err := eng.Deploy(ServiceDef{
		Name: "Echo",
		Operations: []OperationDef{{
			Name: "echo", Func: func(s string) string { return s }, ParamNames: []string{"msg"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInMemNetwork()
	net.Register("mem://h/Echo", eng.Handler("Echo"))
	defs, err := svc.WSDL("urn:mem", "mem://h/Echo")
	if err != nil {
		t.Fatal(err)
	}
	reg := transport.NewRegistry()
	reg.Register(net.Transport())
	return defs, reg
}

// TestConcurrentStubInvokeSharedDefinitions drives Invoke from many
// goroutines — some sharing one Stub, some with a private Stub over the
// same shared Definitions — under the race detector. This covers the
// Definitions-level detail cache on its concurrent first touch.
func TestConcurrentStubInvokeSharedDefinitions(t *testing.T) {
	defs, reg := fastpathRig(t)
	shared := NewStub(defs, reg)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stub := shared
			if g%2 == 0 {
				stub = NewStub(defs, reg) // fresh stub, shared Definitions
			}
			for i := 0; i < 50; i++ {
				res, err := stub.Invoke(ctx, "echo", P("msg", "hello"))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := res.String("return")
				if err != nil || got != "hello" {
					t.Errorf("echo = %q, %v", got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGoldenEnvelopeColdVsWarm pins byte-identical serialization across
// the detail cache: a request built on a cold cache, one built warm, and
// one built over freshly re-parsed Definitions must all produce the same
// bytes.
func TestGoldenEnvelopeColdVsWarm(t *testing.T) {
	defs, _ := fastpathRig(t)

	cold := NewStub(defs, nil)
	req1, _, err := cold.BuildRequest("echo", P("msg", "golden & <value>"))
	if err != nil {
		t.Fatal(err)
	}
	// Warm: same stub, detail now cached.
	req2, _, err := cold.BuildRequest("echo", P("msg", "golden & <value>"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(req1.Body, req2.Body) {
		t.Fatalf("cold vs warm differ:\n%s\nvs\n%s", req1.Body, req2.Body)
	}

	// Uncached: round-trip the WSDL so every cache starts empty.
	raw, err := defs.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := wsdl.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	req3, _, err := NewStub(fresh, nil).BuildRequest("echo", P("msg", "golden & <value>"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(req1.Body, req3.Body) {
		t.Fatalf("cached vs fresh-definitions differ:\n%s\nvs\n%s", req1.Body, req3.Body)
	}

	const golden = `<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"` +
		` xmlns:ns1="http://wspeer.dev/services/Echo">` +
		`<soapenv:Body>` +
		`<ns1:echo>` +
		`<ns1:msg>golden &amp; &lt;value&gt;</ns1:msg>` +
		`</ns1:echo>` +
		`</soapenv:Body>` +
		`</soapenv:Envelope>`
	if string(req1.Body) != golden {
		t.Fatalf("envelope drifted from golden form:\n got: %s\nwant: %s", req1.Body, golden)
	}
}

// TestStubHonoursInvalidateDetails: Definitions.Detail is the one memo of
// what is derivable from the WSDL, so a stub that has already served a
// call sees a mutation of its Definitions as soon as InvalidateDetails has
// been called — it keeps no copy of its own to go stale.
func TestStubHonoursInvalidateDetails(t *testing.T) {
	defs, _ := fastpathRig(t)
	stub := NewStub(defs, nil)
	req, det, err := stub.BuildRequest("echo", P("msg", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if req.Endpoint != "mem://h/Echo" {
		t.Fatalf("endpoint = %q", req.Endpoint)
	}

	defs.Services[0].Ports[0].Address = "mem://moved/Echo"
	defs.InvalidateDetails()
	req, moved, err := stub.BuildRequest("echo", P("msg", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if req.Endpoint != "mem://moved/Echo" || moved.Address != "mem://moved/Echo" {
		t.Fatalf("after InvalidateDetails the stub still builds for %q (detail %q)", req.Endpoint, moved.Address)
	}
	if det.Address != "mem://h/Echo" {
		t.Fatalf("the detail handed out earlier was mutated: %q", det.Address)
	}
}
