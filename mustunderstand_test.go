package wspeer_test

import (
	"context"
	"strings"
	"testing"

	"wspeer"
	"wspeer/internal/soap"
	"wspeer/internal/transport"
)

// TestMustUnderstandFaultKeepsVersion: a SOAP 1.2 request carrying a
// mustUnderstand block nobody understands is refused before dispatch with
// a MustUnderstand fault in SOAP 1.2, over mem:// and over http://.
func TestMustUnderstandFaultKeepsVersion(t *testing.T) {
	ctx := context.Background()
	net, dir := wspeer.NewInMemNetwork(), wspeer.NewInMemDirectory()
	mem, err := wspeer.NewInMemBinding(wspeer.InMemOptions{Network: net, Directory: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mem.Close() })
	web, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { web.Close() })
	ran := 0
	def := wspeer.ServiceDef{Name: "Strict", Operations: []wspeer.OperationDef{{
		Name: "echo", ParamNames: []string{"msg"}, Func: func(s string) string { ran++; return s },
	}}}
	for _, tc := range []struct {
		attach func(*wspeer.Peer) error
		via    transport.Transport
	}{
		{mem.Attach, net.Transport()},
		{func(p *wspeer.Peer) error { web.Attach(p); return nil }, transport.NewHTTPTransport()},
	} {
		provider := wspeer.NewPeer()
		if err := tc.attach(provider); err != nil {
			t.Fatal(err)
		}
		dep, err := provider.Server().Deploy(def)
		if err != nil {
			t.Fatal(err)
		}
		req := `<e:Envelope xmlns:e="` + soap.Namespace12 + `"><e:Header>` +
			`<x:Security xmlns:x="urn:ext" e:mustUnderstand="true">secret</x:Security></e:Header>` +
			`<e:Body><s:echo xmlns:s="` + dep.Service.Namespace() + `"><s:msg>hi</s:msg></s:echo></e:Body></e:Envelope>`
		resp, err := tc.via.Call(ctx, &transport.Request{Endpoint: dep.Endpoint, ContentType: soap.ContentType12, Body: []byte(req)})
		if err != nil {
			t.Fatalf("%s: %v", dep.Endpoint, err)
		}
		env, err := soap.Parse(resp.Body)
		if err != nil || !env.IsFault() || env.Version() != soap.SOAP12 || env.Fault().Code != soap.FaultMustUnderstand ||
			!strings.Contains(string(resp.Body), `"`+soap.Namespace12+`"`) || ran != 0 {
			t.Fatalf("%s: %s (%v, operation ran %d times)", dep.Endpoint, resp.Body, err, ran)
		}
	}
}
