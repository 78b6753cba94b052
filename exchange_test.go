package wspeer_test

// Message-exchange-layer end-to-end tests (DESIGN.md §15): the one-way and
// callback patterns exercised over every binding, and the decoupled reply
// crossing bindings — an HTTP request whose wsa:ReplyTo names a P2PS pipe,
// and the reverse. Callback replies must travel as separate outbound
// messages (a second connection for HTTP, a second pipe for P2PS), which
// the tests pin down with the engine's exchange.reply.out counter and the
// client correlation-table stats.

import (
	"context"
	"testing"
	"time"

	"wspeer"
	"wspeer/internal/binding/httpbind"
	"wspeer/internal/binding/p2psbind"
	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/exchange"
	"wspeer/internal/p2ps"
	"wspeer/internal/pipeline"
	"wspeer/internal/soap"
	"wspeer/internal/wsaddr"
)

// exchangeEchoDef is a service with a request/response echo and a true
// one-way notification whose execution is observable through ping.
func exchangeEchoDef(name string, ping chan<- string) wspeer.ServiceDef {
	return wspeer.ServiceDef{
		Name: name,
		Operations: []wspeer.OperationDef{
			{Name: "echoString", Func: func(s string) string { return "async:" + s }, ParamNames: []string{"msg"}},
			{Name: "notify", Func: func(s string) error { ping <- s; return nil }, ParamNames: []string{"msg"}, OneWay: true},
		},
	}
}

// awaitPing fails the test unless a notification arrives promptly.
func awaitPing(t *testing.T, ping <-chan string, want string) {
	t.Helper()
	select {
	case got := <-ping:
		if got != want {
			t.Fatalf("notify delivered %q, want %q", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("one-way notification never reached the service")
	}
}

// exerciseExchange runs the one-way and callback patterns over an already
// bound invocation and asserts the wire behaviour: the one-way send has an
// observable effect with no decoded reply, and the callback reply arrives
// as a separate outbound message correlated by the client's table.
func exerciseExchange(t *testing.T, client *wspeer.Client, inv *wspeer.Invocation, ping <-chan string) {
	t.Helper()
	ctx := context.Background()
	before := wspeer.Snapshot()

	if err := inv.InvokeOneWay(ctx, "notify", wspeer.P("msg", "tick")); err != nil {
		t.Fatalf("InvokeOneWay: %v", err)
	}
	awaitPing(t, ping, "tick")

	pending, err := inv.InvokeCallback(ctx, "echoString", wspeer.P("msg", "cb"))
	if err != nil {
		t.Fatalf("InvokeCallback: %v", err)
	}
	if pending.MessageID() == "" {
		t.Fatal("pending reply has no MessageID")
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	res, err := pending.Wait(wctx)
	if err != nil {
		t.Fatalf("callback reply: %v", err)
	}
	if got, err := res.String("return"); err != nil || got != "async:cb" {
		t.Fatalf("callback result = %q, %v", got, err)
	}

	stats := client.ExchangeStats()
	if stats.Resolved < 1 {
		t.Fatalf("correlation table resolved %d exchanges, want >= 1", stats.Resolved)
	}
	after := wspeer.Snapshot()
	if d := after.Counters["exchange.oneway.sent"] - before.Counters["exchange.oneway.sent"]; d < 1 {
		t.Fatalf("exchange.oneway.sent grew by %d", d)
	}
	if d := after.Counters["exchange.callback.sent"] - before.Counters["exchange.callback.sent"]; d < 1 {
		t.Fatalf("exchange.callback.sent grew by %d", d)
	}
	// The reply left the provider as a separate outbound message through
	// the engine's decoupled-reply path, not on the request back channel.
	if d := after.Counters["exchange.reply.out"] - before.Counters["exchange.reply.out"]; d < 1 {
		t.Fatalf("exchange.reply.out grew by %d: reply did not use the decoupled path", d)
	}
}

func TestExchangePatternsInMem(t *testing.T) {
	ctx := context.Background()
	net := wspeer.NewInMemNetwork()
	dir := wspeer.NewInMemDirectory()
	ping := make(chan string, 8)

	provider := wspeer.NewPeer()
	pb, err := wspeer.NewInMemBinding(wspeer.InMemOptions{Network: net, Directory: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pb.Close() })
	if err := provider.AttachBinding(pb); err != nil {
		t.Fatal(err)
	}
	if _, err := provider.Server().DeployAndPublish(ctx, exchangeEchoDef("AsyncEchoMem", ping)); err != nil {
		t.Fatal(err)
	}

	consumer := wspeer.NewPeer()
	cb, err := wspeer.NewInMemBinding(wspeer.InMemOptions{Network: net, Directory: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cb.Close() })
	if err := consumer.AttachBinding(cb); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { consumer.Client().CloseExchange() })
	info, err := consumer.Client().LocateOne(ctx, wspeer.NameQuery{Name: "AsyncEchoMem"})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := consumer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	exerciseExchange(t, consumer.Client(), inv, ping)
}

func TestExchangePatternsHTTP(t *testing.T) {
	ping := make(chan string, 8)

	provider := wspeer.NewPeer()
	hb, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hb.Close() })
	if err := provider.AttachBinding(hb); err != nil {
		t.Fatal(err)
	}
	dep, err := provider.Server().Deploy(exchangeEchoDef("AsyncEchoHTTP", ping))
	if err != nil {
		t.Fatal(err)
	}

	consumer := wspeer.NewPeer()
	cbind, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cbind.Close() })
	if err := consumer.AttachBinding(cbind); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { consumer.Client().CloseExchange() })
	inv, err := consumer.Client().NewInvocation(&wspeer.ServiceInfo{
		Name: "AsyncEchoHTTP", Endpoint: dep.Endpoint, Definitions: dep.Definitions,
	})
	if err != nil {
		t.Fatal(err)
	}
	exerciseExchange(t, consumer.Client(), inv, ping)
}

func TestExchangePatternsP2PS(t *testing.T) {
	ctx := context.Background()
	overlay := p2ps.NewLocalNetwork()
	rdv, err := p2ps.NewPeer(p2ps.Config{Transport: overlay.NewEndpoint(), Rendezvous: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdv.Close() })
	newBinding := func() *p2psbind.Binding {
		t.Helper()
		pp, err := p2ps.NewPeer(p2ps.Config{Transport: overlay.NewEndpoint(), Seeds: []string{rdv.Addr()}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pp.Close() })
		b, err := p2psbind.New(p2psbind.Options{Peer: pp, DiscoveryTimeout: 300 * time.Millisecond, ReplyTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	}

	ping := make(chan string, 8)
	provider := core.NewPeer()
	if err := provider.AttachBinding(newBinding()); err != nil {
		t.Fatal(err)
	}
	def := exchangeEchoDef("AsyncEchoP2PS", ping)
	if _, err := provider.Server().DeployAndPublish(ctx, def); err != nil {
		t.Fatal(err)
	}

	consumer := core.NewPeer()
	if err := consumer.AttachBinding(newBinding()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { consumer.Client().CloseExchange() })
	var info *core.ServiceInfo
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, err = consumer.Client().LocateOne(ctx, core.NameQuery{Name: "AsyncEchoP2PS"})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("locate never succeeded: %v", err)
		}
	}
	inv, err := consumer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	exerciseExchange(t, consumer.Client(), inv, ping)
}

// TestCallbackReplyHTTPToP2PS sends a request over HTTP whose wsa:ReplyTo
// names a consumer-hosted P2PS callback pipe: the provider's engine honours
// the non-anonymous ReplyTo by routing the response through the p2ps reply
// sender, off the HTTP back channel entirely (the consumer-is-an-endpoint
// claim of paper §IV-B, across substrates).
func TestCallbackReplyHTTPToP2PS(t *testing.T) {
	ctx := context.Background()
	overlay := p2ps.NewLocalNetwork()
	rdv, err := p2ps.NewPeer(p2ps.Config{Transport: overlay.NewEndpoint(), Rendezvous: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdv.Close() })
	newP2PS := func() *p2psbind.Binding {
		t.Helper()
		pp, err := p2ps.NewPeer(p2ps.Config{Transport: overlay.NewEndpoint(), Seeds: []string{rdv.Addr()}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pp.Close() })
		b, err := p2psbind.New(p2psbind.Options{Peer: pp, DiscoveryTimeout: 300 * time.Millisecond, ReplyTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	}

	// Provider: service hosted over HTTP; a colocated P2PS binding donates
	// its reply sender so the engine can deliver replies onto pipes.
	providerHTTP, err := httpbind.New(httpbind.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { providerHTTP.Close() })
	providerP2PS := newP2PS()
	providerHTTP.Engine().RegisterReplySender(core.P2PSScheme, providerP2PS.ReplySender())
	provider := core.NewPeer()
	if err := provider.AttachBinding(providerHTTP); err != nil {
		t.Fatal(err)
	}
	ping := make(chan string, 1)
	dep, err := provider.Server().Deploy(exchangeEchoDef("CrossCallbackA", ping))
	if err != nil {
		t.Fatal(err)
	}

	// Consumer: hosts the reply endpoint on its own P2PS substrate.
	consumerP2PS := newP2PS()
	hoster, ok := consumerP2PS.Invoker().(core.CallbackHoster)
	if !ok {
		t.Fatal("p2ps invoker does not host reply endpoints")
	}
	replies := make(chan []byte, 1)
	ep, err := hoster.HostReplyEndpoint(func(body []byte) {
		select {
		case replies <- body:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })

	// Send the callback request over HTTP through the exchange layer, with
	// the pipe EPR as ReplyTo.
	consumerHTTP, err := httpbind.New(httpbind.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { consumerHTTP.Close() })
	msgID := wsaddr.NewMessageID()
	call := &pipeline.Call{Dir: pipeline.ClientCall, Service: "CrossCallbackA", Op: "echoString", Ctx: ctx}
	call.SetMeta(exchange.MetaHeaders, &wsaddr.MessageHeaders{MessageID: msgID, ReplyTo: ep.EPR()})
	info := &core.ServiceInfo{Name: "CrossCallbackA", Endpoint: dep.Endpoint, Definitions: dep.Definitions}
	if _, err := consumerHTTP.Invoker().Invoke(call, info, "echoString", []engine.Param{engine.P("msg", "h2p")}); err != nil {
		t.Fatalf("callback send: %v", err)
	}

	var body []byte
	select {
	case body = <-replies:
	case <-time.After(10 * time.Second):
		t.Fatal("reply never arrived on the P2PS callback pipe")
	}
	env, err := soap.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := wsaddr.FromEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.RelatesTo != msgID {
		t.Fatalf("reply RelatesTo = %q, want %q", hdr.RelatesTo, msgID)
	}
	det, err := dep.Definitions.Detail("echoString")
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.DecodeResponseEnvelope(env, det)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := res.String("return"); err != nil || got != "async:h2p" {
		t.Fatalf("reply result = %q, %v", got, err)
	}
}

// TestCallbackReplyP2PSToHTTP is the reverse crossing: the request travels
// down a P2PS request pipe with a wsa:ReplyTo naming a consumer-hosted HTTP
// callback route, and the provider's engine posts the response there over
// HTTP.
func TestCallbackReplyP2PSToHTTP(t *testing.T) {
	ctx := context.Background()
	overlay := p2ps.NewLocalNetwork()
	rdv, err := p2ps.NewPeer(p2ps.Config{Transport: overlay.NewEndpoint(), Rendezvous: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdv.Close() })
	newP2PS := func() *p2psbind.Binding {
		t.Helper()
		pp, err := p2ps.NewPeer(p2ps.Config{Transport: overlay.NewEndpoint(), Seeds: []string{rdv.Addr()}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pp.Close() })
		b, err := p2psbind.New(p2psbind.Options{Peer: pp, DiscoveryTimeout: 300 * time.Millisecond, ReplyTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	}

	// Provider: service hosted over P2PS; a colocated HTTP binding donates
	// its reply sender so the engine can post replies to http:// EPRs.
	providerP2PS := newP2PS()
	bridgeHTTP, err := httpbind.New(httpbind.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bridgeHTTP.Close() })
	providerP2PS.Engine().RegisterReplySender("http", bridgeHTTP.ReplySender())
	provider := core.NewPeer()
	if err := provider.AttachBinding(providerP2PS); err != nil {
		t.Fatal(err)
	}
	ping := make(chan string, 1)
	if _, err := provider.Server().DeployAndPublish(ctx, exchangeEchoDef("CrossCallbackB", ping)); err != nil {
		t.Fatal(err)
	}

	// Consumer: hosts the reply endpoint on its own HTTP substrate.
	consumerHTTP, err := httpbind.New(httpbind.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { consumerHTTP.Close() })
	hoster, ok := consumerHTTP.Invoker().(core.CallbackHoster)
	if !ok {
		t.Fatal("http invoker does not host reply endpoints")
	}
	replies := make(chan []byte, 1)
	ep, err := hoster.HostReplyEndpoint(func(body []byte) {
		select {
		case replies <- body:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })

	// Locate the service over P2PS discovery, then send the callback
	// request down its request pipe with the HTTP EPR as ReplyTo.
	consumerP2PS := newP2PS()
	consumer := core.NewPeer()
	if err := consumer.AttachBinding(consumerP2PS); err != nil {
		t.Fatal(err)
	}
	var info *core.ServiceInfo
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, err = consumer.Client().LocateOne(ctx, core.NameQuery{Name: "CrossCallbackB"})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("locate never succeeded: %v", err)
		}
	}
	msgID := wsaddr.NewMessageID()
	call := &pipeline.Call{Dir: pipeline.ClientCall, Service: info.Name, Op: "echoString", Ctx: ctx}
	call.SetMeta(exchange.MetaHeaders, &wsaddr.MessageHeaders{MessageID: msgID, ReplyTo: ep.EPR()})
	if _, err := consumerP2PS.Invoker().Invoke(call, info, "echoString", []engine.Param{engine.P("msg", "p2h")}); err != nil {
		t.Fatalf("callback send: %v", err)
	}

	var body []byte
	select {
	case body = <-replies:
	case <-time.After(10 * time.Second):
		t.Fatal("reply never arrived on the HTTP callback route")
	}
	env, err := soap.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := wsaddr.FromEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.RelatesTo != msgID {
		t.Fatalf("reply RelatesTo = %q, want %q", hdr.RelatesTo, msgID)
	}
	det, err := info.Definitions.Detail("echoString")
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.DecodeResponseEnvelope(env, det)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := res.String("return"); err != nil || got != "async:p2h" {
		t.Fatalf("reply result = %q, %v", got, err)
	}
}
