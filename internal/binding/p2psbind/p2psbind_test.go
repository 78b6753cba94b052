package p2psbind

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/p2ps"
	"wspeer/internal/pipeline"
	"wspeer/internal/soap"
	"wspeer/internal/wsaddr"
)

// overlay is a real-time in-process P2PS network for binding tests.
type overlay struct {
	t   *testing.T
	net *p2ps.LocalNetwork
	rdv *p2ps.Peer
}

func newOverlay(t *testing.T) *overlay {
	t.Helper()
	net := p2ps.NewLocalNetwork()
	rdv, err := p2ps.NewPeer(p2ps.Config{Transport: net.NewEndpoint(), Rendezvous: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdv.Close() })
	return &overlay{t: t, net: net, rdv: rdv}
}

// boundPeer returns a WSPeer peer wired to a fresh P2PS peer on the
// overlay.
func (o *overlay) boundPeer() (*core.Peer, *Binding) {
	o.t.Helper()
	pp, err := p2ps.NewPeer(p2ps.Config{Transport: o.net.NewEndpoint(), Seeds: []string{o.rdv.Addr()}})
	if err != nil {
		o.t.Fatal(err)
	}
	o.t.Cleanup(func() { pp.Close() })
	b, err := New(Options{Peer: pp, DiscoveryTimeout: 300 * time.Millisecond, ReplyTimeout: 5 * time.Second})
	if err != nil {
		o.t.Fatal(err)
	}
	p := core.NewPeer()
	b.Attach(p)
	return p, b
}

func echoDef() engine.ServiceDef {
	return engine.ServiceDef{
		Name: "Echo",
		Operations: []engine.OperationDef{
			{Name: "echoString", Func: func(s string) string { return "p2ps:" + s }, ParamNames: []string{"msg"}},
			{Name: "fail", Func: func() (string, error) { return "", errors.New("intentional") }},
			{Name: "notify", Func: func(s string) error { return nil }, OneWay: true},
		},
	}
}

// locateWithRetry tolerates advert propagation latency on the real-time
// overlay.
func locateWithRetry(t *testing.T, p *core.Peer, name string) *core.ServiceInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		info, err := p.Client().LocateOne(context.Background(), core.NameQuery{Name: name})
		if err == nil {
			return info
		}
	}
	t.Fatalf("service %q never became locatable", name)
	return nil
}

// TestFigure4Lifecycle runs the paper's Fig. 4 end to end: deploy →
// publish (advert) → locate (in-network query + definition pipe) → invoke
// (pipes + WS-Addressing ReplyTo).
func TestFigure4Lifecycle(t *testing.T) {
	o := newOverlay(t)
	providerPeer, _ := o.boundPeer()
	consumerPeer, _ := o.boundPeer()
	ctx := context.Background()

	dep, err := providerPeer.Server().DeployAndPublish(ctx, echoDef())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(dep.Endpoint, "p2ps://") {
		t.Fatalf("endpoint = %q", dep.Endpoint)
	}
	if !core.IsP2PSURI(dep.Endpoint) {
		t.Fatalf("endpoint scheme: %q", dep.Endpoint)
	}

	info := locateWithRetry(t, consumerPeer, "Echo")
	if info.Definitions == nil || info.Definitions.Operation("echoString") == nil {
		t.Fatal("WSDL not retrieved through definition pipe")
	}
	if info.Extra == nil {
		t.Fatal("advert not attached to service info")
	}

	inv, err := consumerPeer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inv.Invoke(ctx, "echoString", engine.P("msg", "fig4"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.String("return")
	if err != nil || got != "p2ps:fig4" {
		t.Fatalf("invoke = %q, %v", got, err)
	}
}

func TestFaultsTravelOverPipes(t *testing.T) {
	o := newOverlay(t)
	providerPeer, _ := o.boundPeer()
	consumerPeer, _ := o.boundPeer()
	ctx := context.Background()
	if _, err := providerPeer.Server().DeployAndPublish(ctx, echoDef()); err != nil {
		t.Fatal(err)
	}
	info := locateWithRetry(t, consumerPeer, "Echo")
	inv, err := consumerPeer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	_, err = inv.Invoke(ctx, "fail")
	var f *soap.Fault
	if !errors.As(err, &f) || !strings.Contains(f.String, "intentional") {
		t.Fatalf("fault over pipes: %v", err)
	}
}

func TestOneWayOverPipes(t *testing.T) {
	o := newOverlay(t)
	providerPeer, providerBinding := o.boundPeer()
	consumerPeer, _ := o.boundPeer()
	ctx := context.Background()
	if _, err := providerPeer.Server().DeployAndPublish(ctx, echoDef()); err != nil {
		t.Fatal(err)
	}
	info := locateWithRetry(t, consumerPeer, "Echo")
	inv, err := consumerPeer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inv.Invoke(ctx, "notify", engine.P("in0", "evt"))
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatal("one-way returned a result")
	}
	// The provider must eventually register the delivery.
	deadline := time.Now().Add(5 * time.Second)
	for providerBinding.Peer().Stats().DataDelivered == 0 {
		if time.Now().After(deadline) {
			t.Fatal("one-way request never delivered")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerEventsFire(t *testing.T) {
	o := newOverlay(t)
	providerPeer, _ := o.boundPeer()
	consumerPeer, _ := o.boundPeer()
	ctx := context.Background()
	var mu sync.Mutex
	served := 0
	providerPeer.AddListener(core.ListenerFuncs{Server: func(e core.ServerMessageEvent) {
		mu.Lock()
		served++
		mu.Unlock()
	}})
	if _, err := providerPeer.Server().DeployAndPublish(ctx, echoDef()); err != nil {
		t.Fatal(err)
	}
	info := locateWithRetry(t, consumerPeer, "Echo")
	inv, _ := consumerPeer.Client().NewInvocation(info)
	if _, err := inv.Invoke(ctx, "echoString", engine.P("msg", "x")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if served != 1 {
		t.Fatalf("server events = %d", served)
	}
}

func TestUndeployClosesPipes(t *testing.T) {
	o := newOverlay(t)
	providerPeer, _ := o.boundPeer()
	consumerPeer, _ := o.boundPeer()
	ctx := context.Background()
	if _, err := providerPeer.Server().DeployAndPublish(ctx, echoDef()); err != nil {
		t.Fatal(err)
	}
	info := locateWithRetry(t, consumerPeer, "Echo")
	if err := providerPeer.Server().Undeploy(ctx, "Echo"); err != nil {
		t.Fatal(err)
	}
	// Invocation now times out (pipes closed, engine emptied).
	b, err := New(Options{Peer: o.rdv, ReplyTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_ = b
	inv, err := consumerPeer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	shortCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if _, err := inv.Invoke(shortCtx, "echoString", engine.P("msg", "x")); err == nil {
		t.Fatal("undeployed service still answered")
	}
	// And discovery no longer finds it.
	if _, err := consumerPeer.Client().LocateOne(ctx, core.NameQuery{Name: "Echo"}); err == nil {
		t.Fatal("unpublished advert still found")
	}
}

func TestEPRMapping(t *testing.T) {
	pipe := &p2ps.PipeAdvertisement{ID: "pipe-1", Name: "requests", Peer: "peer-9"}
	epr := PipeToEPR(pipe, "Echo")
	if epr.Address != "p2ps://peer-9/Echo" {
		t.Fatalf("address = %q", epr.Address)
	}
	back, err := EPRToPipe(epr)
	if err != nil || *back != *pipe {
		t.Fatalf("round trip: %+v, %v", back, err)
	}
	// Bare reply pipe: no service component.
	epr = PipeToEPR(pipe, "")
	if epr.Address != "p2ps://peer-9" {
		t.Fatalf("bare address = %q", epr.Address)
	}
	// EPR without the reference property is rejected.
	bad := wsaddr.NewEndpointReference(PipeToEPR(pipe, "Echo").Address)
	if _, err := EPRToPipe(bad); err == nil {
		t.Fatal("EPR without pipe advert accepted")
	}
}

func TestActionFor(t *testing.T) {
	got := ActionFor("peer-1", "Echo", "requests")
	if got != "p2ps://peer-1/Echo#requests" {
		t.Fatalf("action = %q", got)
	}
	u, err := core.ParseP2PSURI(got)
	if err != nil || u.Pipe != "requests" {
		t.Fatalf("action unparseable: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("missing peer accepted")
	}
}

func TestInvokerRequiresAdvert(t *testing.T) {
	o := newOverlay(t)
	_, b := o.boundPeer()
	inv := b.Invoker()
	_, err := inv.Invoke(&pipeline.Call{Ctx: context.Background()}, &core.ServiceInfo{Name: "X", Endpoint: "p2ps://p/X"}, "op", nil)
	if err == nil || !strings.Contains(err.Error(), "advertisement") {
		t.Fatalf("err = %v", err)
	}
}

func TestPublisherRequiresP2PSDeployment(t *testing.T) {
	o := newOverlay(t)
	_, b := o.boundPeer()
	eng := engine.New()
	svc, err := eng.Deploy(echoDef())
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.Publisher().Publish(context.Background(), &core.Deployment{Service: svc})
	if err == nil {
		t.Fatal("foreign deployment accepted")
	}
}

func TestMixedBindingLocateUDDIInvokeP2PS(t *testing.T) {
	// Paper §IV: "A P2PS Client could use the UDDI enabled ServiceLocator
	// defined in the standard implementation to search for services."
	// Here the reverse composition is exercised at the ServiceInfo level:
	// a P2PS-located service invoked after its info was relayed through a
	// second consumer that never ran discovery itself.
	o := newOverlay(t)
	providerPeer, _ := o.boundPeer()
	consumerPeer, consumerBinding := o.boundPeer()
	relayPeer, _ := o.boundPeer()
	ctx := context.Background()
	if _, err := providerPeer.Server().DeployAndPublish(ctx, echoDef()); err != nil {
		t.Fatal(err)
	}
	info := locateWithRetry(t, consumerPeer, "Echo")
	_ = consumerBinding

	// Hand the located info to the relay peer's client.
	inv, err := relayPeer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inv.Invoke(ctx, "echoString", engine.P("msg", "relay"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.String("return"); got != "p2ps:relay" {
		t.Fatalf("relay invoke = %q", got)
	}
}

// TestFaultToRouting crafts a raw request whose FaultTo differs from its
// ReplyTo and verifies the fault is routed to the FaultTo pipe while the
// reply pipe stays quiet, for the first copy of the request and for the
// replay a retransmitted copy is answered with.
func TestFaultToRouting(t *testing.T) {
	o := newOverlay(t)
	providerPeer, providerBinding := o.boundPeer()
	_, consumerBinding := o.boundPeer()
	ctx := context.Background()
	if _, err := providerPeer.Server().DeployAndPublish(ctx, echoDef()); err != nil {
		t.Fatal(err)
	}
	consNode := consumerBinding.Peer()

	// Discover the advert at the p2ps level.
	var adv *p2ps.ServiceAdvertisement
	deadline := time.Now().Add(10 * time.Second)
	for adv == nil && time.Now().Before(deadline) {
		adv = consNode.DiscoverOne(p2ps.Query{Name: "Echo"}, 200*time.Millisecond)
	}
	if adv == nil {
		t.Fatal("discovery failed")
	}

	replyPipe, err := consNode.CreateInputPipe("reply")
	if err != nil {
		t.Fatal(err)
	}
	faultPipe, err := consNode.CreateInputPipe("faults")
	if err != nil {
		t.Fatal(err)
	}
	replies := make(chan []byte, 2)
	faults := make(chan []byte, 2)
	replyPipe.AddListener(func(_ p2ps.PeerID, data []byte) { replies <- data })
	faultPipe.AddListener(func(_ p2ps.PeerID, data []byte) { faults <- data })

	// Build a request for the failing operation by hand.
	defs, err := providerBinding.FetchDefinitions(ctx, adv)
	if err != nil {
		t.Fatal(err)
	}
	stub := engine.NewStub(defs, nil)
	env, _, err := stub.PrepareEnvelope("fail")
	if err != nil {
		t.Fatal(err)
	}
	reqPipe := adv.Pipe(RequestPipeName)
	hdr := wsaddr.HeadersFor(PipeToEPR(reqPipe, adv.Name), ActionFor(adv.Peer, adv.Name, RequestPipeName))
	hdr.ReplyTo = PipeToEPR(replyPipe.Advertisement(), "")
	hdr.FaultTo = PipeToEPR(faultPipe.Advertisement(), "")
	if err := hdr.Apply(env); err != nil {
		t.Fatal(err)
	}
	out, err := consNode.OpenOutputPipe(reqPipe)
	if err != nil {
		t.Fatal(err)
	}
	wire := env.Marshal()
	for _, which := range []string{"first", "retransmitted"} {
		if err := out.Send(wire); err != nil {
			t.Fatal(err)
		}
		select {
		case data := <-faults:
			fenv, err := soap.Parse(data)
			if err != nil || !fenv.IsFault() {
				t.Fatalf("%s copy: FaultTo pipe got a non-fault: %v", which, err)
			}
			fhdr, err := wsaddr.FromEnvelope(fenv)
			if err != nil || fhdr.RelatesTo != hdr.MessageID {
				t.Fatalf("%s copy: fault not correlated: %+v, %v", which, fhdr, err)
			}
		case data := <-replies:
			t.Fatalf("%s copy: fault delivered to ReplyTo pipe: %s", which, data)
		case <-time.After(5 * time.Second):
			t.Fatalf("%s copy: fault never arrived", which)
		}
	}
	select {
	case <-replies:
		t.Fatal("reply pipe also received data")
	default:
	}
}

func TestExprQueryOverP2PS(t *testing.T) {
	o := newOverlay(t)
	providerPeer, providerBinding := o.boundPeer()
	consumerPeer, _ := o.boundPeer()
	ctx := context.Background()

	providerBinding.SetAdvertAttrs("Echo", map[string]string{"kind": "echo", "price": "0.25"})
	if _, err := providerPeer.Server().DeployAndPublish(ctx, echoDef()); err != nil {
		t.Fatal(err)
	}
	def2 := echoDef()
	def2.Name = "Expensive"
	providerBinding.SetAdvertAttrs("Expensive", map[string]string{"kind": "echo", "price": "9.99"})
	if _, err := providerPeer.Server().DeployAndPublish(ctx, def2); err != nil {
		t.Fatal(err)
	}

	// The predicate travels inside the query and is evaluated in-network.
	var infos []*core.ServiceInfo
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		infos, err = consumerPeer.Client().Locate(ctx, core.ExprQuery{
			Expr: `attr(kind) = 'echo' and attr(price) < 1`,
		})
		if err == nil && len(infos) > 0 {
			break
		}
	}
	if len(infos) != 1 || infos[0].Name != "Echo" {
		t.Fatalf("expr query: %+v (%v)", infos, err)
	}
}

// lossyTransport drops the first N sends whose payload mentions a marker,
// simulating request loss on the overlay.
type lossyTransport struct {
	p2ps.Transport
	mu    sync.Mutex
	drops int
}

func (l *lossyTransport) Send(to string, data []byte) error {
	l.mu.Lock()
	if l.drops > 0 && strings.Contains(string(data), "lossy-payload") {
		l.drops--
		l.mu.Unlock()
		return nil // silently lost
	}
	l.mu.Unlock()
	return l.Transport.Send(to, data)
}

// TestRetransmissionSurvivesRequestLoss drops the first two copies of the
// request; the invoker's retransmission plus the provider's duplicate
// suppression must still produce exactly one invocation and one response.
func TestRetransmissionSurvivesRequestLoss(t *testing.T) {
	o := newOverlay(t)
	providerPeer, _ := o.boundPeer()
	ctx := context.Background()

	var mu sync.Mutex
	invocations := 0
	def := engine.ServiceDef{
		Name: "Echo",
		Operations: []engine.OperationDef{{
			Name: "echoString",
			Func: func(s string) string {
				mu.Lock()
				invocations++
				mu.Unlock()
				return "p2ps:" + s
			},
			ParamNames: []string{"msg"},
		}},
	}
	if _, err := providerPeer.Server().DeployAndPublish(ctx, def); err != nil {
		t.Fatal(err)
	}

	// Consumer with a lossy transport and fast retries.
	lossy := &lossyTransport{Transport: o.net.NewEndpoint(), drops: 2}
	node, err := p2ps.NewPeer(p2ps.Config{Transport: lossy, Seeds: []string{o.rdv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	b, err := New(Options{
		Peer: node, DiscoveryTimeout: 300 * time.Millisecond,
		ReplyTimeout: 3 * time.Second, Retries: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	consumer := core.NewPeer()
	b.Attach(consumer)

	info := locateWithRetry(t, consumer, "Echo")
	inv, err := consumer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inv.Invoke(ctx, "echoString", engine.P("msg", "lossy-payload"))
	if err != nil {
		t.Fatalf("invocation did not survive request loss: %v", err)
	}
	if got, _ := res.String("return"); got != "p2ps:lossy-payload" {
		t.Fatalf("result = %q", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if invocations != 1 {
		t.Fatalf("operation ran %d times (dedup failed)", invocations)
	}
}

// TestDuplicateRequestReplaysResponse delivers the same request twice at
// the p2ps level and checks the operation runs once while two responses
// are sent.
func TestDuplicateRequestReplaysResponse(t *testing.T) {
	o := newOverlay(t)
	providerPeer, providerBinding := o.boundPeer()
	_, consumerBinding := o.boundPeer()
	ctx := context.Background()

	var mu sync.Mutex
	invocations := 0
	def := engine.ServiceDef{
		Name: "Once",
		Operations: []engine.OperationDef{{
			Name: "op",
			Func: func() string {
				mu.Lock()
				invocations++
				mu.Unlock()
				return "done"
			},
		}},
	}
	if _, err := providerPeer.Server().DeployAndPublish(ctx, def); err != nil {
		t.Fatal(err)
	}
	consNode := consumerBinding.Peer()
	var adv *p2ps.ServiceAdvertisement
	deadline := time.Now().Add(10 * time.Second)
	for adv == nil && time.Now().Before(deadline) {
		adv = consNode.DiscoverOne(p2ps.Query{Name: "Once"}, 200*time.Millisecond)
	}
	if adv == nil {
		t.Fatal("discovery failed")
	}

	defs, err := providerBinding.FetchDefinitions(ctx, adv)
	if err != nil {
		t.Fatal(err)
	}
	stub := engine.NewStub(defs, nil)
	env, _, err := stub.PrepareEnvelope("op")
	if err != nil {
		t.Fatal(err)
	}
	reply, err := consNode.CreateInputPipe("reply")
	if err != nil {
		t.Fatal(err)
	}
	replies := make(chan []byte, 4)
	reply.AddListener(func(_ p2ps.PeerID, data []byte) { replies <- data })
	reqPipe := adv.Pipe(RequestPipeName)
	hdr := wsaddr.HeadersFor(PipeToEPR(reqPipe, adv.Name), ActionFor(adv.Peer, adv.Name, RequestPipeName))
	hdr.ReplyTo = PipeToEPR(reply.Advertisement(), "")
	if err := hdr.Apply(env); err != nil {
		t.Fatal(err)
	}
	out, err := consNode.OpenOutputPipe(reqPipe)
	if err != nil {
		t.Fatal(err)
	}
	wire := env.Marshal()
	if err := out.Send(wire); err != nil {
		t.Fatal(err)
	}
	// First response.
	select {
	case <-replies:
	case <-time.After(5 * time.Second):
		t.Fatal("no first response")
	}
	// Exact duplicate: must be answered from the replay cache.
	if err := out.Send(wire); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-replies:
		renv, err := soap.Parse(data)
		if err != nil || renv.IsFault() {
			t.Fatalf("replayed response bad: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("duplicate not answered")
	}
	mu.Lock()
	defer mu.Unlock()
	if invocations != 1 {
		t.Fatalf("operation ran %d times", invocations)
	}
}
