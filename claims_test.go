package wspeer_test

// The paper's evaluation is a set of claims, each of which holds or does
// not (EXPERIMENTS.md). The claims no other test asserts are asserted here,
// one TestClaim function each, by shape — order, counts, load at the
// hottest node — and never by wall-clock time.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"testing"

	"wspeer"
	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/netsim/overlay"
	"wspeer/internal/pipeline"
	"wspeer/internal/soap"
	"wspeer/internal/wsdl"
	"wspeer/internal/xmlutil"
)

// TestClaimEventsReachListenersInOrder (E1, Figs. 1/2): the interface tree
// fires events from its components up to the root, where
// PeerMessageListeners receive them. Every event is tagged with its
// sequence number and must arrive in firing order, through a listener
// called synchronously and through the decoupling QueuedListener.
func TestClaimEventsReachListenersInOrder(t *testing.T) {
	const n = 500
	fire := func(peer *wspeer.Peer) {
		for i := 0; i < n; i++ {
			peer.FireServerMessage(strconv.Itoa(i), nil, nil)
		}
	}
	inOrder := func(how string, got []string) {
		if len(got) != n {
			t.Fatalf("%s: %d of %d events delivered", how, len(got), n)
		}
		for i, seq := range got {
			if seq != strconv.Itoa(i) {
				t.Fatalf("%s: event %s delivered in position %d", how, seq, i)
			}
		}
	}

	var direct []string
	peer := wspeer.NewPeer()
	peer.AddListener(wspeer.ListenerFuncs{Server: func(e wspeer.ServerMessageEvent) {
		direct = append(direct, e.Service)
	}})
	fire(peer)
	inOrder("synchronous listener", direct)

	seen := make(chan string, n)
	q := wspeer.NewQueuedListener(wspeer.ListenerFuncs{Server: func(e wspeer.ServerMessageEvent) {
		seen <- e.Service
	}}, n)
	defer q.Close()
	peer = wspeer.NewPeer()
	peer.AddListener(q)
	fire(peer)
	queued := make([]string, n)
	for i := range queued {
		queued[i] = <-seen
	}
	inOrder("queued listener", queued)
}

// TestClaimCentralDiscoveryIsABottleneck (E5, §II): "The client/server
// nature of these networks potentially inhibits their scalability because
// the number of server entities does not grow proportionately with the
// overall number of nodes. This creates communication bottlenecks and
// increases the stress on the servers." Every peer issues one query, so
// the workload grows with the network: the central directory's load grows
// with it exactly, the rendezvous mesh's hottest node stays below it, and
// flooding without advert caches pays more messages per query than the
// mesh.
func TestClaimCentralDiscoveryIsABottleneck(t *testing.T) {
	type load struct {
		hottest  int64
		perQuery float64
	}
	measure := func(mode overlay.Mode, peers int) load {
		rdvs := 1
		if mode != overlay.Central {
			rdvs = max(peers/16, 2)
		}
		o, err := overlay.Build(overlay.Config{Seed: 1, Providers: peers, Rendezvous: rdvs, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		before, sent := o.Sim.ReceivedSnapshot(), o.Sim.Stats().Sent
		if ok, _ := o.RunQueries(peers, nil); ok*100 < peers*99 {
			t.Errorf("%s with %d peers: %d of %d queries succeeded", mode, peers, ok, peers)
		}
		var l load
		for name, c := range o.Sim.ReceivedSnapshot() {
			l.hottest = max(l.hottest, c-before[name])
		}
		l.perQuery = float64(o.Sim.Stats().Sent-sent) / float64(peers)
		return l
	}

	central16, central64 := measure(overlay.Central, 16), measure(overlay.Central, 64)
	if central64.hottest != 4*central16.hottest {
		t.Errorf("central hottest-node load %d at 16 peers, %d at 64: not linear", central16.hottest, central64.hottest)
	}
	mesh, flood := measure(overlay.Mesh, 64), measure(overlay.Flood, 64)
	if mesh.hottest >= central64.hottest {
		t.Errorf("mesh hottest-node load %d not below central's %d", mesh.hottest, central64.hottest)
	}
	if flood.perQuery <= mesh.perQuery {
		t.Errorf("flood pays %.2f messages a query, not more than the mesh's %.2f", flood.perQuery, mesh.perQuery)
	}
}

// TestClaimP2PDiscoverySurvivesNodeFailure (E6, §II): P2P systems "have
// developed sophisticated mechanisms for dealing with ... the
// unreliability of nodes. This has lead to the development of networks
// that are scalable and robust in the face of node failure." With no node
// lost every architecture finds every service; with the directory gone
// central discovery collapses, while the multi-homed mesh still finds
// services with half of all its nodes dead.
func TestClaimP2PDiscoverySurvivesNodeFailure(t *testing.T) {
	const peers, queries = 48, 24
	build := func(mode overlay.Mode) *overlay.Overlay {
		rdvs := 1
		if mode != overlay.Central {
			rdvs = peers / 16
		}
		o, err := overlay.Build(overlay.Config{Seed: 1, Providers: peers, Rendezvous: rdvs, Mode: mode, Homes: 2})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	for _, mode := range []overlay.Mode{overlay.Central, overlay.Mesh, overlay.Flood} {
		if ok, _ := build(mode).RunQueries(queries, nil); ok != queries {
			t.Errorf("%s, no node lost: %d of %d queries succeeded", mode, ok, queries)
		}
	}

	central := build(overlay.Central)
	central.Rdvs[0].Close()
	// A query for the asking peer's own service still matches locally.
	if ok, _ := central.RunQueries(queries, nil); ok*4 > queries {
		t.Errorf("central, directory lost: %d of %d queries succeeded", ok, queries)
	}
	mesh := build(overlay.Mesh)
	survivors := mesh.Kill(0.5, rand.New(rand.NewSource(1)))
	if ok, _ := mesh.RunQueries(queries, survivors); ok*2 < queries {
		t.Errorf("mesh, half the nodes lost: %d of %d queries succeeded", ok, queries)
	}
}

// gateInvoker stands in for remote services that answer only when the test
// releases them, and counts the calls in flight.
type gateInvoker struct {
	entered  chan string // each call's service name, as the call starts
	release  map[string]chan struct{}
	inflight atomic.Int64
	peak     atomic.Int64
}

func (g *gateInvoker) Schemes() []string { return []string{"gate"} }

func (g *gateInvoker) Invoke(_ *pipeline.Call, svc *core.ServiceInfo, _ string, _ []engine.Param) (*engine.Result, error) {
	n := g.inflight.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	g.entered <- svc.Name
	<-g.release[svc.Name]
	g.inflight.Add(-1)
	return nil, nil
}

// TestClaimAsyncInvocationIsEventDriven (E7, §III): WSPeer "is essentially
// an asynchronous, event driven system … Asynchronicity allows for P2P
// style interactions with unreliable nodes." A synchronous caller has one
// call in flight at a time, however slow each node is; asynchronous
// invocation puts every call in flight before any node answers, and each
// outcome arrives as its node answers, not in the order the calls were
// made.
func TestClaimAsyncInvocationIsEventDriven(t *testing.T) {
	const n = 8
	ctx := context.Background()
	rig := func() (*gateInvoker, []*core.Invocation) {
		g := &gateInvoker{entered: make(chan string, n), release: make(map[string]chan struct{}, n)}
		peer := core.NewPeer()
		peer.Client().RegisterInvoker(g)
		invs := make([]*core.Invocation, n)
		for i := range invs {
			name := fmt.Sprintf("node-%d", i)
			g.release[name] = make(chan struct{})
			inv, err := peer.Client().NewInvocation(&core.ServiceInfo{Name: name, Endpoint: "gate://" + name})
			if err != nil {
				t.Fatal(err)
			}
			invs[i] = inv
		}
		return g, invs
	}

	g, invs := rig()
	done := make(chan error, 1)
	go func() {
		for _, inv := range invs {
			if _, err := inv.Invoke(ctx, "poll"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for range invs {
		close(g.release[<-g.entered])
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if peak := g.peak.Load(); peak != 1 {
		t.Errorf("synchronous invocation had %d calls in flight", peak)
	}

	g, invs = rig()
	outcomes := make(chan string, n)
	for _, inv := range invs {
		name := inv.Service().Name
		inv.InvokeAsync(ctx, "poll", nil, func(_ *engine.Result, err error) {
			if err != nil {
				t.Error(err)
			}
			outcomes <- name
		})
	}
	for range invs {
		<-g.entered
	}
	if inflight := g.inflight.Load(); inflight != n {
		t.Fatalf("asynchronous invocation: %d of %d calls in flight before any was released", inflight, n)
	}
	for i := n - 1; i >= 0; i-- {
		name := invs[i].Service().Name
		close(g.release[name])
		if got := <-outcomes; got != name {
			t.Fatalf("released %s, callback came for %s", name, got)
		}
	}
}

// compiledEchoRequest is what a stub generated to source and compiled
// would send: everything the WSDL says, hard-coded.
func compiledEchoRequest(msg string) []byte {
	const ns = "http://wspeer.dev/services/Echo"
	env := soap.NewEnvelope()
	wrapper := xmlutil.NewElement(xmlutil.N(ns, "echo"))
	wrapper.NewChild(xmlutil.N(ns, "msg")).SetText(msg)
	env.AddBodyElement(wrapper)
	return env.Marshal()
}

// TestClaimStubsGoDirectlyToBytes (E8, §IV-A): "WSPeer actually extends the
// stub generation capabilities of Axis by generating stubs directly to
// bytes, bypassing source generation and compilation." A stub over a WSDL
// document parsed once sends, call after call, the bytes a compiled stub
// would, from the one description of the operation it derived.
func TestClaimStubsGoDirectlyToBytes(t *testing.T) {
	svc, err := engine.New().Deploy(engine.ServiceDef{
		Name: "Echo",
		Operations: []engine.OperationDef{{
			Name: "echo", Func: func(s string) string { return s }, ParamNames: []string{"msg"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defs, err := svc.WSDL(wsdl.TransportHTTP, "http://host/Echo")
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
	stub := engine.NewStub(parsed, nil)
	var first *wsdl.OperationDetail
	for _, msg := range []string{"hello", "", "a<b & c>d"} {
		req, det, err := stub.BuildRequest("echo", engine.P("msg", msg))
		if err != nil {
			t.Fatal(err)
		}
		if want := compiledEchoRequest(msg); !bytes.Equal(req.Body, want) {
			t.Errorf("msg %q: stub sent\n%s\ncompiled stub sends\n%s", msg, req.Body, want)
		}
		if first == nil {
			first = det
		} else if det != first {
			t.Errorf("msg %q: the stub derived the operation from the WSDL again", msg)
		}
	}
}
