package p2psbind

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"wspeer/internal/engine"
	"wspeer/internal/p2ps"
	"wspeer/internal/pipeline"
	"wspeer/internal/soap"
	"wspeer/internal/wsaddr"
	"wspeer/internal/xmlutil"
)

// rawCaller sends hand-built requests down a provider's request pipe and
// collects what comes back on a reply pipe of its own.
type rawCaller struct {
	t       *testing.T
	adv     *p2ps.ServiceAdvertisement
	stub    *engine.Stub
	out     *p2ps.OutputPipe
	replyTo *wsaddr.EndpointReference
	replies chan []byte
}

func newRawCaller(t *testing.T, provider *Binding, node *p2ps.Peer, service string) *rawCaller {
	t.Helper()
	var adv *p2ps.ServiceAdvertisement
	for deadline := time.Now().Add(10 * time.Second); adv == nil && time.Now().Before(deadline); {
		adv = node.DiscoverOne(p2ps.Query{Name: service}, 200*time.Millisecond)
	}
	if adv == nil {
		t.Fatalf("service %q never discovered", service)
	}
	defs, err := provider.FetchDefinitions(context.Background(), adv)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := node.CreateInputPipe("reply")
	if err != nil {
		t.Fatal(err)
	}
	c := &rawCaller{t: t, adv: adv, stub: engine.NewStub(defs, nil), replies: make(chan []byte, 4)}
	reply.AddListener(func(_ p2ps.PeerID, data []byte) { c.replies <- data })
	c.replyTo = PipeToEPR(reply.Advertisement(), "")
	if c.out, err = node.OpenOutputPipe(adv.Pipe(RequestPipeName)); err != nil {
		t.Fatal(err)
	}
	return c
}

// call sends one request, with extra header blocks, and returns the reply.
func (c *rawCaller) call(op string, extra []*xmlutil.Element, params ...engine.Param) *soap.Envelope {
	c.t.Helper()
	env, _, err := c.stub.PrepareEnvelope(op, params...)
	if err != nil {
		c.t.Fatal(err)
	}
	reqPipe := c.adv.Pipe(RequestPipeName)
	hdr := wsaddr.HeadersFor(PipeToEPR(reqPipe, c.adv.Name), ActionFor(c.adv.Peer, c.adv.Name, RequestPipeName))
	hdr.ReplyTo = c.replyTo
	if err := hdr.Apply(env); err != nil {
		c.t.Fatal(err)
	}
	for _, h := range extra {
		env.AddHeader(h)
	}
	if err := c.out.Send(env.Marshal()); err != nil {
		c.t.Fatal(err)
	}
	select {
	case data := <-c.replies:
		reply, err := soap.Parse(data)
		if err != nil {
			c.t.Fatalf("unparseable reply: %v", err)
		}
		return reply
	case <-time.After(5 * time.Second):
		c.t.Fatal("no reply")
		return nil
	}
}

// TestProviderParsesRequestOnce: the request a provider reads off its pipe
// is parsed in handleRequest and nowhere after it. An interceptor on the
// provider's engine swaps the request body for bytes that do not parse
// before the dispatch terminal runs; the operation is served all the same,
// from the envelope handleRequest handed the engine, and the reply is
// addressed from the headers it read. The engine's checks still apply to
// that envelope: a mustUnderstand header nobody registered draws the
// MustUnderstand fault.
func TestProviderParsesRequestOnce(t *testing.T) {
	o := newOverlay(t)
	providerPeer, provider := o.boundPeer()
	_, consumer := o.boundPeer()
	var dispatches atomic.Int64
	provider.Engine().Use(func(next pipeline.CallFunc) pipeline.CallFunc {
		return func(c *pipeline.Call) error {
			dispatches.Add(1)
			garbled := *c.Request
			garbled.Body = []byte("<not an envelope")
			c.Request = &garbled
			return next(c)
		}
	})
	if _, err := providerPeer.Server().DeployAndPublish(context.Background(), echoDef()); err != nil {
		t.Fatal(err)
	}
	caller := newRawCaller(t, provider, consumer.Peer(), "Echo")

	reply := caller.call("echoString", nil, engine.P("msg", "once"))
	if reply.IsFault() {
		t.Fatalf("engine parsed the request again: %+v", reply.Fault())
	}
	if got := reply.FirstBodyElement().Elements(); len(got) != 1 || got[0].Name.Local != "return" || got[0].Text() != "p2ps:once" {
		t.Fatalf("reply body = %s", reply.Marshal())
	}
	if n := dispatches.Load(); n != 1 {
		t.Fatalf("%d dispatches for one request", n)
	}

	security := xmlutil.NewElement(xmlutil.N("urn:ext", "Security"))
	soap.SetMustUnderstand(security)
	reply = caller.call("echoString", []*xmlutil.Element{security}, engine.P("msg", "strict"))
	if !reply.IsFault() || reply.Fault().Code != soap.FaultMustUnderstand {
		t.Fatalf("want MustUnderstand fault, got %s", reply.Marshal())
	}
}

// TestFetchDefinitionsLeavesNothingBehind: a fetch that got its answer does
// not leave its timeout armed. 2,000 fetches end with about the heap they
// started with; a timer and channel kept per fetch for the length of
// ReplyTimeout would be several objects each.
func TestFetchDefinitionsLeavesNothingBehind(t *testing.T) {
	const fetches = 2000
	o := newOverlay(t)
	providerPeer, provider := o.boundPeer()
	_, consumer := o.boundPeer()
	if _, err := providerPeer.Server().DeployAndPublish(context.Background(), echoDef()); err != nil {
		t.Fatal(err)
	}
	caller := newRawCaller(t, provider, consumer.Peer(), "Echo")
	fetch := func() {
		if _, err := consumer.FetchDefinitions(context.Background(), caller.adv); err != nil {
			t.Fatal(err)
		}
	}
	heapObjects := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapObjects
	}
	for i := 0; i < 50; i++ {
		fetch() // connections, caches and pools reach their steady size
	}
	before := heapObjects()
	for i := 0; i < fetches; i++ {
		fetch()
	}
	if after := heapObjects(); after > before+fetches/2 {
		t.Fatalf("%d fetches left %d heap objects behind (%d -> %d)", fetches, after-before, before, after)
	}
}
