package p2psbind

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/exchange"
	"wspeer/internal/p2ps"
	"wspeer/internal/resilience"
	"wspeer/internal/soap"
)

// tcpBoundPeer is boundPeer over a real TCP transport on loopback.
func tcpBoundPeer(t *testing.T, rendezvous bool, seeds ...string) (*core.Peer, *Binding) {
	t.Helper()
	tr, err := p2ps.NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pp, err := p2ps.NewPeer(p2ps.Config{Transport: tr, Rendezvous: rendezvous, Seeds: seeds})
	if err != nil {
		tr.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { pp.Close() })
	b, err := New(Options{Peer: pp, DiscoveryTimeout: 300 * time.Millisecond, ReplyTimeout: 6 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	p := core.NewPeer()
	b.Attach(p)
	return p, b
}

// TestConcurrentSyncInvokesShareOneReplyPipe drives 16 x 50 synchronous
// invocations through one consumer binding over TCP: every caller shares
// the binding's one reply pipe, one pending table and one cached
// connection, and must still get its own answer, first time.
func TestConcurrentSyncInvokesShareOneReplyPipe(t *testing.T) {
	const callers, perCaller = 16, 50
	_, rdv := tcpBoundPeer(t, true)
	providerPeer, _ := tcpBoundPeer(t, false, rdv.Peer().Addr())
	consumerPeer, consumerBinding := tcpBoundPeer(t, false, rdv.Peer().Addr())
	ctx := context.Background()
	if _, err := providerPeer.Server().DeployAndPublish(ctx, echoDef()); err != nil {
		t.Fatal(err)
	}
	info := locateWithRetry(t, consumerPeer, "Echo")
	inv, err := consumerPeer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}

	// A call that needed a retransmission took at least this long.
	retransmitInterval := consumerBinding.replyTimeout / time.Duration(consumerBinding.retries+1)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				payload := fmt.Sprintf("caller-%d-call-%d", g, i)
				start := time.Now()
				res, err := inv.Invoke(ctx, "echoString", engine.P("msg", payload))
				if err != nil {
					t.Errorf("%s: %v", payload, err)
					return
				}
				if got, _ := res.String("return"); got != "p2ps:"+payload {
					t.Errorf("%s answered with %q", payload, got)
				}
				if took := time.Since(start); took >= retransmitInterval {
					t.Errorf("%s took %v, a retransmit interval (%v) or more", payload, took, retransmitInterval)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := consumerBinding.pending.Len(); n != 0 {
		t.Fatalf("pending table holds %d entries after every call returned", n)
	}
	st := consumerBinding.pending.Stats()
	if st.Resolved != callers*perCaller || st.Orphans != 0 || st.Expired != 0 {
		t.Fatalf("pending table stats = %+v", st)
	}
}

// blockingDef is a service whose one operation parks until released,
// reporting each entry.
func blockingDef(entered chan<- struct{}, release <-chan struct{}) engine.ServiceDef {
	return engine.ServiceDef{
		Name: "Slow",
		Operations: []engine.OperationDef{{
			Name: "wait",
			Func: func() string {
				entered <- struct{}{}
				<-release
				return "done"
			},
		}},
	}
}

// TestOverloadFaultOverPipes saturates a provider whose engine admits one
// dispatch at a time: the shed request never reaches dispatch, so the
// binding answers through the engine's reply method with a Server fault
// whose detail advertises the backoff — the P2PS form of HTTP 503 +
// Retry-After — and the caller gets it at once, not after a retransmit.
func TestOverloadFaultOverPipes(t *testing.T) {
	o := newOverlay(t)
	providerPeer, providerBinding := o.boundPeer()
	consumerPeer, consumerBinding := o.boundPeer()
	ctx := context.Background()
	providerBinding.Engine().SetAdmission(resilience.NewAdmission(resilience.AdmissionOptions{MaxConcurrent: 1}))
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	if _, err := providerPeer.Server().DeployAndPublish(ctx, blockingDef(entered, release)); err != nil {
		t.Fatal(err)
	}
	info := locateWithRetry(t, consumerPeer, "Slow")
	inv, err := consumerPeer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}

	first := make(chan error, 1)
	go func() {
		_, err := inv.Invoke(ctx, "wait")
		first <- err
	}()
	<-entered // the one slot is taken

	start := time.Now()
	_, err = inv.Invoke(ctx, "wait")
	var f *soap.Fault
	if !errors.As(err, &f) {
		t.Fatalf("second invoke = %v, want an overload fault", err)
	}
	if f.Code != soap.FaultServer || f.Detail.Name.Local != "retryAfterSeconds" {
		t.Fatalf("fault = %+v (detail %v), want Server with retryAfterSeconds", f, f.Detail.Name)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("overload fault took %v", took)
	}

	close(release)
	if err := <-first; err != nil {
		t.Fatalf("admitted invoke: %v", err)
	}
	if n := consumerBinding.pending.Len(); n != 0 {
		t.Fatalf("pending table holds %d entries", n)
	}
}

// TestCloseFailsPendingInvokes closes a consumer binding under an
// in-flight synchronous invocation: the call returns exchange.ErrClosed at
// once instead of sitting out ReplyTimeout, and nothing stays pending.
func TestCloseFailsPendingInvokes(t *testing.T) {
	o := newOverlay(t)
	providerPeer, _ := o.boundPeer()
	consumerPeer, consumerBinding := o.boundPeer()
	ctx := context.Background()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	if _, err := providerPeer.Server().DeployAndPublish(ctx, blockingDef(entered, release)); err != nil {
		t.Fatal(err)
	}
	info := locateWithRetry(t, consumerPeer, "Slow")
	inv, err := consumerPeer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	result := make(chan error, 1)
	go func() {
		_, err := inv.Invoke(ctx, "wait")
		result <- err
	}()
	<-entered // the request is out and unanswered

	if err := consumerBinding.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-result:
		if !errors.Is(err, exchange.ErrClosed) {
			t.Fatalf("invoke under Close = %v, want exchange.ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("invoke still waiting a second after Close")
	}
	if n := consumerBinding.pending.Len(); n != 0 {
		t.Fatalf("pending table holds %d entries after Close", n)
	}
	if _, err := inv.Invoke(ctx, "wait"); err == nil {
		t.Fatal("invoke on a closed binding succeeded")
	}
}

// TestCloseClosesHostedReplyPipes checks that a reply endpoint handed to
// core stops receiving once the binding is closed.
func TestCloseClosesHostedReplyPipes(t *testing.T) {
	o := newOverlay(t)
	_, b := o.boundPeer()
	delivered := make(chan []byte, 1)
	ep, err := b.Invoker().(core.CallbackHoster).HostReplyEndpoint(func(body []byte) { delivered <- body })
	if err != nil {
		t.Fatal(err)
	}
	// The peer writes to its own pipe: no discovery to wait for.
	adv, err := EPRToPipe(ep.EPR())
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.Peer().OpenOutputPipe(adv)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Send([]byte("before")); err != nil {
		t.Fatal(err)
	}
	select {
	case body := <-delivered:
		if string(body) != "before" {
			t.Fatalf("delivered %q", body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("open reply pipe delivered nothing")
	}

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := out.Send([]byte("after")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Peer().Stats().DataDropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("data for the closed reply pipe was never dropped")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case body := <-delivered:
		t.Fatalf("closed reply pipe delivered %q", body)
	default:
	}
}

// goldenOverloadFault is the shed request's reply over P2PS, from an engine
// whose admission advertises 2 s: the document element's start tag and the
// Body, captured from the tree-rendering fault writer (the addressing
// headers between them carry the exchange's own identifiers).
const goldenOverloadFault = `<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/" xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/08/addressing" xmlns:ns1="http://wspeer.dev/p2ps" xmlns:ns2="http://wspeer.dev/resilience"><soapenv:Body><soapenv:Fault><faultcode>soapenv:Server</faultcode><faultstring>resilience: server overloaded (queue full), retry after 2s</faultstring><detail><ns2:retryAfterSeconds>2</ns2:retryAfterSeconds></detail></soapenv:Fault></soapenv:Body></soapenv:Envelope>`

// replyCapture keeps every frame its transport sends that mentions the
// overload detail.
type replyCapture struct {
	p2ps.Transport
	mu   sync.Mutex
	sent []string
}

func (c *replyCapture) Send(to string, data []byte) error {
	if strings.Contains(string(data), "retryAfterSeconds") {
		c.mu.Lock()
		c.sent = append(c.sent, string(data))
		c.mu.Unlock()
	}
	return c.Transport.Send(to, data)
}

// TestGoldenOverloadFaultOverPipes: the fault a provider sends a shed
// request does not move by a byte.
func TestGoldenOverloadFaultOverPipes(t *testing.T) {
	o := newOverlay(t)
	capture := &replyCapture{Transport: o.net.NewEndpoint()}
	node, err := p2ps.NewPeer(p2ps.Config{Transport: capture, Seeds: []string{o.rdv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	providerBinding, err := New(Options{Peer: node, DiscoveryTimeout: 300 * time.Millisecond, ReplyTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	providerPeer := core.NewPeer()
	providerBinding.Attach(providerPeer)
	consumerPeer, _ := o.boundPeer()
	ctx := context.Background()
	providerBinding.Engine().SetAdmission(resilience.NewAdmission(resilience.AdmissionOptions{MaxConcurrent: 1, RetryAfter: 2 * time.Second}))
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	if _, err := providerPeer.Server().DeployAndPublish(ctx, blockingDef(entered, release)); err != nil {
		t.Fatal(err)
	}
	inv, err := consumerPeer.Client().NewInvocation(locateWithRetry(t, consumerPeer, "Slow"))
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() {
		_, err := inv.Invoke(ctx, "wait")
		first <- err
	}()
	<-entered
	_, err = inv.Invoke(ctx, "wait")
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("admitted invoke: %v", err)
	}
	var f *soap.Fault
	if !errors.As(err, &f) {
		t.Fatalf("second invoke = %v, want an overload fault", err)
	}
	capture.mu.Lock()
	defer capture.mu.Unlock()
	if len(capture.sent) != 1 {
		t.Fatalf("%d frames carried the overload fault, want 1", len(capture.sent))
	}
	frame := capture.sent[0]
	start, end := strings.Index(frame, "<soapenv:Envelope"), strings.Index(frame, "</soapenv:Envelope>")
	if start < 0 || end < start {
		t.Fatalf("no envelope in the reply frame %q", frame)
	}
	env := frame[start : end+len("</soapenv:Envelope>")]
	got := env[:strings.IndexByte(env, '>')+1] + env[strings.Index(env, "<soapenv:Body>"):]
	if got != goldenOverloadFault {
		t.Fatalf("overload fault drifted from the golden bytes:\n got: %s\nwant: %s\n(whole envelope: %s)", got, goldenOverloadFault, env)
	}
}
