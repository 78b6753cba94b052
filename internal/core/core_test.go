package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"wspeer/internal/engine"
	"wspeer/internal/pipeline"
	"wspeer/internal/transport"
)

// ---------------------------------------------------------------------------
// Fakes

type fakeLocator struct {
	name    string
	results []*ServiceInfo
	err     error
	delay   time.Duration
}

func (f *fakeLocator) Name() string { return f.name }
func (f *fakeLocator) Locate(ctx context.Context, q ServiceQuery, found func(*ServiceInfo)) error {
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for _, r := range f.results {
		if q.QueryName() == "" || q.QueryName() == r.Name {
			found(r)
		}
	}
	return f.err
}

type fakeInvoker struct {
	schemes []string
	mu      sync.Mutex
	calls   []string
	result  *engine.Result
	err     error
}

func (f *fakeInvoker) Schemes() []string { return f.schemes }
func (f *fakeInvoker) Invoke(c *pipeline.Call, svc *ServiceInfo, op string, params []engine.Param) (*engine.Result, error) {
	f.mu.Lock()
	f.calls = append(f.calls, svc.Endpoint+"!"+op)
	f.mu.Unlock()
	return f.result, f.err
}

type fakeDeployer struct {
	name     string
	err      error
	deployed []string
	removed  []string
}

func (f *fakeDeployer) Name() string { return f.name }
func (f *fakeDeployer) Deploy(def engine.ServiceDef) (*Deployment, error) {
	if f.err != nil {
		return nil, f.err
	}
	f.deployed = append(f.deployed, def.Name)
	return &Deployment{Endpoint: "mem://host/" + def.Name, Service: mustService(def)}, nil
}
func (f *fakeDeployer) Undeploy(name string) error {
	f.removed = append(f.removed, name)
	return nil
}

func mustService(def engine.ServiceDef) *engine.Service {
	e := engine.New()
	svc, err := e.Deploy(def)
	if err != nil {
		panic(err)
	}
	return svc
}

type fakePublisher struct {
	name        string
	err         error
	mu          sync.Mutex
	published   []string
	unpublished []string
}

func (f *fakePublisher) Name() string { return f.name }
func (f *fakePublisher) Publish(ctx context.Context, dep *Deployment) (string, error) {
	if f.err != nil {
		return "", f.err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	loc := f.name + ":" + dep.Service.Name()
	f.published = append(f.published, loc)
	return loc, nil
}
func (f *fakePublisher) Unpublish(ctx context.Context, location string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.unpublished = append(f.unpublished, location)
	return nil
}

type recorder struct {
	mu         sync.Mutex
	discovery  []DiscoveryEvent
	publish    []PublishEvent
	client     []ClientMessageEvent
	server     []ServerMessageEvent
	deployment []DeploymentMessageEvent
	health     []HealthEvent
}

func (r *recorder) OnDiscoveryMessage(e DiscoveryEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.discovery = append(r.discovery, e)
}
func (r *recorder) OnPublishMessage(e PublishEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.publish = append(r.publish, e)
}
func (r *recorder) OnClientMessage(e ClientMessageEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.client = append(r.client, e)
}
func (r *recorder) OnServerMessage(e ServerMessageEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.server = append(r.server, e)
}
func (r *recorder) OnDeploymentMessage(e DeploymentMessageEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deployment = append(r.deployment, e)
}
func (r *recorder) OnHealthMessage(e HealthEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.health = append(r.health, e)
}

func echoDef() engine.ServiceDef {
	return engine.ServiceDef{
		Name: "Echo",
		Operations: []engine.OperationDef{
			{Name: "echo", Func: func(s string) string { return s }},
		},
	}
}

// ---------------------------------------------------------------------------
// URI tests

func TestP2PSURI(t *testing.T) {
	cases := []struct {
		in   string
		want P2PSURI
		ok   bool
	}{
		{"p2ps://peer-1/Echo#echoString", P2PSURI{Peer: "peer-1", Service: "Echo", Pipe: "echoString"}, true},
		{"p2ps://peer-1/Echo", P2PSURI{Peer: "peer-1", Service: "Echo"}, true},
		{"p2ps://peer-1", P2PSURI{Peer: "peer-1"}, true},
		{"p2ps://peer-1#reply", P2PSURI{Peer: "peer-1", Pipe: "reply"}, true},
		{"http://x/y", P2PSURI{}, false},
		{"p2ps://", P2PSURI{}, false},
		{"p2ps://p/a/b", P2PSURI{}, false},
	}
	for _, c := range cases {
		got, err := ParseP2PSURI(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseP2PSURI(%q) err = %v", c.in, err)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseP2PSURI(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if c.ok && got.String() != c.in {
			t.Errorf("String() = %q, want %q", got.String(), c.in)
		}
	}
	if !IsP2PSURI("p2ps://x") || IsP2PSURI("http://x") {
		t.Error("IsP2PSURI")
	}
	u := P2PSURI{Peer: "p", Service: "S"}
	if u.WithPipe("q").Pipe != "q" || u.Pipe != "" {
		t.Error("WithPipe must not mutate the receiver")
	}
}

func TestQuickP2PSURIRoundTrip(t *testing.T) {
	clean := func(s string) string {
		out := []rune{}
		for _, r := range s {
			if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') || r == '-' {
				out = append(out, r)
			}
		}
		return string(out)
	}
	f := func(peer, svc, pipe string) bool {
		u := P2PSURI{Peer: "p" + clean(peer), Service: clean(svc), Pipe: clean(pipe)}
		back, err := ParseP2PSURI(u.String())
		return err == nil && back == u
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Event bus tests

func TestListenerAddRemove(t *testing.T) {
	p := NewPeer()
	rec := &recorder{}
	p.AddListener(rec)
	p.FireServerMessage("S", &transport.Request{}, &transport.Response{})
	if len(rec.server) != 1 || rec.server[0].Service != "S" {
		t.Fatalf("server events: %+v", rec.server)
	}
	if !p.RemoveListener(rec) {
		t.Fatal("remove")
	}
	if p.RemoveListener(rec) {
		t.Fatal("double remove")
	}
	p.FireServerMessage("S", nil, nil)
	if len(rec.server) != 1 {
		t.Fatal("event delivered after removal")
	}
}

func TestListenerFuncsNilSafe(t *testing.T) {
	p := NewPeer()
	var got []string
	p.AddListener(ListenerFuncs{
		Server: func(e ServerMessageEvent) { got = append(got, e.Service) },
	})
	p.FireServerMessage("X", nil, nil)
	// The other four callbacks are nil and must not panic.
	p.bus.fireDiscovery(DiscoveryEvent{})
	p.bus.firePublish(PublishEvent{})
	p.bus.fireClient(ClientMessageEvent{})
	p.bus.fireDeployment(DeploymentMessageEvent{})
	if len(got) != 1 || got[0] != "X" {
		t.Fatalf("got %v", got)
	}
}

func TestQueuedListener(t *testing.T) {
	rec := &recorder{}
	q := NewQueuedListener(rec, 4)
	for i := 0; i < 3; i++ {
		q.OnServerMessage(ServerMessageEvent{Service: fmt.Sprintf("s%d", i)})
	}
	q.Close() // drains before returning
	rec.mu.Lock()
	n := len(rec.server)
	rec.mu.Unlock()
	if n != 3 {
		t.Fatalf("delivered %d", n)
	}
	// After close, events are dropped, not delivered.
	q.OnServerMessage(ServerMessageEvent{})
	if q.Dropped() != 1 {
		t.Fatalf("dropped = %d", q.Dropped())
	}
	q.Close() // idempotent
}

func TestQueuedListenerOverflow(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	slow := ListenerFuncs{Server: func(ServerMessageEvent) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-block
	}}
	q := NewQueuedListener(slow, 2)
	q.OnServerMessage(ServerMessageEvent{}) // picked up by goroutine
	<-started
	q.OnServerMessage(ServerMessageEvent{}) // buffered 1
	q.OnServerMessage(ServerMessageEvent{}) // buffered 2
	q.OnServerMessage(ServerMessageEvent{}) // overflow
	if q.Dropped() == 0 {
		t.Fatal("overflow not counted")
	}
	close(block)
	q.Close()
}

// ---------------------------------------------------------------------------
// Client tests

func TestLocateMergesLocators(t *testing.T) {
	p := NewPeer()
	rec := &recorder{}
	p.AddListener(rec)
	a := &ServiceInfo{Name: "Echo", Endpoint: "http://a"}
	b := &ServiceInfo{Name: "Echo", Endpoint: "p2ps://b/Echo"}
	p.Client().AddLocator(&fakeLocator{name: "uddi", results: []*ServiceInfo{a}})
	p.Client().AddLocator(&fakeLocator{name: "p2ps", results: []*ServiceInfo{b}})

	infos, err := p.Client().Locate(context.Background(), NameQuery{Name: "Echo"})
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("infos = %d", len(infos))
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var finds, dones int
	for _, e := range rec.discovery {
		if e.Done {
			dones++
		} else if e.Service != nil {
			finds++
			if e.Locator == "" {
				t.Error("event missing locator name")
			}
		}
	}
	if finds != 2 || dones != 1 {
		t.Fatalf("events: %d finds, %d dones", finds, dones)
	}
	// Locator attribution filled in on the info itself.
	for _, info := range infos {
		if info.Locator == "" {
			t.Error("info missing locator attribution")
		}
	}
}

func TestLocatePartialFailure(t *testing.T) {
	p := NewPeer()
	ok := &fakeLocator{name: "good", results: []*ServiceInfo{{Name: "Echo", Endpoint: "http://a"}}}
	bad := &fakeLocator{name: "bad", err: errors.New("registry down")}
	p.Client().AddLocator(ok)
	p.Client().AddLocator(bad)
	infos, err := p.Client().Locate(context.Background(), NameQuery{Name: "Echo"})
	if err != nil {
		t.Fatalf("partial failure should still deliver results: %v", err)
	}
	if len(infos) != 1 {
		t.Fatalf("infos = %d", len(infos))
	}
	// All locators failing surfaces the error.
	p2 := NewPeer()
	p2.Client().AddLocator(bad)
	if _, err := p2.Client().Locate(context.Background(), NameQuery{Name: "Echo"}); err == nil {
		t.Fatal("total failure not reported")
	}
}

func TestLocateNoLocator(t *testing.T) {
	p := NewPeer()
	if _, err := p.Client().Locate(context.Background(), NameQuery{}); !errors.Is(err, ErrNoLocator) {
		t.Fatalf("err = %v", err)
	}
}

func TestLocateOne(t *testing.T) {
	p := NewPeer()
	p.Client().AddLocator(&fakeLocator{name: "l", results: []*ServiceInfo{{Name: "Echo", Endpoint: "http://a"}}})
	info, err := p.Client().LocateOne(context.Background(), NameQuery{Name: "Echo"})
	if err != nil || info.Endpoint != "http://a" {
		t.Fatalf("%+v, %v", info, err)
	}
	if _, err := p.Client().LocateOne(context.Background(), NameQuery{Name: "Missing"}); err == nil {
		t.Fatal("missing service found")
	}
}

func TestLocateAsync(t *testing.T) {
	p := NewPeer()
	p.Client().AddLocator(&fakeLocator{
		name:    "slow",
		delay:   10 * time.Millisecond,
		results: []*ServiceInfo{{Name: "Echo", Endpoint: "http://a"}},
	})
	foundCh := make(chan *ServiceInfo, 1)
	doneCh := make(chan error, 1)
	p.Client().LocateAsync(context.Background(), NameQuery{Name: "Echo"},
		func(info *ServiceInfo) { foundCh <- info },
		func(err error) { doneCh <- err })
	select {
	case info := <-foundCh:
		if info.Name != "Echo" {
			t.Fatalf("info = %+v", info)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("async find never arrived")
	}
	if err := <-doneCh; err != nil {
		t.Fatal(err)
	}
}

func TestInvocationRouting(t *testing.T) {
	p := NewPeer()
	rec := &recorder{}
	p.AddListener(rec)
	httpInv := &fakeInvoker{schemes: []string{"http", "httpg"}}
	p2psInv := &fakeInvoker{schemes: []string{"p2ps"}}
	p.Client().RegisterInvoker(httpInv)
	p.Client().RegisterInvoker(p2psInv)

	inv, err := p.Client().NewInvocation(&ServiceInfo{Name: "Echo", Endpoint: "p2ps://p/Echo"})
	if err != nil {
		t.Fatal(err)
	}
	if inv.Service().Name != "Echo" {
		t.Fatal("Service accessor")
	}
	if _, err := inv.Invoke(context.Background(), "echo", engine.P("msg", "x")); err != nil {
		t.Fatal(err)
	}
	if len(p2psInv.calls) != 1 || len(httpInv.calls) != 0 {
		t.Fatalf("routing: p2ps=%v http=%v", p2psInv.calls, httpInv.calls)
	}
	rec.mu.Lock()
	if len(rec.client) != 1 || rec.client[0].Operation != "echo" {
		t.Fatalf("client events: %+v", rec.client)
	}
	rec.mu.Unlock()

	// httpg routes to the http invoker registration.
	inv2, err := p.Client().NewInvocation(&ServiceInfo{Name: "E", Endpoint: "httpg://h/E"})
	if err != nil {
		t.Fatal(err)
	}
	inv2.Invoke(context.Background(), "op")
	if len(httpInv.calls) != 1 {
		t.Fatal("httpg not routed")
	}

	// Unknown scheme.
	if _, err := p.Client().NewInvocation(&ServiceInfo{Endpoint: "gopher://x"}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := p.Client().NewInvocation(nil); err == nil {
		t.Fatal("nil info accepted")
	}
}

func TestInvokeAsync(t *testing.T) {
	p := NewPeer()
	want := errors.New("remote fault")
	p.Client().RegisterInvoker(&fakeInvoker{schemes: []string{"http"}, err: want})
	inv, err := p.Client().NewInvocation(&ServiceInfo{Name: "E", Endpoint: "http://h/E"})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	inv.InvokeAsync(context.Background(), "op", nil, func(_ *engine.Result, err error) { got <- err })
	select {
	case err := <-got:
		if !errors.Is(err, want) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("async callback never fired")
	}
}

// ---------------------------------------------------------------------------
// Server tests

func TestDeployPublishUndeploy(t *testing.T) {
	p := NewPeer()
	rec := &recorder{}
	p.AddListener(rec)
	dep := &fakeDeployer{name: "httpd"}
	pub1 := &fakePublisher{name: "uddi"}
	pub2 := &fakePublisher{name: "p2ps"}
	p.Server().SetDeployer(dep)
	p.Server().AddPublisher(pub1)
	p.Server().AddPublisher(pub2)

	d, err := p.Server().DeployAndPublish(context.Background(), echoDef())
	if err != nil {
		t.Fatal(err)
	}
	if d.Endpoint != "mem://host/Echo" || d.Deployer != "httpd" {
		t.Fatalf("deployment: %+v", d)
	}
	if len(pub1.published) != 1 || len(pub2.published) != 1 {
		t.Fatal("not published everywhere")
	}
	if p.Server().Deployment("Echo") == nil || len(p.Server().Deployments()) != 1 {
		t.Fatal("deployment bookkeeping")
	}
	rec.mu.Lock()
	if len(rec.deployment) != 1 || rec.deployment[0].Endpoint != "mem://host/Echo" {
		t.Fatalf("deployment events: %+v", rec.deployment)
	}
	if len(rec.publish) != 2 {
		t.Fatalf("publish events: %+v", rec.publish)
	}
	rec.mu.Unlock()

	if err := p.Server().Undeploy(context.Background(), "Echo"); err != nil {
		t.Fatal(err)
	}
	if len(pub1.unpublished) != 1 || len(pub2.unpublished) != 1 {
		t.Fatal("not unpublished everywhere")
	}
	if len(dep.removed) != 1 {
		t.Fatal("deployer not asked to undeploy")
	}
	if p.Server().Deployment("Echo") != nil {
		t.Fatal("deployment lingers")
	}
	rec.mu.Lock()
	if len(rec.deployment) != 2 || !rec.deployment[1].Undeployed {
		t.Fatalf("undeploy event: %+v", rec.deployment)
	}
	rec.mu.Unlock()

	if err := p.Server().Undeploy(context.Background(), "Echo"); err == nil {
		t.Fatal("double undeploy accepted")
	}
}

func TestDeployErrors(t *testing.T) {
	p := NewPeer()
	rec := &recorder{}
	p.AddListener(rec)
	if _, err := p.Server().Deploy(echoDef()); !errors.Is(err, ErrNoDeployer) {
		t.Fatalf("err = %v", err)
	}
	want := errors.New("port in use")
	p.Server().SetDeployer(&fakeDeployer{name: "d", err: want})
	if _, err := p.Server().Deploy(echoDef()); !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
	rec.mu.Lock()
	if len(rec.deployment) != 1 || rec.deployment[0].Err == nil {
		t.Fatalf("failure event: %+v", rec.deployment)
	}
	rec.mu.Unlock()
}

func TestPublishErrors(t *testing.T) {
	p := NewPeer()
	p.Server().SetDeployer(&fakeDeployer{name: "d"})
	d, err := p.Server().Deploy(echoDef())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Server().Publish(context.Background(), d); err == nil {
		t.Fatal("publish with no publishers accepted")
	}
	good := &fakePublisher{name: "good"}
	bad := &fakePublisher{name: "bad", err: errors.New("down")}
	p.Server().AddPublisher(good)
	p.Server().AddPublisher(bad)
	if err := p.Server().Publish(context.Background(), d); err == nil {
		t.Fatal("publisher failure not reported")
	}
	// The good publisher still published; undeploy withdraws it.
	if len(good.published) != 1 {
		t.Fatal("good publisher skipped")
	}
	if err := p.Server().Undeploy(context.Background(), "Echo"); err != nil {
		t.Fatal(err)
	}
	if len(good.unpublished) != 1 {
		t.Fatal("good publication not withdrawn")
	}
}

func TestExprQueryName(t *testing.T) {
	if (ExprQuery{}).QueryName() != "*" {
		t.Fatal("empty name should default to wildcard")
	}
	if (ExprQuery{Name: "Echo"}).QueryName() != "Echo" {
		t.Fatal("explicit name lost")
	}
}
