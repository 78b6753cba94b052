package p2ps

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"wspeer/internal/netsim"
)

// rig is a simulated overlay for protocol tests.
type rig struct {
	t   *testing.T
	sim *netsim.Simulator
	n   int
}

func newRig(t *testing.T, seed int64) *rig {
	t.Helper()
	sim := netsim.New(seed)
	sim.SetDefaultLink(netsim.Link{Latency: 5 * time.Millisecond})
	return &rig{t: t, sim: sim}
}

func (r *rig) peer(cfg Config) *Peer {
	r.t.Helper()
	r.n++
	ep, err := r.sim.NewEndpoint(fmt.Sprintf("n%d", r.n))
	if err != nil {
		r.t.Fatal(err)
	}
	cfg.Transport = ep
	cfg.Clock = r.sim
	p, err := NewPeer(cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	return p
}

// settle processes all outstanding events.
func (r *rig) settle() { r.sim.Run(0) }

func TestNewPeerValidation(t *testing.T) {
	if _, err := NewPeer(Config{}); err == nil {
		t.Fatal("missing transport accepted")
	}
}

func TestAttachAndGossip(t *testing.T) {
	r := newRig(t, 1)
	rdv1 := r.peer(Config{Name: "rdv1", Rendezvous: true})
	rdv2 := r.peer(Config{Name: "rdv2", Rendezvous: true, Seeds: []string{rdv1.Addr()}})
	r.settle()
	// Edge attaches to rdv2 only; gossip should teach it about rdv1.
	edge := r.peer(Config{Name: "edge", Seeds: []string{rdv2.Addr()}})
	r.settle()

	if _, ok := edge.ResolveEndpoint(rdv2.ID()); !ok {
		t.Fatal("edge did not learn rdv2's address")
	}
	edge.mu.Lock()
	nRdv := len(edge.rdvAddrs)
	edge.mu.Unlock()
	if nRdv != 2 {
		t.Fatalf("edge knows %d rendezvous, want 2 (seed + gossip)", nRdv)
	}
	if !rdv2.IsRendezvous() || edge.IsRendezvous() {
		t.Fatal("rendezvous flags")
	}
	// rdv1 learned about rdv2 through the attach.
	rdv1.mu.Lock()
	n1 := len(rdv1.rdvAddrs)
	rdv1.mu.Unlock()
	if n1 != 1 {
		t.Fatalf("rdv1 knows %d rendezvous, want 1", n1)
	}
}

func TestPublishAndCachedDiscovery(t *testing.T) {
	r := newRig(t, 2)
	rdv := r.peer(Config{Name: "rdv", Rendezvous: true})
	provider := r.peer(Config{Name: "prov", Seeds: []string{rdv.Addr()}})
	consumer := r.peer(Config{Name: "cons", Seeds: []string{rdv.Addr()}})
	r.settle()

	adv, err := provider.PublishService(&ServiceAdvertisement{
		Name:  "EchoService",
		Attrs: map[string]string{"kind": "echo"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if adv.ID == "" || adv.Peer != provider.ID() || adv.Group != "default" {
		t.Fatalf("publish fill-in: %+v", adv)
	}
	r.settle()
	if rdv.CacheLen() != 1 {
		t.Fatalf("rendezvous cache = %d", rdv.CacheLen())
	}

	d := consumer.Discover(Query{Name: "EchoService"}, time.Second)
	r.settle()
	select {
	case <-d.Done():
	default:
		t.Fatal("discovery not finished after timeout event")
	}
	matches := d.Matches()
	if len(matches) != 1 || matches[0].ID != adv.ID {
		t.Fatalf("matches = %+v", matches)
	}
	// The response taught the consumer the provider's address.
	if addr, ok := consumer.ResolveEndpoint(provider.ID()); !ok || addr != provider.Addr() {
		t.Fatalf("provider addr = %q, %v", addr, ok)
	}
	if rdv.Stats().QueriesServed != 1 {
		t.Fatalf("rdv stats: %+v", rdv.Stats())
	}
}

func TestDiscoveryAcrossRendezvousMesh(t *testing.T) {
	r := newRig(t, 3)
	rdv1 := r.peer(Config{Name: "rdv1", Rendezvous: true})
	rdv2 := r.peer(Config{Name: "rdv2", Rendezvous: true, Seeds: []string{rdv1.Addr()}})
	rdv3 := r.peer(Config{Name: "rdv3", Rendezvous: true, Seeds: []string{rdv2.Addr()}})
	r.settle()
	provider := r.peer(Config{Seeds: []string{rdv3.Addr()}})
	consumer := r.peer(Config{Seeds: []string{rdv1.Addr()}})
	r.settle()

	if _, err := provider.PublishService(&ServiceAdvertisement{Name: "FarService"}); err != nil {
		t.Fatal(err)
	}
	r.settle()

	d := consumer.Discover(Query{Name: "FarService"}, time.Second)
	r.settle()
	if len(d.Matches()) != 1 {
		t.Fatalf("cross-mesh discovery found %d", len(d.Matches()))
	}
}

func TestQueryTTLLimitsPropagation(t *testing.T) {
	r := newRig(t, 4)
	// Chain of 4 rendezvous; TTL 2 lets a query reach only the second.
	rdvs := make([]*Peer, 4)
	var prev string
	for i := range rdvs {
		seeds := []string{}
		if prev != "" {
			seeds = append(seeds, prev)
		}
		rdvs[i] = r.peer(Config{Name: fmt.Sprintf("rdv%d", i), Rendezvous: true, Seeds: seeds})
		r.settle()
		prev = rdvs[i].Addr()
	}
	// Neutralize gossip shortcuts: the chain must stay a chain for this
	// test, so attach each rendezvous knowing only its predecessor.
	// (Gossip may have added more links; measure what actually happens.)
	provider := r.peer(Config{Seeds: []string{rdvs[3].Addr()}})
	consumer := r.peer(Config{Seeds: []string{rdvs[0].Addr()}, QueryTTL: 1})
	r.settle()
	if _, err := provider.PublishService(&ServiceAdvertisement{Name: "Deep"}); err != nil {
		t.Fatal(err)
	}
	r.settle()

	// TTL 1: the query reaches rdv0 and is not forwarded.
	d := consumer.Discover(Query{Name: "Deep"}, time.Second)
	r.settle()
	if len(d.Matches()) != 0 {
		t.Fatalf("TTL-1 query should not reach a cache 4 hops away, got %d", len(d.Matches()))
	}
	if rdvs[0].Stats().QueriesForwarded != 0 {
		t.Fatalf("rdv0 forwarded despite TTL: %+v", rdvs[0].Stats())
	}
}

// TestTTLSweepShape sweeps the query TTL over a chain of rendezvous with
// the provider's home at the far end: TTL trades reach against traffic.
// Each TTL runs on a fresh overlay so message counts are comparable.
func TestTTLSweepShape(t *testing.T) {
	const chain = 4
	type result struct {
		reached  bool
		messages int64
	}
	sweep := map[int]result{}
	for _, ttl := range []int{1, 2, 3, 4} {
		r := newRig(t, 1)
		rdvs := make([]*Peer, chain)
		for i := range rdvs {
			var seeds []string
			if i > 0 {
				seeds = []string{rdvs[i-1].Addr()}
			}
			rdvs[i] = r.peer(Config{Rendezvous: true, QueryTTL: ttl, Seeds: seeds})
			r.settle()
		}
		provider := r.peer(Config{QueryTTL: ttl, Seeds: []string{rdvs[chain-1].Addr()}})
		consumer := r.peer(Config{QueryTTL: ttl, Seeds: []string{rdvs[0].Addr()}})
		r.settle()
		if _, err := provider.PublishService(&ServiceAdvertisement{Name: "Far"}); err != nil {
			t.Fatal(err)
		}
		r.settle()

		before := r.sim.Stats()
		d := consumer.Discover(Query{Name: "Far"}, 5*time.Second)
		r.settle()
		sweep[ttl] = result{
			reached:  len(d.Matches()) > 0,
			messages: r.sim.Stats().Sent - before.Sent,
		}
	}
	// TTL 1 cannot cross a 4-rendezvous chain; TTL 4 can.
	if sweep[1].reached {
		t.Error("TTL 1 reached the far end of a 4-chain")
	}
	if !sweep[4].reached {
		t.Error("TTL 4 failed to reach the far end of a 4-chain")
	}
	// Message cost is monotone in TTL until reach saturates.
	if sweep[2].messages < sweep[1].messages {
		t.Errorf("messages not monotone: ttl1=%d ttl2=%d", sweep[1].messages, sweep[2].messages)
	}
}

func TestQueryLoopSuppression(t *testing.T) {
	r := newRig(t, 5)
	// Triangle of rendezvous.
	a := r.peer(Config{Name: "a", Rendezvous: true})
	b := r.peer(Config{Name: "b", Rendezvous: true, Seeds: []string{a.Addr()}})
	c := r.peer(Config{Name: "c", Rendezvous: true, Seeds: []string{a.Addr(), b.Addr()}})
	r.settle()
	provider := r.peer(Config{Seeds: []string{c.Addr()}})
	consumer := r.peer(Config{Seeds: []string{a.Addr()}})
	r.settle()
	if _, err := provider.PublishService(&ServiceAdvertisement{Name: "Tri"}); err != nil {
		t.Fatal(err)
	}
	r.settle()

	d := consumer.Discover(Query{Name: "Tri"}, time.Second)
	n := r.sim.Run(0)
	if len(d.Matches()) != 1 {
		t.Fatalf("matches = %d", len(d.Matches()))
	}
	// Loop suppression keeps the event count finite and small.
	if n > 100 {
		t.Fatalf("suspiciously many events for a triangle: %d", n)
	}
}

func TestLocalMatchIsImmediate(t *testing.T) {
	r := newRig(t, 6)
	p := r.peer(Config{})
	if _, err := p.PublishService(&ServiceAdvertisement{Name: "Mine"}); err != nil {
		t.Fatal(err)
	}
	d := p.Discover(Query{Name: "Mine"}, time.Second)
	// No sim.Run needed: local adverts match synchronously.
	if len(d.Matches()) != 1 {
		t.Fatalf("local match = %d", len(d.Matches()))
	}
}

func TestDiscoverOne(t *testing.T) {
	r := newRig(t, 7)
	rdv := r.peer(Config{Rendezvous: true})
	provider := r.peer(Config{Seeds: []string{rdv.Addr()}})
	consumer := r.peer(Config{Seeds: []string{rdv.Addr()}})
	r.settle()
	provider.PublishService(&ServiceAdvertisement{Name: "One"})
	r.settle()

	got := make(chan *ServiceAdvertisement, 1)
	go func() { got <- consumer.DiscoverOne(Query{Name: "One"}, time.Second) }()
	// Drive the sim until the goroutine observes a match or timeout.
	deadline := time.After(5 * time.Second)
	for {
		r.settle()
		select {
		case adv := <-got:
			if adv == nil || adv.Name != "One" {
				t.Fatalf("DiscoverOne = %+v", adv)
			}
			return
		case <-deadline:
			t.Fatal("DiscoverOne never returned")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestUnpublish(t *testing.T) {
	r := newRig(t, 8)
	rdv := r.peer(Config{Rendezvous: true})
	provider := r.peer(Config{Seeds: []string{rdv.Addr()}})
	consumer := r.peer(Config{Seeds: []string{rdv.Addr()}})
	r.settle()
	adv, _ := provider.PublishService(&ServiceAdvertisement{Name: "Gone"})
	r.settle()
	if !provider.UnpublishService(adv.ID) {
		t.Fatal("unpublish")
	}
	if provider.UnpublishService(adv.ID) {
		t.Fatal("double unpublish")
	}
	r.settle()
	if rdv.CacheLen() != 0 {
		t.Fatalf("advert lingers in rendezvous cache: %d", rdv.CacheLen())
	}
	d := consumer.Discover(Query{Name: "Gone"}, time.Second)
	r.settle()
	if len(d.Matches()) != 0 {
		t.Fatal("unpublished service still discoverable")
	}
	if len(provider.LocalAdverts()) != 0 {
		t.Fatal("local advert lingers")
	}
}

func TestPipesEndToEnd(t *testing.T) {
	r := newRig(t, 9)
	rdv := r.peer(Config{Rendezvous: true})
	provider := r.peer(Config{Seeds: []string{rdv.Addr()}})
	consumer := r.peer(Config{Seeds: []string{rdv.Addr()}})
	r.settle()

	// Provider: input pipe advertised within a service.
	in, err := provider.CreateInputPipe("requests")
	if err != nil {
		t.Fatal(err)
	}
	var gotData []byte
	var gotFrom PeerID
	in.AddListener(func(from PeerID, data []byte) { gotFrom, gotData = from, data })
	provider.PublishService(&ServiceAdvertisement{
		Name:  "PipeService",
		Pipes: []PipeAdvertisement{*in.Advertisement()},
	})
	r.settle()

	// Consumer: discover, open output pipe, send.
	d := consumer.Discover(Query{Name: "PipeService"}, time.Second)
	r.settle()
	matches := d.Matches()
	if len(matches) != 1 {
		t.Fatalf("matches = %d", len(matches))
	}
	pipeAdv := matches[0].Pipe("requests")
	if pipeAdv == nil {
		t.Fatal("pipe advert missing from service advert")
	}
	out, err := consumer.OpenOutputPipe(pipeAdv)
	if err != nil {
		t.Fatal(err)
	}
	if out.RemoteAddr() != provider.Addr() {
		t.Fatalf("resolved addr = %q", out.RemoteAddr())
	}
	if err := out.Send([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if string(gotData) != "payload" || gotFrom != consumer.ID() {
		t.Fatalf("delivery: %q from %s", gotData, gotFrom)
	}
	if provider.Stats().DataDelivered != 1 {
		t.Fatalf("stats: %+v", provider.Stats())
	}

	// Closed pipes drop data.
	in.Close()
	out.Send([]byte("late"))
	r.settle()
	if provider.Stats().DataDropped != 1 {
		t.Fatalf("drop stats: %+v", provider.Stats())
	}
}

func TestOpenOutputPipeUnresolved(t *testing.T) {
	r := newRig(t, 10)
	p := r.peer(Config{})
	_, err := p.OpenOutputPipe(&PipeAdvertisement{ID: "x", Name: "n", Peer: "peer-unknown"})
	if err == nil {
		t.Fatal("unresolvable pipe accepted")
	}
	// Own pipes resolve to self.
	in, _ := p.CreateInputPipe("self")
	out, err := p.OpenOutputPipe(in.Advertisement())
	if err != nil || out.RemoteAddr() != p.Addr() {
		t.Fatalf("self pipe: %v", err)
	}
}

func TestResolvePeer(t *testing.T) {
	r := newRig(t, 11)
	rdv := r.peer(Config{Rendezvous: true})
	target := r.peer(Config{Seeds: []string{rdv.Addr()}})
	asker := r.peer(Config{Seeds: []string{rdv.Addr()}})
	r.settle()

	op := asker.ResolvePeer(target.ID(), time.Second)
	r.settle()
	select {
	case <-op.Done():
	default:
		t.Fatal("resolve did not finish")
	}
	addr, ok := op.Result()
	if !ok || addr != target.Addr() {
		t.Fatalf("resolved = %q, %v", addr, ok)
	}

	// Unknown peers expire without a result.
	op = asker.ResolvePeer(PeerID("peer-nonexistent"), time.Second)
	r.settle()
	if _, ok := op.Result(); ok {
		t.Fatal("resolved a nonexistent peer")
	}

	// Already-known peers resolve immediately.
	op = asker.ResolvePeer(target.ID(), time.Second)
	if _, ok := op.Result(); !ok {
		t.Fatal("cached resolution not immediate")
	}
}

func TestFloodModeWithoutCache(t *testing.T) {
	r := newRig(t, 12)
	rdv := r.peer(Config{Rendezvous: true, DisableCache: true})
	provider := r.peer(Config{Seeds: []string{rdv.Addr()}})
	consumer := r.peer(Config{Seeds: []string{rdv.Addr()}})
	r.settle()
	provider.PublishService(&ServiceAdvertisement{Name: "Flooded"})
	r.settle()
	if rdv.CacheLen() != 0 {
		t.Fatal("cache-disabled rendezvous cached anyway")
	}

	d := consumer.Discover(Query{Name: "Flooded"}, time.Second)
	r.settle()
	if len(d.Matches()) != 1 {
		t.Fatalf("flood discovery = %d", len(d.Matches()))
	}
	// The provider itself answered.
	if provider.Stats().QueriesServed != 1 {
		t.Fatalf("provider stats: %+v", provider.Stats())
	}
}

func TestGroupScoping(t *testing.T) {
	r := newRig(t, 13)
	rdv := r.peer(Config{Rendezvous: true})
	gridProv := r.peer(Config{Group: "grid", Seeds: []string{rdv.Addr()}})
	p2pProv := r.peer(Config{Group: "p2p", Seeds: []string{rdv.Addr()}})
	consumer := r.peer(Config{Group: "grid", Seeds: []string{rdv.Addr()}})
	r.settle()
	gridProv.PublishService(&ServiceAdvertisement{Name: "Svc"})
	p2pProv.PublishService(&ServiceAdvertisement{Name: "Svc"})
	r.settle()

	d := consumer.Discover(Query{Name: "Svc", Group: "grid"}, time.Second)
	r.settle()
	matches := d.Matches()
	if len(matches) != 1 || matches[0].Group != "grid" {
		t.Fatalf("group-scoped matches = %+v", matches)
	}
	// Ungrouped query sees both (dissemination across groups).
	d = consumer.Discover(Query{Name: "Svc"}, time.Second)
	r.settle()
	if len(d.Matches()) != 2 {
		t.Fatalf("ungrouped matches = %d", len(d.Matches()))
	}
}

func TestDiscoveryCancel(t *testing.T) {
	r := newRig(t, 14)
	p := r.peer(Config{})
	d := p.Discover(Query{Name: "X"}, time.Hour)
	d.Cancel()
	select {
	case <-d.Done():
	default:
		t.Fatal("cancel did not close Done")
	}
	d.Cancel() // idempotent
}

func TestOnMatchReplay(t *testing.T) {
	r := newRig(t, 15)
	p := r.peer(Config{})
	p.PublishService(&ServiceAdvertisement{Name: "Replay"})
	d := p.Discover(Query{Name: "Replay"}, time.Second)
	var got []*ServiceAdvertisement
	d.OnMatch(func(adv *ServiceAdvertisement) { got = append(got, adv) })
	if len(got) != 1 {
		t.Fatalf("late OnMatch not replayed: %d", len(got))
	}
}

func TestClosedPeerRefusesWork(t *testing.T) {
	r := newRig(t, 16)
	p := r.peer(Config{})
	p.Close()
	if _, err := p.CreateInputPipe("x"); err == nil {
		t.Fatal("pipe on closed peer")
	}
	if _, err := p.PublishService(&ServiceAdvertisement{Name: "x"}); err == nil {
		t.Fatal("publish on closed peer")
	}
}

func TestPublishValidation(t *testing.T) {
	r := newRig(t, 17)
	p := r.peer(Config{})
	if _, err := p.PublishService(&ServiceAdvertisement{}); err == nil {
		t.Fatal("nameless advert accepted")
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	// The same protocol over real TCP and the real clock.
	mk := func(seeds ...string) (*Peer, func()) {
		tr, err := NewTCPTransport("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Transport: tr, Seeds: seeds}
		if len(seeds) == 0 {
			cfg.Rendezvous = true
		}
		p, err := NewPeer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p, func() { p.Close() }
	}
	rdv, closeRdv := mk()
	defer closeRdv()
	provider, closeProv := mk(rdv.Addr())
	defer closeProv()
	consumer, closeCons := mk(rdv.Addr())
	defer closeCons()

	in, err := provider.CreateInputPipe("req")
	if err != nil {
		t.Fatal(err)
	}
	delivered := make(chan []byte, 1)
	in.AddListener(func(_ PeerID, data []byte) { delivered <- data })
	if _, err := provider.PublishService(&ServiceAdvertisement{
		Name:  "TCPEcho",
		Pipes: []PipeAdvertisement{*in.Advertisement()},
	}); err != nil {
		t.Fatal(err)
	}

	// Give publish a moment to land, then discover with a real deadline.
	var adv *ServiceAdvertisement
	for attempt := 0; attempt < 20 && adv == nil; attempt++ {
		adv = consumer.DiscoverOne(Query{Name: "TCPEcho"}, 250*time.Millisecond)
	}
	if adv == nil {
		t.Fatal("TCP discovery failed")
	}
	out, err := consumer.OpenOutputPipe(adv.Pipe("req"))
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Send([]byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-delivered:
		if string(data) != "over tcp" {
			t.Fatalf("data = %q", data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pipe data never arrived over TCP")
	}
}

func TestAdvertLeaseExpiry(t *testing.T) {
	r := newRig(t, 20)
	// Rendezvous with a 500ms lease on cached adverts.
	ep, err := r.sim.NewEndpoint("rdv-lease")
	if err != nil {
		t.Fatal(err)
	}
	rdv, err := NewPeer(Config{
		Rendezvous: true, Transport: ep, Clock: r.sim,
		AdvertTTL: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	provider := r.peer(Config{Seeds: []string{rdv.Addr()}})
	consumer := r.peer(Config{Seeds: []string{rdv.Addr()}})
	// Time-bounded runs: a full settle would also fire the lease expiry.
	r.sim.RunFor(50 * time.Millisecond)

	if _, err := provider.PublishService(&ServiceAdvertisement{Name: "Leased"}); err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(100 * time.Millisecond)
	if rdv.CacheLen() != 1 {
		t.Fatalf("cache = %d", rdv.CacheLen())
	}

	// Before the lease expires the service is discoverable.
	d := consumer.Discover(Query{Name: "Leased"}, 100*time.Millisecond)
	r.sim.RunFor(200 * time.Millisecond)
	if len(d.Matches()) != 1 {
		t.Fatal("not discoverable before expiry")
	}

	// After the lease expires (no republish) the advert is gone.
	r.sim.RunFor(time.Second)
	if rdv.CacheLen() != 0 {
		t.Fatalf("advert outlived its lease: cache = %d", rdv.CacheLen())
	}
	d = consumer.Discover(Query{Name: "Leased"}, 100*time.Millisecond)
	r.sim.RunFor(200 * time.Millisecond)
	if len(d.Matches()) != 0 {
		t.Fatal("expired advert still discoverable")
	}
}

func TestRepublishRefreshesLease(t *testing.T) {
	r := newRig(t, 21)
	ep, err := r.sim.NewEndpoint("rdv-lease2")
	if err != nil {
		t.Fatal(err)
	}
	rdv, err := NewPeer(Config{
		Rendezvous: true, Transport: ep, Clock: r.sim,
		AdvertTTL: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Publisher refreshes its adverts every 200ms, well inside the lease.
	ep2, err := r.sim.NewEndpoint("prov-lease2")
	if err != nil {
		t.Fatal(err)
	}
	provider, err := NewPeer(Config{
		Transport: ep2, Clock: r.sim,
		Seeds:             []string{rdv.Addr()},
		RepublishInterval: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(50 * time.Millisecond)
	if _, err := provider.PublishService(&ServiceAdvertisement{Name: "Refreshed"}); err != nil {
		t.Fatal(err)
	}
	// Run several lease periods: the advert must persist because of the
	// republish heartbeats.
	r.sim.RunFor(3 * time.Second)
	if rdv.CacheLen() != 1 {
		t.Fatalf("republished advert was dropped: cache = %d", rdv.CacheLen())
	}
	// Stop the provider: heartbeats cease, the lease runs out.
	provider.Close()
	r.sim.RunFor(3 * time.Second)
	if rdv.CacheLen() != 0 {
		t.Fatalf("dead provider's advert survived: cache = %d", rdv.CacheLen())
	}
}

func TestUnpublishCancelsLease(t *testing.T) {
	r := newRig(t, 22)
	ep, err := r.sim.NewEndpoint("rdv-lease3")
	if err != nil {
		t.Fatal(err)
	}
	rdv, err := NewPeer(Config{
		Rendezvous: true, Transport: ep, Clock: r.sim,
		AdvertTTL: time.Hour, // would outlive the test if leaked
	})
	if err != nil {
		t.Fatal(err)
	}
	provider := r.peer(Config{Seeds: []string{rdv.Addr()}})
	r.settle()
	adv, err := provider.PublishService(&ServiceAdvertisement{Name: "Gone"})
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	provider.UnpublishService(adv.ID)
	r.settle()
	if rdv.CacheLen() != 0 {
		t.Fatal("unpublish left the advert cached")
	}
	rdv.mu.Lock()
	leaks := len(rdv.leaseCancels)
	rdv.mu.Unlock()
	if leaks != 0 {
		t.Fatalf("%d lease timers leaked", leaks)
	}
}

func TestExprQueryDiscovery(t *testing.T) {
	r := newRig(t, 23)
	rdv := r.peer(Config{Rendezvous: true})
	provider := r.peer(Config{Seeds: []string{rdv.Addr()}})
	consumer := r.peer(Config{Seeds: []string{rdv.Addr()}})
	r.settle()
	provider.PublishService(&ServiceAdvertisement{
		Name:  "Market-A",
		Attrs: map[string]string{"kind": "market", "price": "0.4"},
	})
	provider.PublishService(&ServiceAdvertisement{
		Name:  "Market-B",
		Attrs: map[string]string{"kind": "market", "price": "2.0"},
	})
	r.settle()

	d := consumer.Discover(Query{Expr: `attr(kind) = 'market' and attr(price) < 1`}, time.Second)
	r.settle()
	matches := d.Matches()
	if len(matches) != 1 || matches[0].Name != "Market-A" {
		t.Fatalf("expr matches = %+v", matches)
	}

	// Name pattern and expression combine (AND).
	d = consumer.Discover(Query{Name: "Market-B", Expr: `attr(kind) = 'market'`}, time.Second)
	r.settle()
	if len(d.Matches()) != 1 || d.Matches()[0].Name != "Market-B" {
		t.Fatalf("combined matches = %+v", d.Matches())
	}

	// Malformed expressions fail closed: no matches, no crash.
	d = consumer.Discover(Query{Expr: `=`}, time.Second)
	r.settle()
	if len(d.Matches()) != 0 {
		t.Fatal("malformed expression matched")
	}
}

// TestSeenQueryWindowIsAFixedRing pushes far more query IDs through one peer
// than the window holds: the window keeps exactly the last seenQueryCap of
// them in a buffer that stops growing at that capacity.
func TestSeenQueryWindowIsAFixedRing(t *testing.T) {
	const total = 50000
	r := newRig(t, 41)
	p := r.peer(Config{})
	id := func(i int) string { return fmt.Sprintf("q-%d", i) }
	for i := 0; i < total; i++ {
		p.onReceive("sim://x", (&message{Type: msgQuery, From: "other", Addr: "sim://x", QueryID: id(i), Name: "None"}).encode())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.seenQueries) != seenQueryCap || len(p.seenOrder) != seenQueryCap || cap(p.seenOrder) != seenQueryCap {
		t.Fatalf("window holds %d IDs in a ring of len %d cap %d, want %d throughout",
			len(p.seenQueries), len(p.seenOrder), cap(p.seenOrder), seenQueryCap)
	}
	if p.seenQueries[id(0)] || p.seenQueries[id(total-seenQueryCap-1)] {
		t.Fatal("an ID older than the window is still remembered")
	}
	for i := total - seenQueryCap; i < total; i++ {
		if !p.seenQueries[id(i)] {
			t.Fatalf("ID %d of the last %d was forgotten", i, seenQueryCap)
		}
	}
	if p.markQuerySeenLocked(id(total - 1)) {
		t.Fatal("a remembered ID was reported new")
	}
}

// TestDiscoveryFinishForgetsHandle: a finished discovery — cancelled or
// timed out — is gone from the peer at once, with no goroutine left waiting
// on it.
func TestDiscoveryFinishForgetsHandle(t *testing.T) {
	handles := func(p *Peer) int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.discoveries)
	}
	ep := NewLocalNetwork().NewEndpoint()
	p, err := NewPeer(Config{Transport: ep})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	baseline := runtime.NumGoroutine()
	var ds []*Discovery
	for i := 0; i < 100; i++ {
		ds = append(ds, p.Discover(Query{Name: "X"}, time.Hour))
	}
	if n := handles(p); n != 100 {
		t.Fatalf("%d handles registered, want 100", n)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("100 open discoveries hold %d goroutines", n-baseline)
	}
	for _, d := range ds {
		d.Cancel()
	}
	if n := handles(p); n != 0 {
		t.Fatalf("%d handles left right after Cancel", n)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines: %d, want the baseline %d right after Cancel", n, baseline)
	}

	// The timeout path, on virtual time.
	r := newRig(t, 42)
	sp := r.peer(Config{})
	d := sp.Discover(Query{Name: "X"}, time.Second)
	r.sim.RunFor(2 * time.Second)
	select {
	case <-d.Done():
	default:
		t.Fatal("discovery outlived its timeout")
	}
	if n := handles(sp); n != 0 {
		t.Fatalf("%d handles left after the timeout", n)
	}
}

func TestTCPTransportAddrIsFixed(t *testing.T) {
	tr, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := tr.Addr()
	if want := "tcp://" + tr.ln.Addr().String(); addr != want {
		t.Fatalf("Addr() = %q, want %q", addr, want)
	}
	tr.Close()
	if tr.Addr() != addr {
		t.Fatal("Addr() changed after Close")
	}
}

// TestTCPTransportAddrAllocs: Addr is formatted once, not per call.
func TestTCPTransportAddrAllocs(t *testing.T) {
	tr, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if n := testing.AllocsPerRun(100, func() { _ = tr.Addr() }); n != 0 {
		t.Fatalf("Addr() allocates %v times a call", n)
	}
}
