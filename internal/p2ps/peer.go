package p2ps

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Config configures a peer.
type Config struct {
	// Name is a human-readable label.
	Name string
	// Group is the peer group ("default" when empty). Rendezvous peers
	// disseminate queries across groups; matching respects the query's
	// group constraint.
	Group string
	// Rendezvous makes this peer cache advertisements and propagate
	// queries to other rendezvous peers.
	Rendezvous bool
	// Transport attaches the peer to a network (required).
	Transport Transport
	// Clock schedules timeouts (RealClock when nil).
	Clock Clock
	// QueryTTL bounds query propagation across rendezvous hops (default 5).
	QueryTTL int
	// DisableCache turns the rendezvous advert cache off: queries are
	// flooded to attached peers instead of answered from the cache. The
	// netsim overlay's flood mode sets it, the baseline the discovery
	// claims weigh the cached mesh against.
	DisableCache bool
	// ReplicateAdverts makes a rendezvous forward adverts published by
	// its attached peers one hop to every other rendezvous it knows,
	// replicating the directory across the mesh. Queries are then
	// answerable at any entry rendezvous without propagation, spreading
	// query load across the mesh.
	ReplicateAdverts bool
	// AdvertTTL makes cached remote adverts expire after this lease
	// unless refreshed by a republish (0 = never expire). Leases are what
	// let the network forget services whose providers silently died.
	AdvertTTL time.Duration
	// RepublishInterval makes the peer push its local adverts to its home
	// rendezvous periodically, refreshing their leases (0 = publish
	// once). Note: in virtual-time simulations a republishing peer keeps
	// the event queue non-empty; drive such simulations with RunFor.
	RepublishInterval time.Duration
	// Seeds are transport addresses of rendezvous peers to attach to.
	Seeds []string
}

// PeerStats counts a peer's protocol activity.
type PeerStats struct {
	MessagesReceived int64
	MessagesSent     int64
	QueriesServed    int64 // queries answered with at least one match
	QueriesForwarded int64
	ResponsesSent    int64
	DataDelivered    int64
	DataDropped      int64 // data for unknown/closed pipes
}

// Peer is a P2PS peer: it publishes and discovers advertisements, owns
// pipes, and (when configured as a rendezvous) caches adverts and
// propagates queries.
type Peer struct {
	id        PeerID
	cfg       Config
	transport Transport
	clock     Clock

	mu           sync.Mutex
	localAdverts map[string]*ServiceAdvertisement
	cache        *AdvertCache
	pipes        map[string]*InputPipe
	knownPeers   map[PeerID]string // peer ID -> transport address
	children     map[PeerID]string // attached edge peers (rendezvous only)
	rdvAddrs     map[string]bool   // other rendezvous
	discoveries  map[string]*Discovery
	resolves     map[string]*ResolveOp
	seenQueries  map[string]bool
	seenOrder    []string // ring of the last seenQueryCap IDs, oldest at seenPos once full
	seenPos      int
	leaseCancels map[string]func() // advert ID -> expiry-timer cancel
	closed       bool

	msgsIn       atomic.Int64
	msgsOut      atomic.Int64
	queriesSrv   atomic.Int64
	queriesFwd   atomic.Int64
	responsesOut atomic.Int64
	dataOK       atomic.Int64
	dataDrop     atomic.Int64
}

const seenQueryCap = 8192

// NewPeer creates a peer on the transport and announces it to the
// configured seed rendezvous.
func NewPeer(cfg Config) (*Peer, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("p2ps: config needs a Transport")
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock
	}
	if cfg.Group == "" {
		cfg.Group = "default"
	}
	if cfg.QueryTTL <= 0 {
		cfg.QueryTTL = 5
	}
	p := &Peer{
		id:           NewPeerID(),
		cfg:          cfg,
		transport:    cfg.Transport,
		clock:        cfg.Clock,
		localAdverts: make(map[string]*ServiceAdvertisement),
		cache:        NewAdvertCache(DefaultCacheSize),
		pipes:        make(map[string]*InputPipe),
		knownPeers:   make(map[PeerID]string),
		children:     make(map[PeerID]string),
		rdvAddrs:     make(map[string]bool),
		discoveries:  make(map[string]*Discovery),
		resolves:     make(map[string]*ResolveOp),
		seenQueries:  make(map[string]bool),
		leaseCancels: make(map[string]func()),
	}
	for _, s := range cfg.Seeds {
		if s != "" && s != p.transport.Addr() {
			p.rdvAddrs[s] = true
		}
	}
	p.transport.SetReceiver(p.onReceive)
	// Announce ourselves to the seeds.
	adv := p.Advertisement()
	for _, seed := range cfg.Seeds {
		p.send(seed, &message{
			Type:    msgAttach,
			From:    p.id,
			Addr:    p.transport.Addr(),
			Group:   cfg.Group,
			PeerAdv: adv,
		})
	}
	if cfg.RepublishInterval > 0 {
		p.scheduleRepublish()
	}
	return p, nil
}

// scheduleRepublish refreshes the peer's advert leases periodically.
func (p *Peer) scheduleRepublish() {
	p.clock.AfterFunc(p.cfg.RepublishInterval, func() {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		adverts := make([]*ServiceAdvertisement, 0, len(p.localAdverts))
		for _, adv := range p.localAdverts {
			adverts = append(adverts, adv)
		}
		p.mu.Unlock()
		targets := p.seedTargets()
		for _, adv := range adverts {
			m := &message{
				Type:       msgPublish,
				From:       p.id,
				Addr:       p.transport.Addr(),
				Group:      adv.Group,
				ServiceAdv: adv,
			}
			for _, t := range targets {
				p.send(t, m)
			}
			if p.cfg.Rendezvous && !p.cfg.DisableCache {
				p.cacheWithLease(adv)
			}
		}
		p.scheduleRepublish()
	})
}

// cacheWithLease stores an advert and (re)arms its expiry timer.
func (p *Peer) cacheWithLease(adv *ServiceAdvertisement) {
	p.cache.Put(adv)
	if p.cfg.AdvertTTL <= 0 {
		return
	}
	id := adv.ID
	p.mu.Lock()
	if cancel := p.leaseCancels[id]; cancel != nil {
		cancel()
	}
	p.leaseCancels[id] = p.clock.AfterFunc(p.cfg.AdvertTTL, func() {
		p.cache.Remove(id)
		p.mu.Lock()
		delete(p.leaseCancels, id)
		p.mu.Unlock()
	})
	p.mu.Unlock()
}

// ID returns the peer's logical identity.
func (p *Peer) ID() PeerID { return p.id }

// Addr returns the peer's transport address.
func (p *Peer) Addr() string { return p.transport.Addr() }

// Group returns the peer's group name.
func (p *Peer) Group() string { return p.cfg.Group }

// IsRendezvous reports whether the peer acts as a rendezvous.
func (p *Peer) IsRendezvous() bool { return p.cfg.Rendezvous }

// Advertisement returns the peer's own PeerAdvertisement.
func (p *Peer) Advertisement() *PeerAdvertisement {
	return &PeerAdvertisement{
		ID:         p.id,
		Name:       p.cfg.Name,
		Addr:       p.transport.Addr(),
		Group:      p.cfg.Group,
		Rendezvous: p.cfg.Rendezvous,
	}
}

// Stats returns a snapshot of the peer's counters.
func (p *Peer) Stats() PeerStats {
	return PeerStats{
		MessagesReceived: p.msgsIn.Load(),
		MessagesSent:     p.msgsOut.Load(),
		QueriesServed:    p.queriesSrv.Load(),
		QueriesForwarded: p.queriesFwd.Load(),
		ResponsesSent:    p.responsesOut.Load(),
		DataDelivered:    p.dataOK.Load(),
		DataDropped:      p.dataDrop.Load(),
	}
}

// CacheLen reports how many remote adverts the peer has cached.
func (p *Peer) CacheLen() int { return p.cache.Len() }

// Close detaches the peer from the network.
func (p *Peer) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	return p.transport.Close()
}

func (p *Peer) send(to string, m *message) {
	p.msgsOut.Add(1)
	_ = p.transport.Send(to, m.encode()) // datagram semantics: drop errors
}

// ---------------------------------------------------------------------------
// Pipes

// CreateInputPipe allocates a named input pipe and returns it. Its
// advertisement can be published in a ServiceAdvertisement or serialized
// into a WS-Addressing ReplyTo header.
func (p *Peer) CreateInputPipe(name string) (*InputPipe, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("p2ps: peer is closed")
	}
	pipe := &InputPipe{
		peer: p,
		adv:  PipeAdvertisement{ID: NewPipeID(), Name: name, Peer: p.id},
	}
	p.pipes[pipe.adv.ID] = pipe
	return pipe, nil
}

func (p *Peer) removePipe(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.pipes, id)
}

// OpenOutputPipe resolves a pipe advertisement to an output pipe using the
// peer's endpoint knowledge. Use ResolvePeer first if the owning peer's
// address is not yet known.
func (p *Peer) OpenOutputPipe(adv *PipeAdvertisement) (*OutputPipe, error) {
	addr, ok := p.ResolveEndpoint(adv.Peer)
	if !ok {
		return nil, fmt.Errorf("p2ps: cannot resolve peer %s (run ResolvePeer or discover its services first)", adv.Peer)
	}
	return &OutputPipe{peer: p, adv: *adv, addr: addr}, nil
}

// ResolveEndpoint turns a peer's logical ID into a transport address from
// local knowledge — the role of the paper's P2PS EndpointResolver.
func (p *Peer) ResolveEndpoint(peer PeerID) (string, bool) {
	if peer == p.id {
		return p.transport.Addr(), true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	addr, ok := p.knownPeers[peer]
	return addr, ok
}

// ---------------------------------------------------------------------------
// Publish

// PublishService stores the advert locally and pushes it to the peer's
// rendezvous, which cache it for in-network discovery. Missing IDs and
// owner fields are filled in. The stored advert is returned.
func (p *Peer) PublishService(adv *ServiceAdvertisement) (*ServiceAdvertisement, error) {
	if adv.Name == "" {
		return nil, fmt.Errorf("p2ps: service advertisement needs a Name")
	}
	cp := *adv
	if cp.ID == "" {
		cp.ID = NewAdvertID()
	}
	if cp.Peer == "" {
		cp.Peer = p.id
	}
	if cp.Group == "" {
		cp.Group = p.cfg.Group
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("p2ps: peer is closed")
	}
	p.localAdverts[cp.ID] = &cp
	p.mu.Unlock()
	targets := p.seedTargets()

	m := &message{
		Type:       msgPublish,
		From:       p.id,
		Addr:       p.transport.Addr(),
		Group:      cp.Group,
		ServiceAdv: &cp,
	}
	for _, t := range targets {
		p.send(t, m)
	}
	// A rendezvous also answers for its own services from its cache.
	if p.cfg.Rendezvous && !p.cfg.DisableCache {
		p.cacheWithLease(&cp)
	}
	return &cp, nil
}

// UnpublishService withdraws a local advert by ID.
func (p *Peer) UnpublishService(id string) bool {
	p.mu.Lock()
	_, ok := p.localAdverts[id]
	delete(p.localAdverts, id)
	p.mu.Unlock()
	targets := p.seedTargets()
	if !ok {
		return false
	}
	p.cache.Remove(id)
	m := &message{Type: msgUnpublish, From: p.id, Addr: p.transport.Addr(), Name: id}
	for _, t := range targets {
		p.send(t, m)
	}
	return true
}

// LocalAdverts returns the peer's own published adverts.
func (p *Peer) LocalAdverts() []*ServiceAdvertisement {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*ServiceAdvertisement, 0, len(p.localAdverts))
	for _, adv := range p.localAdverts {
		out = append(out, adv)
	}
	return out
}

// rdvTargetsLocked returns the rendezvous mesh addresses to propagate to,
// excluding one address (the sender a message came from). Callers hold p.mu.
func (p *Peer) rdvTargetsLocked(except string) []string {
	out := make([]string, 0, len(p.rdvAddrs))
	for a := range p.rdvAddrs {
		if a != except && a != p.transport.Addr() {
			out = append(out, a)
		}
	}
	return out
}

// originTargetsLocked returns where this peer enters queries and
// resolutions into the network: a rendezvous uses its whole mesh, an edge
// peer its home rendezvous. Callers hold p.mu.
func (p *Peer) originTargetsLocked() []string {
	if p.cfg.Rendezvous {
		return p.rdvTargetsLocked("")
	}
	return p.seedTargets()
}

// seedTargets returns the peer's home rendezvous: where it publishes
// adverts and enters queries into the network. Edge peers talk only to
// their seeds; the rendezvous mesh handles wider dissemination.
func (p *Peer) seedTargets() []string {
	out := make([]string, 0, len(p.cfg.Seeds))
	for _, a := range p.cfg.Seeds {
		if a != "" && a != p.transport.Addr() {
			out = append(out, a)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Discovery

// Discovery is an in-progress query: matches accumulate as responses
// arrive, and Done is closed when the timeout elapses or Cancel is called.
type Discovery struct {
	ID string

	peer *Peer // forgets the handle when the discovery finishes

	mu      sync.Mutex
	matches []*ServiceAdvertisement
	hops    map[string]int // by advert ID, of every match: the IDs seen
	onMatch []func(*ServiceAdvertisement)
	done    chan struct{}
	closed  bool
	cancel  func()
}

// MeanHops averages the hop counts over all matches.
func (d *Discovery) MeanHops() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.matches) == 0 {
		return 0
	}
	total := 0
	for _, adv := range d.matches {
		total += d.hops[adv.ID]
	}
	return float64(total) / float64(len(d.matches))
}

// Matches returns the adverts discovered so far.
func (d *Discovery) Matches() []*ServiceAdvertisement {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*ServiceAdvertisement(nil), d.matches...)
}

// OnMatch registers a callback invoked for every new match (including
// matches already received, replayed synchronously).
func (d *Discovery) OnMatch(fn func(*ServiceAdvertisement)) {
	d.mu.Lock()
	existing := append([]*ServiceAdvertisement(nil), d.matches...)
	d.onMatch = append(d.onMatch, fn)
	d.mu.Unlock()
	for _, adv := range existing {
		fn(adv)
	}
}

// Done is closed when the discovery finishes.
func (d *Discovery) Done() <-chan struct{} { return d.done }

// Cancel finishes the discovery immediately.
func (d *Discovery) Cancel() { d.finish() }

func (d *Discovery) finish() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	cancel := d.cancel
	d.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	d.peer.mu.Lock()
	delete(d.peer.discoveries, d.ID)
	d.peer.mu.Unlock()
	close(d.done)
}

// setCancel installs the timeout-cancel function; if the discovery already
// finished (the timer fired before the assignment), the timer is cancelled
// immediately instead.
func (d *Discovery) setCancel(fn func()) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		fn()
		return
	}
	d.cancel = fn
	d.mu.Unlock()
}

func (d *Discovery) add(adv *ServiceAdvertisement) { d.addWithHops(adv, 0) }

func (d *Discovery) addWithHops(adv *ServiceAdvertisement, hops int) {
	d.mu.Lock()
	if _, seen := d.hops[adv.ID]; d.closed || seen {
		d.mu.Unlock()
		return
	}
	d.hops[adv.ID] = hops
	d.matches = append(d.matches, adv)
	fns := append([]func(*ServiceAdvertisement){}, d.onMatch...)
	d.mu.Unlock()
	for _, fn := range fns {
		fn(adv)
	}
}

// Discover broadcasts a query and returns a handle accumulating responses
// until the timeout. Local adverts and the local cache are matched
// immediately.
func (p *Peer) Discover(q Query, timeout time.Duration) *Discovery {
	_ = q.Prepare() // compile once; malformed expressions match nothing
	d := &Discovery{
		ID:   randomID("q-", 8),
		peer: p,
		hops: make(map[string]int),
		done: make(chan struct{}),
	}

	p.mu.Lock()
	p.discoveries[d.ID] = d
	p.markQuerySeenLocked(d.ID)
	var local []*ServiceAdvertisement
	for _, adv := range p.localAdverts {
		if q.Matches(adv) {
			local = append(local, adv)
		}
	}
	targets := p.originTargetsLocked()
	p.mu.Unlock()
	// Armed only now that the handle is registered: finish is what removes it.
	d.setCancel(p.clock.AfterFunc(timeout, d.finish))

	for _, adv := range local {
		d.add(adv)
	}
	for _, adv := range p.cache.Match(q) {
		d.add(adv)
	}

	m := &message{
		Type:    msgQuery,
		From:    p.id,
		Addr:    p.transport.Addr(),
		Group:   q.Group,
		TTL:     p.cfg.QueryTTL,
		QueryID: d.ID,
		Name:    q.Name,
		Expr:    q.Expr,
		Attrs:   q.Attrs,
	}
	for _, t := range targets {
		p.send(t, m)
	}
	return d
}

// DiscoverOne is a convenience wrapper returning the first match within the
// timeout, or nil.
func (p *Peer) DiscoverOne(q Query, timeout time.Duration) *ServiceAdvertisement {
	d := p.Discover(q, timeout)
	first := make(chan *ServiceAdvertisement, 1)
	d.OnMatch(func(adv *ServiceAdvertisement) {
		select {
		case first <- adv:
			d.Cancel()
		default:
		}
	})
	select {
	case adv := <-first:
		return adv
	case <-d.Done():
		select {
		case adv := <-first:
			return adv
		default:
		}
		if m := d.Matches(); len(m) > 0 {
			return m[0]
		}
		return nil
	}
}

// markQuerySeenLocked records a query or resolve ID and reports whether it
// was new. The window is the last seenQueryCap IDs: seenOrder grows to
// exactly that capacity and is then overwritten in place, oldest first.
func (p *Peer) markQuerySeenLocked(id string) bool {
	if p.seenQueries[id] {
		return false
	}
	if n := len(p.seenOrder); n == seenQueryCap {
		delete(p.seenQueries, p.seenOrder[p.seenPos])
		p.seenOrder[p.seenPos] = id
		p.seenPos = (p.seenPos + 1) % seenQueryCap
	} else {
		if n == cap(p.seenOrder) {
			grown := make([]string, n, min(max(2*n, 16), seenQueryCap))
			copy(grown, p.seenOrder)
			p.seenOrder = grown
		}
		p.seenOrder = append(p.seenOrder, id)
	}
	p.seenQueries[id] = true
	return true
}

// ---------------------------------------------------------------------------
// Resolution

// ResolveOp is an in-progress endpoint resolution.
type ResolveOp struct {
	Target PeerID

	mu     sync.Mutex
	addr   string
	ok     bool
	done   chan struct{}
	closed bool
	cancel func()
}

// Done is closed when the resolution finishes (successfully or not).
func (r *ResolveOp) Done() <-chan struct{} { return r.done }

// Result returns the resolved address, valid once Done is closed.
func (r *ResolveOp) Result() (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addr, r.ok
}

func (r *ResolveOp) resolve(addr string) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.addr, r.ok, r.closed = addr, true, true
	cancel := r.cancel
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	close(r.done)
}

func (r *ResolveOp) expire() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.done)
}

// setCancel installs the timeout-cancel function; if the resolution
// already finished, the timer is cancelled immediately instead.
func (r *ResolveOp) setCancel(fn func()) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		fn()
		return
	}
	r.cancel = fn
	r.mu.Unlock()
}

// ResolvePeer resolves a peer ID to a transport address, asking the
// rendezvous network if it is not locally known.
func (p *Peer) ResolvePeer(target PeerID, timeout time.Duration) *ResolveOp {
	op := &ResolveOp{Target: target, done: make(chan struct{})}
	if addr, ok := p.ResolveEndpoint(target); ok {
		op.resolve(addr)
		return op
	}
	qid := randomID("r-", 8)
	op.setCancel(p.clock.AfterFunc(timeout, op.expire))
	p.mu.Lock()
	p.resolves[qid] = op
	targets := p.originTargetsLocked()
	p.mu.Unlock()
	m := &message{
		Type:       msgResolve,
		From:       p.id,
		Addr:       p.transport.Addr(),
		TTL:        p.cfg.QueryTTL,
		QueryID:    qid,
		TargetPeer: target,
	}
	for _, t := range targets {
		p.send(t, m)
	}
	go func() {
		<-op.done
		p.mu.Lock()
		delete(p.resolves, qid)
		p.mu.Unlock()
	}()
	return op
}

// ---------------------------------------------------------------------------
// Message handling

func (p *Peer) onReceive(from string, data []byte) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return
	}
	m, err := decodeMessage(data)
	if err != nil {
		return // malformed datagrams are dropped
	}
	p.msgsIn.Add(1)
	switch m.Type {
	case msgAttach:
		p.handleAttach(m)
	case msgAttachResponse:
		p.handleAttachResponse(m)
	case msgPublish:
		p.handlePublish(m)
	case msgUnpublish:
		p.handleUnpublish(m)
	case msgQuery:
		p.handleQuery(from, m)
	case msgQueryResponse:
		p.handleQueryResponse(m)
	case msgResolve:
		p.handleResolve(m)
	case msgResolveResponse:
		p.handleResolveResponse(m)
	case msgData:
		p.handleData(m)
	}
}

func (p *Peer) learnPeerLocked(id PeerID, addr string) {
	if id != "" && addr != "" && id != p.id {
		p.knownPeers[id] = addr
	}
}

func (p *Peer) handleAttach(m *message) {
	p.mu.Lock()
	p.learnPeerLocked(m.From, m.Addr)
	if m.PeerAdv != nil && m.PeerAdv.Rendezvous {
		if m.Addr != p.transport.Addr() {
			p.rdvAddrs[m.Addr] = true
		}
	} else {
		p.children[m.From] = m.Addr
	}
	gossip := p.rdvTargetsLocked(m.Addr)
	p.mu.Unlock()
	p.send(m.Addr, &message{
		Type:     msgAttachResponse,
		From:     p.id,
		Addr:     p.transport.Addr(),
		Group:    p.cfg.Group,
		PeerAdv:  p.Advertisement(),
		RdvAddrs: gossip,
	})
}

func (p *Peer) handleAttachResponse(m *message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.learnPeerLocked(m.From, m.Addr)
	if m.PeerAdv != nil && m.PeerAdv.Rendezvous && m.Addr != p.transport.Addr() {
		p.rdvAddrs[m.Addr] = true
	}
	for _, a := range m.RdvAddrs {
		if a != "" && a != p.transport.Addr() {
			p.rdvAddrs[a] = true
		}
	}
}

func (p *Peer) handlePublish(m *message) {
	if m.ServiceAdv == nil {
		return
	}
	p.mu.Lock()
	p.learnPeerLocked(m.From, m.Addr)
	p.learnPeerLocked(m.ServiceAdv.Peer, m.Addr)
	var fwd []string
	if p.cfg.Rendezvous && p.cfg.ReplicateAdverts && !p.cfg.DisableCache && m.Hops == 0 {
		// Replicate the directory entry one hop across the mesh; a
		// non-zero hop count marks a replica that must not re-propagate.
		fwd = p.rdvTargetsLocked(m.Addr)
	}
	p.mu.Unlock()
	if p.cfg.Rendezvous && !p.cfg.DisableCache {
		p.cacheWithLease(m.ServiceAdv)
	}
	if len(fwd) > 0 {
		replica := *m
		replica.Hops = m.Hops + 1
		for _, t := range fwd {
			p.send(t, &replica)
		}
	}
}

func (p *Peer) handleUnpublish(m *message) {
	if m.Name == "" {
		return
	}
	removed := p.cache.Remove(m.Name)
	p.mu.Lock()
	if cancel := p.leaseCancels[m.Name]; cancel != nil {
		cancel()
		delete(p.leaseCancels, m.Name)
	}
	p.mu.Unlock()
	if !removed || !p.cfg.Rendezvous || !p.cfg.ReplicateAdverts || m.Hops != 0 {
		return
	}
	p.mu.Lock()
	fwd := p.rdvTargetsLocked(m.Addr)
	p.mu.Unlock()
	replica := *m
	replica.Hops = 1
	for _, t := range fwd {
		p.send(t, &replica)
	}
}

func (p *Peer) handleQuery(sender string, m *message) {
	p.mu.Lock()
	if !p.markQuerySeenLocked(m.QueryID) {
		p.mu.Unlock()
		return // propagation loop or duplicate
	}
	p.learnPeerLocked(m.From, m.Addr)
	q := Query{Name: m.Name, Attrs: m.Attrs, Group: m.Group, Expr: m.Expr}
	_ = q.Prepare() // malformed expressions simply match nothing
	var matches []*ServiceAdvertisement
	for _, adv := range p.localAdverts {
		if q.Matches(adv) {
			matches = append(matches, adv)
		}
	}
	p.mu.Unlock()

	if !p.cfg.DisableCache {
		for _, adv := range p.cache.Match(q) {
			dup := false
			for _, m2 := range matches {
				if m2.ID == adv.ID {
					dup = true
					break
				}
			}
			if !dup {
				matches = append(matches, adv)
			}
		}
	}

	if len(matches) > 0 {
		p.queriesSrv.Add(1)
	}
	for _, adv := range matches {
		resolved := ""
		if adv.Peer == p.id {
			resolved = p.transport.Addr()
		} else if addr, ok := p.ResolveEndpoint(adv.Peer); ok {
			resolved = addr
		}
		p.responsesOut.Add(1)
		p.send(m.Addr, &message{
			Type:         msgQueryResponse,
			From:         p.id,
			Addr:         p.transport.Addr(),
			QueryID:      m.QueryID,
			Hops:         m.Hops,
			ServiceAdv:   adv,
			ResolvedAddr: resolved,
		})
	}

	// Propagate across the rendezvous mesh while TTL remains.
	if p.cfg.Rendezvous && m.TTL > 1 {
		fwd := *m
		fwd.TTL = m.TTL - 1
		fwd.Hops = m.Hops + 1
		p.mu.Lock()
		targets := p.rdvTargetsLocked(sender)
		var flood []string
		if p.cfg.DisableCache {
			for id, addr := range p.children {
				if id != m.From && addr != sender {
					flood = append(flood, addr)
				}
			}
		}
		p.mu.Unlock()
		for _, t := range targets {
			p.queriesFwd.Add(1)
			p.send(t, &fwd)
		}
		for _, t := range flood {
			p.queriesFwd.Add(1)
			p.send(t, &fwd)
		}
	}
}

func (p *Peer) handleQueryResponse(m *message) {
	if m.ServiceAdv == nil {
		return
	}
	p.mu.Lock()
	p.learnPeerLocked(m.From, m.Addr)
	if m.ResolvedAddr != "" {
		p.learnPeerLocked(m.ServiceAdv.Peer, m.ResolvedAddr)
	}
	d := p.discoveries[m.QueryID]
	p.mu.Unlock()
	if d != nil {
		d.addWithHops(m.ServiceAdv, m.Hops)
	}
}

func (p *Peer) handleResolve(m *message) {
	p.mu.Lock()
	if !p.markQuerySeenLocked(m.QueryID) {
		p.mu.Unlock()
		return
	}
	p.learnPeerLocked(m.From, m.Addr)
	p.mu.Unlock()

	var resolved string
	if m.TargetPeer == p.id {
		resolved = p.transport.Addr()
	} else if addr, ok := p.ResolveEndpoint(m.TargetPeer); ok {
		resolved = addr
	}
	if resolved != "" {
		p.send(m.Addr, &message{
			Type:         msgResolveResponse,
			From:         p.id,
			Addr:         p.transport.Addr(),
			QueryID:      m.QueryID,
			TargetPeer:   m.TargetPeer,
			ResolvedAddr: resolved,
		})
		return
	}
	if p.cfg.Rendezvous && m.TTL > 1 {
		fwd := *m
		fwd.TTL = m.TTL - 1
		fwd.Hops = m.Hops + 1
		p.mu.Lock()
		targets := p.rdvTargetsLocked("")
		p.mu.Unlock()
		for _, t := range targets {
			p.send(t, &fwd)
		}
	}
}

func (p *Peer) handleResolveResponse(m *message) {
	p.mu.Lock()
	p.learnPeerLocked(m.From, m.Addr)
	p.learnPeerLocked(m.TargetPeer, m.ResolvedAddr)
	op := p.resolves[m.QueryID]
	p.mu.Unlock()
	if op != nil && m.ResolvedAddr != "" {
		op.resolve(m.ResolvedAddr)
	}
}

func (p *Peer) handleData(m *message) {
	p.mu.Lock()
	p.learnPeerLocked(m.From, m.Addr)
	pipe := p.pipes[m.PipeID]
	p.mu.Unlock()
	if pipe == nil {
		p.dataDrop.Add(1)
		return
	}
	p.dataOK.Add(1)
	pipe.deliver(m.From, m.Data)
}
