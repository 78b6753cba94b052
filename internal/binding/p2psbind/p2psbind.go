package p2psbind

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"wspeer/internal/binding"
	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/exchange"
	"wspeer/internal/p2ps"
	"wspeer/internal/pipeline"
	"wspeer/internal/resilience"
	"wspeer/internal/soap"
	"wspeer/internal/transport"
	"wspeer/internal/wsaddr"
	"wspeer/internal/wsdl"
	"wspeer/internal/xmlutil"
)

// deadlineName is the header propagating a caller's deadline down a pipe.
var deadlineName = xmlutil.N(transport.DeadlineNS, transport.DeadlineElement)

// Pipe names the binding uses within a service advertisement.
const (
	// RequestPipeName is the pipe invocations are sent down.
	RequestPipeName = "requests"
	// DefinitionPipeName is the pipe the WSDL is retrieved from — the
	// "definition pipe" extension the paper adds to P2PS service adverts.
	DefinitionPipeName = "definition"
	// ReplyPipeName is the persistent input pipe a consumer binding hosts
	// to receive the replies to its synchronous invocations.
	ReplyPipeName = "replies"
	// CallbackPipeName is the persistent input pipe a consumer hosts to
	// receive decoupled callback replies (core.CallbackHoster).
	CallbackPipeName = "callback-replies"
)

// Options configures the P2PS binding.
type Options struct {
	// Engine hosts the services (a fresh engine when nil).
	Engine *engine.Engine
	// Peer is the underlying P2PS peer (required).
	Peer *p2ps.Peer
	// DiscoveryTimeout bounds Locate calls (default 2s).
	DiscoveryTimeout time.Duration
	// ReplyTimeout bounds waits on reply pipes (default 10s).
	ReplyTimeout time.Duration
	// Retries is how many times an unanswered request is retransmitted
	// before ReplyTimeout expires (default 2, 0 disables). Retransmission
	// is safe because providers suppress duplicate MessageIDs and replay
	// the original response.
	Retries int
}

// EndpointAttr is the advertisement attribute carrying a foreign
// deployment's endpoint URI when the P2PS publisher announces a service it
// did not itself deploy (e.g. an HTTP-hosted service advertised over the
// overlay). Locate surfaces such adverts with that endpoint, so a mixed
// client can discover over P2PS and invoke over the endpoint's own scheme.
const EndpointAttr = "endpoint"

// Binding bundles the P2PS implementation's components. The generic
// attach/detach choreography and event forwarding come from the embedded
// binding.Base; only the pipe substrate specifics live here.
type Binding struct {
	*binding.Base
	pp               *p2ps.Peer
	discoveryTimeout time.Duration
	replyTimeout     time.Duration
	retries          int

	mu          sync.Mutex
	deployed    map[string]*deployedService
	foreignPubs map[string]*deployedService // advert ID -> definition-pipe state
	advertAttrs map[string]map[string]string
	replyPipes  []*p2ps.InputPipe // every hosted reply pipe, for Close
	closed      bool

	// inflight counts pipe dispatches in progress so Close can drain them.
	inflight sync.WaitGroup

	// Consumer side: synchronous invocations wait in pending for the reply
	// that arrives on the one reply pipe, hosted on first use.
	pending   *exchange.Table
	replyOnce sync.Once
	reply     core.ReplyEndpoint
	replyErr  error

	// Provider side: requests are retransmitted on loss, so the binding
	// remembers recent request MessageIDs and the replies sent for them.
	servedMu sync.Mutex
	served   *exchange.Window
}

// servedWindow is how many request MessageIDs a provider remembers.
const servedWindow = 4096

// deployedService is the binding-private state of one advertised service:
// a definition pipe serving its WSDL and, for the binding's own
// deployments, a request pipe (nil for a foreign publication).
type deployedService struct {
	name      string
	reqPipe   *p2ps.InputPipe
	defPipe   *p2ps.InputPipe
	wsdlBytes []byte
}

func (ds *deployedService) closePipes() {
	if ds.reqPipe != nil {
		ds.reqPipe.Close()
	}
	ds.defPipe.Close()
}

// New builds the binding over an existing P2PS peer.
func New(opts Options) (*Binding, error) {
	if opts.Peer == nil {
		return nil, fmt.Errorf("p2psbind: options need a P2PS peer")
	}
	if opts.Engine == nil {
		opts.Engine = engine.New()
	}
	if opts.DiscoveryTimeout <= 0 {
		opts.DiscoveryTimeout = 2 * time.Second
	}
	if opts.ReplyTimeout <= 0 {
		opts.ReplyTimeout = 10 * time.Second
	}
	if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	b := &Binding{
		pp:               opts.Peer,
		discoveryTimeout: opts.DiscoveryTimeout,
		replyTimeout:     opts.ReplyTimeout,
		retries:          opts.Retries,
		deployed:         make(map[string]*deployedService),
		foreignPubs:      make(map[string]*deployedService),
		advertAttrs:      make(map[string]map[string]string),
		pending:          exchange.NewTable(exchange.TableOptions{TTL: opts.ReplyTimeout}),
		served:           exchange.NewWindow(servedWindow),
	}
	b.Base = binding.NewBase("p2ps", []string{core.P2PSScheme}, opts.Engine, binding.Components{
		Deployer:   b.Deployer(),
		Publishers: []core.ServicePublisher{b.Publisher()},
		Locators:   []core.ServiceLocator{b.Locator()},
		Invokers:   []core.Invoker{b.Invoker()},
	})
	// Every P2PS request that wants an answer carries a non-anonymous
	// ReplyTo (a pipe-advert EPR): with this sender registered the engine
	// delivers every reply, fault or not, itself.
	opts.Engine.RegisterReplySender(core.P2PSScheme, b.ReplySender())
	return b, nil
}

// ReplySender delivers decoupled replies down the pipe the reply EPR
// advertises. Each reply is also recorded in the served-request window
// keyed by the request MessageID it relates to, so a retransmitted request
// replays the same response instead of being redispatched. Register it on
// another binding's engine to let that substrate answer requests whose
// ReplyTo is a P2PS pipe.
//
// A reply produced by one of this binding's own request-pipe dispatches is
// not written here but parked in the dispatch's heldReply, and leaves once
// the dispatch has returned (see handleRequest).
func (b *Binding) ReplySender() engine.ReplySender {
	return engine.ReplySenderFunc(func(ctx context.Context, to *wsaddr.EndpointReference, msg *exchange.Message) error {
		if msg.Headers != nil && msg.Headers.RelatesTo != "" {
			b.servedMu.Lock()
			b.served.Store(msg.Headers.RelatesTo, msg.Body)
			b.servedMu.Unlock()
		}
		if held, ok := ctx.Value(heldReplyKey{}).(*heldReply); ok {
			held.to, held.body = to, msg.Body
			return nil
		}
		return b.sendToEPR(to, msg.Body)
	})
}

// heldReply is the reply of one request-pipe dispatch, parked by the
// ReplySender until the dispatch has returned. Written from inside the
// dispatch it could reach the caller, and the caller's next request this
// provider, while the dispatch still held its admission slot and had not
// recorded its span and call row; an HTTP response has that ordering free.
type heldReply struct {
	to   *wsaddr.EndpointReference
	body []byte
}

type heldReplyKey struct{}

// sendToEPR resolves a reply EPR to an output pipe and sends data down it.
func (b *Binding) sendToEPR(epr *wsaddr.EndpointReference, data []byte) error {
	pipe, err := EPRToPipe(epr)
	if err != nil {
		return err
	}
	out, err := b.openPipe(pipe)
	if err != nil {
		return err
	}
	return out.Send(data)
}

// Peer exposes the underlying P2PS peer.
func (b *Binding) Peer() *p2ps.Peer { return b.pp }

// listen feeds a pipe's inbound messages to handle, counting each dispatch
// in flight so Close can drain them; messages arriving once the binding has
// been closed are dropped.
func (b *Binding) listen(pipe *p2ps.InputPipe, handle func(data []byte)) {
	pipe.AddListener(func(_ p2ps.PeerID, data []byte) {
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return
		}
		b.inflight.Add(1)
		b.mu.Unlock()
		defer b.inflight.Done()
		handle(data)
	})
}

// servePipes creates the input pipes of one advertised service: the
// definition pipe serving wsdlBytes and, when requests is set, the request
// pipe invocations are sent down.
func (b *Binding) servePipes(name string, wsdlBytes []byte, requests bool) (*deployedService, error) {
	b.mu.Lock()
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("p2psbind: binding is closed")
	}
	ds := &deployedService{name: name, wsdlBytes: wsdlBytes}
	var err error
	if ds.defPipe, err = b.pp.CreateInputPipe(DefinitionPipeName); err != nil {
		return nil, err
	}
	b.listen(ds.defPipe, func(data []byte) { b.handleDefinitionRequest(ds, data) })
	if requests {
		if ds.reqPipe, err = b.pp.CreateInputPipe(RequestPipeName); err != nil {
			ds.defPipe.Close()
			return nil, err
		}
		b.listen(ds.reqPipe, func(data []byte) { b.handleRequest(ds, data) })
	}
	return ds, nil
}

// advertAttrsFor builds a service's advertisement attributes: the binding
// marker, a foreign deployment's endpoint, then whatever SetAdvertAttrs
// attached.
func (b *Binding) advertAttrsFor(service, foreignEndpoint string) map[string]string {
	attrs := map[string]string{"binding": "wspeer-p2ps"}
	if foreignEndpoint != "" {
		attrs[EndpointAttr] = foreignEndpoint
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for k, v := range b.advertAttrs[service] {
		attrs[k] = v
	}
	return attrs
}

// Close stops the binding's substrate: every deployed service's pipes are
// closed (foreign-publication definition pipes included), the services are
// undeployed from the engine, every hosted reply pipe is closed, pending
// synchronous invocations fail with exchange.ErrClosed, and in-flight pipe
// dispatches are drained. Close is idempotent.
func (b *Binding) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	deployed := b.deployed
	foreign := b.foreignPubs
	replyPipes := b.replyPipes
	b.deployed = make(map[string]*deployedService)
	b.foreignPubs = make(map[string]*deployedService)
	b.replyPipes = nil
	b.mu.Unlock()

	for _, ds := range deployed {
		ds.closePipes()
		b.Engine().Undeploy(ds.name)
	}
	for _, ds := range foreign {
		ds.closePipes()
	}
	for _, pipe := range replyPipes {
		pipe.Close()
	}
	b.pending.Close()
	b.inflight.Wait()
	return nil
}

// ---------------------------------------------------------------------------
// Deployer

type deployer struct{ b *Binding }

// Deployer returns the pipe-based deployer.
func (b *Binding) Deployer() core.ServiceDeployer { return deployer{b} }

// Name implements core.ServiceDeployer.
func (d deployer) Name() string { return "p2ps" }

// Deploy implements core.ServiceDeployer: the service gets a request pipe
// and a definition pipe, and its WSDL is bound to its p2ps:// URI.
func (d deployer) Deploy(def engine.ServiceDef) (*core.Deployment, error) {
	b := d.b
	svc, err := b.Engine().Deploy(def)
	if err != nil {
		return nil, err
	}
	endpoint := core.P2PSURI{Peer: string(b.pp.ID()), Service: def.Name}.String()
	defs, err := svc.WSDL(wsdl.TransportP2PS, endpoint)
	var raw []byte
	if err == nil {
		raw, err = defs.Marshal()
	}
	var ds *deployedService
	if err == nil {
		ds, err = b.servePipes(def.Name, raw, true)
	}
	if err != nil {
		b.Engine().Undeploy(def.Name)
		return nil, err
	}
	b.mu.Lock()
	b.deployed[def.Name] = ds
	b.mu.Unlock()
	return &core.Deployment{
		Service:     svc,
		Endpoint:    endpoint,
		Definitions: defs,
		Deployer:    "p2ps",
		Extra:       ds,
	}, nil
}

// Undeploy implements core.ServiceDeployer.
func (d deployer) Undeploy(service string) error {
	b := d.b
	b.mu.Lock()
	ds := b.deployed[service]
	delete(b.deployed, service)
	b.mu.Unlock()
	if ds == nil {
		return fmt.Errorf("p2psbind: service %q not deployed", service)
	}
	ds.closePipes()
	if !b.Engine().Undeploy(service) {
		return fmt.Errorf("p2psbind: engine had no service %q", service)
	}
	return nil
}

// handleRequest implements the provider side of figures 5/6: parse the
// SOAP request — once: the engine is handed the envelope and headers read
// here — suppress duplicates, adopt the caller's deadline and dispatch
// through the engine, which sends the response down the pipe advertised in
// the request's ReplyTo (FaultTo for faults) header.
func (b *Binding) handleRequest(ds *deployedService, data []byte) {
	env, err := soap.Parse(data)
	if err != nil {
		return // no way to reply to an unparseable request
	}
	hdr, err := wsaddr.FromEnvelope(env)
	if err != nil {
		return
	}
	// Duplicate suppression: a retransmitted request replays the original
	// response rather than re-invoking the operation, to where the original
	// went: FaultTo for a fault when the request names one. Nothing is
	// replayed while the first copy is in flight or when it was never
	// answered (one-way). Unidentified requests cannot be deduplicated.
	if hdr.MessageID != "" {
		b.servedMu.Lock()
		replay, dup := b.served.Mark(hdr.MessageID)
		b.servedMu.Unlock()
		if dup {
			to := hdr.ReplyTo
			if hdr.FaultTo != nil {
				if prev, err := soap.Parse(replay); err == nil && prev.IsFault() {
					to = hdr.FaultTo
				}
			}
			if len(replay) > 0 && to != nil {
				_ = b.sendToEPR(to, replay) // pipes are datagrams: a lost replay is retransmitted for again
			}
			return
		}
	}
	// Adopt the caller's propagated deadline (the envelope-substrate twin
	// of the HTTP X-Wspeer-Deadline header): the engine drops dispatches
	// the caller has already abandoned instead of answering into the void.
	var held heldReply
	ctx := context.WithValue(context.Background(), heldReplyKey{}, &held)
	if text, ok := env.HeaderText(deadlineName); ok {
		if dl, ok := transport.ParseDeadline(text); ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, dl)
			defer cancel()
		}
	}
	_, err = b.Engine().ServeParsed(ctx, ds.name, &transport.Request{
		Endpoint:    hdr.To,
		Action:      hdr.Action,
		ContentType: soap.ContentType,
		Body:        data,
	}, env, hdr)
	if err != nil {
		// The engine refused the request before dispatch. An overload
		// becomes the P2PS equivalent of HTTP 503 + Retry-After: a Server
		// fault whose detail advertises the backoff in seconds.
		f := soap.ServerFault(err)
		if o, ok := resilience.AsOverload(err); ok {
			f = o.Fault()
		}
		b.Engine().DeliverReply(ctx, hdr, soap.NewEnvelope().SetFault(f))
	}
	// The dispatch is over (slot released, span and call row recorded):
	// now the reply the engine handed to the ReplySender may leave. None
	// was held for a one-way, or a request with nowhere to reply.
	if held.to != nil {
		_ = b.sendToEPR(held.to, held.body) // pipes are datagrams: the caller retransmits for a lost reply
	}
}

// handleDefinitionRequest serves the WSDL down the requester's reply pipe:
// the service advert's definition pipe is the channel "from which the
// service definition (WSDL in our case) can be retrieved".
func (b *Binding) handleDefinitionRequest(ds *deployedService, data []byte) {
	env, err := soap.Parse(data)
	if err != nil {
		return
	}
	hdr, err := wsaddr.FromEnvelope(env)
	if err != nil || hdr.ReplyTo == nil {
		return
	}
	_ = b.sendToEPR(hdr.ReplyTo, ds.wsdlBytes) // the requester times out and asks again
}

// openPipe opens an output pipe, falling back to an in-network endpoint
// resolution when the owning peer's address is not locally cached (e.g.
// the advert was relayed by a third party, or the EPR arrived detached
// from any discovery).
func (b *Binding) openPipe(adv *p2ps.PipeAdvertisement) (*p2ps.OutputPipe, error) {
	out, err := b.pp.OpenOutputPipe(adv)
	if err == nil {
		return out, nil
	}
	op := b.pp.ResolvePeer(adv.Peer, b.replyTimeout)
	<-op.Done()
	if _, ok := op.Result(); !ok {
		return nil, fmt.Errorf("p2psbind: cannot resolve peer %s", adv.Peer)
	}
	return b.pp.OpenOutputPipe(adv)
}

// ---------------------------------------------------------------------------
// Publisher

type publisher struct{ b *Binding }

// Publisher returns the advert publisher.
func (b *Binding) Publisher() core.ServicePublisher { return publisher{b} }

// Name implements core.ServicePublisher.
func (p publisher) Name() string { return "p2ps-advert" }

// SetAdvertAttrs attaches extra attributes to a service's advertisement
// when it is published, feeding P2PS's attribute-based search. Call it
// before Publish.
func (b *Binding) SetAdvertAttrs(service string, attrs map[string]string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advertAttrs[service] = attrs
}

// Publish implements core.ServicePublisher. A deployment made by the p2ps
// deployer is published as an extended ServiceAdvertisement carrying its
// request and definition pipes. A foreign deployment — made by another
// binding's deployer, the mixed-provider case — is advertised without a
// request pipe: its endpoint URI rides in the EndpointAttr attribute, and
// a definition pipe is created here so discoverers can still retrieve the
// WSDL over the overlay.
func (p publisher) Publish(ctx context.Context, dep *core.Deployment) (string, error) {
	ds, ok := dep.Extra.(*deployedService)
	if !ok {
		return p.b.publishForeign(dep)
	}
	adv := &p2ps.ServiceAdvertisement{
		Name:           ds.name,
		Pipes:          []p2ps.PipeAdvertisement{*ds.reqPipe.Advertisement()},
		DefinitionPipe: ds.defPipe.Advertisement(),
		Attrs:          p.b.advertAttrsFor(ds.name, ""),
	}
	published, err := p.b.pp.PublishService(adv)
	if err != nil {
		return "", err
	}
	return published.ID, nil
}

// publishForeign advertises a deployment another binding made: no request
// pipe (invocations go to the advertised endpoint over its own scheme),
// but a definition pipe serving the deployment's WSDL.
func (b *Binding) publishForeign(dep *core.Deployment) (string, error) {
	name := dep.Service.Name()
	if dep.Endpoint == "" {
		return "", fmt.Errorf("p2psbind: foreign deployment %q has no endpoint to advertise", name)
	}
	if dep.Definitions == nil {
		return "", fmt.Errorf("p2psbind: foreign deployment %q has no definitions", name)
	}
	raw, err := dep.Definitions.Marshal()
	if err != nil {
		return "", err
	}
	ds, err := b.servePipes(name, raw, false)
	if err != nil {
		return "", err
	}
	published, err := b.pp.PublishService(&p2ps.ServiceAdvertisement{
		Name:           name,
		DefinitionPipe: ds.defPipe.Advertisement(),
		Attrs:          b.advertAttrsFor(name, dep.Endpoint),
	})
	if err != nil {
		ds.closePipes()
		return "", err
	}
	b.mu.Lock()
	b.foreignPubs[published.ID] = ds
	b.mu.Unlock()
	return published.ID, nil
}

// Unpublish implements core.ServicePublisher.
func (p publisher) Unpublish(ctx context.Context, location string) error {
	b := p.b
	b.mu.Lock()
	ds := b.foreignPubs[location]
	delete(b.foreignPubs, location)
	b.mu.Unlock()
	if ds != nil {
		ds.closePipes()
	}
	if !b.pp.UnpublishService(location) {
		return fmt.Errorf("p2psbind: no advert %q", location)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Invoker

type invoker struct{ b *Binding }

// Invoker returns the pipe invoker.
func (b *Binding) Invoker() core.Invoker { return invoker{b} }

// Schemes implements core.Invoker.
func (i invoker) Schemes() []string { return []string{core.P2PSScheme} }

// Invoke implements core.Invoker: figures 5 and 6 in code, and the
// one way a message leaves this binding. The request pipe is resolved from
// the service advert, the envelope is stamped with WS-Addressing headers
// and the caller's deadline, and the SOAP travels down the remote pipe.
// One-way and callback sends (exchange headers on the carrier, minted by
// core) return once the pipe write completes, the transport-level ack.
// Everything else is request/response: ReplyTo names the binding's own
// persistent reply pipe, the MessageID is registered in the pending table
// and the call waits on the Future the reply's RelatesTo resolves — except
// that a WSDL one-way operation registers nothing and returns after the
// write.
func (i invoker) Invoke(c *pipeline.Call, svc *core.ServiceInfo, op string, params []engine.Param) (*engine.Result, error) {
	b := i.b
	ctx := c.Ctx
	tgt, err := b.targetFor(ctx, svc)
	if err != nil {
		return nil, err
	}
	if tgt.pipe == nil {
		return nil, fmt.Errorf("p2psbind: advert %q has no %q pipe", tgt.adv.Name, RequestPipeName)
	}
	if svc.Definitions == nil {
		return nil, fmt.Errorf("p2psbind: service %q has no definitions", svc.Name)
	}
	env, det, err := engine.NewStub(svc.Definitions, nil).PrepareEnvelope(op, params...)
	if err != nil {
		return nil, err
	}

	// Fig. 5 steps 1-3: the pipe the response should come back on,
	// serialized to WS-Addressing standards, rides in the SOAP request.
	hdr := wsaddr.HeadersFor(tgt.epr, tgt.action)
	await := false
	if xh := binding.ExchangeHeaders(c); xh != nil {
		if xh.MessageID != "" {
			hdr.MessageID = xh.MessageID // the ID the client's table is keyed by
		}
		hdr.ReplyTo = xh.ReplyTo // nil for one-way: no reply is expected
		hdr.FaultTo = xh.FaultTo
	} else if await = !det.Operation.OneWay(); await {
		ep, err := b.replyEndpoint()
		if err != nil {
			return nil, err
		}
		hdr.ReplyTo = ep.EPR()
	}
	if err := hdr.Apply(env); err != nil {
		return nil, err
	}
	// Propagate the caller's deadline as a (non-mustUnderstand) SOAP
	// header, the pipe substrate's equivalent of X-Wspeer-Deadline.
	ttl := b.replyTimeout
	if dl, ok := ctx.Deadline(); ok {
		env.AddHeaderValue(&soap.TextHeader{Name: deadlineName, Text: transport.FormatDeadline(dl)})
		if until := time.Until(dl); until < ttl {
			ttl = until
		}
	}

	// Fig. 5 step 5: send the SOAP down the remote pipe.
	out, err := b.openPipe(tgt.pipe)
	if err != nil {
		return nil, err
	}
	wire := env.Marshal()
	c.Request = &transport.Request{
		Endpoint:    svc.Endpoint,
		Action:      hdr.Action,
		ContentType: soap.ContentType,
		Body:        wire,
	}
	if !await {
		if err := out.Send(wire); err != nil {
			return nil, err
		}
		c.Response = &transport.Response{}
		return nil, nil
	}
	reply, err := b.pending.Register(hdr.MessageID, ttl)
	if err != nil {
		return nil, err
	}
	defer b.pending.Cancel(hdr.MessageID) // a no-op once the reply resolved it
	if err := out.Send(wire); err != nil {
		return nil, err
	}

	// Fig. 5 steps 6-8: await the response on the reply pipe. Pipes are
	// datagrams, so an unanswered request is retransmitted — the identical
	// bytes, hence the identical MessageID — within the reply window; the
	// provider's duplicate suppression makes that safe.
	attempts := b.retries + 1
	perAttempt := b.replyTimeout / time.Duration(attempts)
	retry := time.NewTimer(perAttempt)
	defer retry.Stop()
	for sent := 1; ; {
		select {
		case <-reply.Done():
			msg, err := reply.Wait(ctx)
			var expired *exchange.ExpiredError
			if errors.As(err, &expired) {
				return nil, fmt.Errorf("p2psbind: no response from %s (%d attempts): %w", svc.Endpoint, sent, err)
			}
			if err != nil {
				return nil, err
			}
			c.Response = &transport.Response{Body: msg.Body, Faulted: msg.Envelope.IsFault()}
			return engine.DecodeResponseEnvelope(msg.Envelope, det)
		case <-retry.C:
			if sent < attempts {
				sent++
				_ = out.Send(wire) // a lost copy is what the next attempt is for
				retry.Reset(perAttempt)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// pipeReplyEndpoint is a consumer-hosted persistent reply pipe.
type pipeReplyEndpoint struct {
	epr  *wsaddr.EndpointReference
	pipe *p2ps.InputPipe
}

// EPR implements core.ReplyEndpoint.
func (e *pipeReplyEndpoint) EPR() *wsaddr.EndpointReference { return e.epr }

// Close implements core.ReplyEndpoint.
func (e *pipeReplyEndpoint) Close() error {
	e.pipe.Close()
	return nil
}

// hostReplyPipe creates a persistent input pipe whose inbound messages are
// fed to deliver; its advert EPR is what requests carry as ReplyTo. The
// pipe lives until its Close or the binding's.
func (b *Binding) hostReplyPipe(name string, deliver func(body []byte)) (core.ReplyEndpoint, error) {
	pipe, err := b.pp.CreateInputPipe(name)
	if err != nil {
		return nil, err
	}
	b.listen(pipe, deliver)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		pipe.Close()
		return nil, fmt.Errorf("p2psbind: binding is closed")
	}
	b.replyPipes = append(b.replyPipes, pipe)
	return &pipeReplyEndpoint{epr: PipeToEPR(pipe.Advertisement(), ""), pipe: pipe}, nil
}

// replyEndpoint returns the reply pipe of the binding's own synchronous
// invocations, hosting it on first use: its messages resolve the pending
// table.
func (b *Binding) replyEndpoint() (core.ReplyEndpoint, error) {
	b.replyOnce.Do(func() {
		b.reply, b.replyErr = b.hostReplyPipe(ReplyPipeName, b.pending.Deliver)
	})
	return b.reply, b.replyErr
}

// HostReplyEndpoint implements core.CallbackHoster: the callback pattern
// hosts a persistent input pipe of the client's own, whose advert EPR is
// stamped as the ReplyTo of every callback invocation; inbound replies are
// fed to deliver and correlated by the client's table.
func (i invoker) HostReplyEndpoint(deliver func(body []byte)) (core.ReplyEndpoint, error) {
	return i.b.hostReplyPipe(CallbackPipeName, deliver)
}
