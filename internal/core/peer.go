package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"wspeer/internal/engine"
	"wspeer/internal/exchange"
	"wspeer/internal/pipeline"
	"wspeer/internal/resilience"
	"wspeer/internal/resolve"
	"wspeer/internal/telemetry"
	"wspeer/internal/transport"
)

// Spine counters for the failover walk: attempts actually sent to an
// endpoint, and endpoints skipped because their breaker was open.
var (
	mFailoverAttempts = telemetry.Default().Meter.Counter("core.failover.attempts")
	mFailoverSkips    = telemetry.Default().Meter.Counter("core.failover.skips")
)

// Peer is the root of the WSPeer interface tree (paper Fig. 2). It owns the
// client and server sides and the event bus through which every
// component's activity reaches the application's PeerMessageListeners.
type Peer struct {
	bus    eventBus
	client *Client
	server *Server

	bmu      sync.Mutex
	bindings map[string]Binding // attached via AttachBinding, by name
}

// NewPeer returns a peer with empty client and server sides; bindings
// populate them with locators, publishers, deployers and invokers.
func NewPeer() *Peer {
	p := &Peer{}
	p.client = &Client{peer: p, invokers: make(map[string]Invoker)}
	// ClientMessageEvents fire from the pipeline's Events choke point:
	// installed first, it sits outermost, so later-installed interceptors
	// (Retry in particular) produce one event per logical invocation.
	p.client.chain = pipeline.NewChain(pipeline.Events(func(c *pipeline.Call) {
		res, _ := c.GetMeta(MetaResult).(*engine.Result)
		p.bus.fireClient(ClientMessageEvent{
			Service:   c.Service,
			Operation: c.Op,
			Result:    res,
			Err:       c.Err,
		})
	}))
	p.client.rcache = resolve.New(resolve.Options{})
	p.client.sched = newScheduler(SchedulerOptions{})
	p.client.ConfigureBreakers(resilience.BreakerOptions{})
	p.server = &Server{peer: p, deployments: make(map[string]*Deployment), published: make(map[string][]publication)}
	return p
}

// Client returns the client side of the peer.
func (p *Peer) Client() *Client { return p.client }

// Server returns the server side of the peer.
func (p *Peer) Server() *Server { return p.server }

// AddListener subscribes the application to the peer's events.
func (p *Peer) AddListener(l PeerMessageListener) { p.bus.add(l) }

// RemoveListener unsubscribes a listener; it reports whether the listener
// was registered.
func (p *Peer) RemoveListener(l PeerMessageListener) bool { return p.bus.remove(l) }

// FireServerMessage feeds a raw server-side exchange into the event tree.
// Bindings hook their hosts' observers to this (paper: the application "is
// notified of all requests and responses either side of being processed by
// the underlying messaging system").
func (p *Peer) FireServerMessage(service string, req *transport.Request, resp *transport.Response) {
	p.bus.fireServer(ServerMessageEvent{Service: service, Request: req, Response: resp})
}

// ---------------------------------------------------------------------------
// Client

// Client is the consumer side of the peer: it locates services through its
// registered locators and creates Invocations bound to located services.
type Client struct {
	peer *Peer

	// chain is the client-side call pipeline: every Invocation made
	// through this client flows application → interceptors → invoker →
	// scheme-selected transport. NewPeer preloads it with the Events
	// choke point.
	chain *pipeline.Chain

	mu       sync.RWMutex
	locators []ServiceLocator
	invokers map[string]Invoker      // by endpoint scheme
	breakers *resilience.Group       // endpoint health registry
	rcache   *resolve.Cache          // discovery resolution cache (LocateCached)
	sched    *scheduler              // bounded pool behind InvokeAsync/InvokeMany
	budget   *resilience.RetryBudget // retransmission budget shared by Retry/Hedge

	// exch is the client side of the message-exchange layer (see
	// exchange.go): the callback correlation table and hosted reply
	// endpoints, built lazily so clients that never use the asynchronous
	// patterns pay nothing for them.
	exch clientExchange
}

// Use installs client-side pipeline interceptors (Deadline, Retry, or
// custom ones) around every invocation made through this
// client, existing Invocations included. Earlier-installed interceptors
// run outermost.
func (c *Client) Use(ics ...pipeline.Interceptor) { c.chain.Use(ics...) }

// ConfigureBreakers replaces the client's endpoint health registry with
// one built from opts. Breaker state transitions always reach the peer's
// event tree as HealthEvents, composed after any OnChange in opts. Call
// it before invoking: existing breakers (and their accumulated state) are
// discarded.
func (c *Client) ConfigureBreakers(opts resilience.BreakerOptions) {
	user := opts.OnChange
	opts.OnChange = func(ep string, from, to resilience.BreakerState) {
		if user != nil {
			user(ep, from, to)
		}
		// A breaker opening condemns the endpoint: evict it from every
		// cached resolution so LocateCached stops offering it until a
		// live re-discovery (or half-open recovery) brings it back.
		if to == resilience.BreakerOpen {
			c.ResolutionCache().EvictEndpoint(ep)
		}
		c.peer.bus.fireHealth(HealthEvent{Endpoint: ep, From: from.String(), To: to.String()})
	}
	g := resilience.NewGroup(opts)
	c.mu.Lock()
	c.breakers = g
	c.mu.Unlock()
}

// Breakers returns the client's endpoint health registry: one circuit
// breaker per endpoint this client has invoked through a failover or
// hedged invocation.
func (c *Client) Breakers() *resilience.Group {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.breakers
}

// Pipeline exposes the client-side interceptor chain.
func (c *Client) Pipeline() *pipeline.Chain { return c.chain }

// ConfigureRetryBudget installs a retransmission budget on the client and
// returns it. Once installed, every invocation carries the budget on its
// pipeline Meta (pipeline.MetaRetryBudget): installed Retry interceptors
// draw a token per retransmission, Hedge draws one per hedge, and each
// logical invocation that succeeds credits a fraction back — so across
// the whole client, retries plus hedges are bounded to a fraction of the
// success rate and cannot storm a struggling server.
func (c *Client) ConfigureRetryBudget(opts resilience.BudgetOptions) *resilience.RetryBudget {
	b := resilience.NewRetryBudget(opts)
	c.mu.Lock()
	c.budget = b
	c.mu.Unlock()
	return b
}

// AddLocator registers a locator. Multiple locators can coexist — e.g. a
// P2PS peer using the UDDI locator alongside advert discovery (paper §IV:
// "these implementations need not remain self-contained"). Registering a
// locator that is already present is a no-op, so re-attaching a binding
// does not accumulate duplicates.
func (c *Client) AddLocator(l ServiceLocator) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, have := range c.locators {
		if componentEqual(have, l) {
			return
		}
	}
	c.locators = append(c.locators, l)
}

// RemoveLocator removes a previously added locator; it reports whether the
// locator was registered.
func (c *Client) RemoveLocator(l ServiceLocator) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, have := range c.locators {
		if componentEqual(have, l) {
			c.locators = append(c.locators[:i], c.locators[i+1:]...)
			return true
		}
	}
	return false
}

// RegisterInvoker registers an invoker for its endpoint schemes. A scheme
// already served by the same invoker is left untouched (double-attach is a
// no-op); a scheme served by a different invoker is taken over (last
// registered wins).
func (c *Client) RegisterInvoker(inv Invoker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range inv.Schemes() {
		if componentEqual(c.invokers[s], inv) {
			continue
		}
		c.invokers[s] = inv
	}
}

// UnregisterInvoker removes the invoker from every scheme it still serves;
// it reports whether any scheme was removed. Schemes taken over by a later
// RegisterInvoker are left with their current invoker.
func (c *Client) UnregisterInvoker(inv Invoker) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := false
	for s, have := range c.invokers {
		if componentEqual(have, inv) {
			delete(c.invokers, s)
			removed = true
		}
	}
	return removed
}

// Locators returns the registered locators.
func (c *Client) Locators() []ServiceLocator {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]ServiceLocator(nil), c.locators...)
}

// Locate runs the query against every registered locator concurrently and
// returns all located services. Each find fires a DiscoveryEvent, and a
// final Done event is fired before Locate returns. Locator failures are
// reported as events and in the joined error, but do not suppress results
// from other locators.
func (c *Client) Locate(ctx context.Context, q ServiceQuery) ([]*ServiceInfo, error) {
	var found []*ServiceInfo
	n, err := c.locate(ctx, q, func(info *ServiceInfo) { found = append(found, info) })
	if n == 0 && err != nil {
		return nil, err
	}
	return found, nil
}

// locate is the shared discovery walk behind Locate and LocateAsync: the
// query runs against every registered locator concurrently, each hit is
// delivered to emit as the locator reports it (emit calls are serialized,
// never concurrent), and each hit and failure fires a DiscoveryEvent. It
// returns the number of hits and the joined locator error; the final
// Done event fires before it returns.
func (c *Client) locate(ctx context.Context, q ServiceQuery, emit func(*ServiceInfo)) (int, error) {
	locators := c.Locators()
	if len(locators) == 0 {
		return 0, ErrNoLocator
	}
	var mu sync.Mutex
	var found int
	var errs []error
	var wg sync.WaitGroup
	for _, loc := range locators {
		wg.Add(1)
		go func(loc ServiceLocator) {
			defer wg.Done()
			err := loc.Locate(ctx, q, func(info *ServiceInfo) {
				if info.Locator == "" {
					info.Locator = loc.Name()
				}
				mu.Lock()
				found++
				emit(info)
				mu.Unlock()
				c.peer.bus.fireDiscovery(DiscoveryEvent{Query: q, Service: info, Locator: loc.Name()})
			})
			if err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("%s: %w", loc.Name(), err))
				mu.Unlock()
				c.peer.bus.fireDiscovery(DiscoveryEvent{Query: q, Locator: loc.Name(), Err: err})
			}
		}(loc)
	}
	wg.Wait()
	err := errors.Join(errs...)
	c.peer.bus.fireDiscovery(DiscoveryEvent{Query: q, Done: true, Err: err})
	return found, err
}

// LocateAsync starts a discovery and returns immediately; results arrive
// through the peer's DiscoveryEvents and through the optional callbacks.
// Each hit is streamed to onFound as its locator reports it — the
// event-driven mode the paper describes — not buffered until the whole
// search completes; onFound calls are serialized. onDone receives the
// joined locator error only when nothing was found (matching Locate's
// partial-failure rule), after every onFound has returned.
func (c *Client) LocateAsync(ctx context.Context, q ServiceQuery, onFound func(*ServiceInfo), onDone func(error)) {
	go func() {
		n, err := c.locate(ctx, q, func(info *ServiceInfo) {
			if onFound != nil {
				onFound(info)
			}
		})
		if n > 0 {
			err = nil
		}
		if onDone != nil {
			onDone(err)
		}
	}()
}

// LocateOne returns the first service located for the query.
func (c *Client) LocateOne(ctx context.Context, q ServiceQuery) (*ServiceInfo, error) {
	infos, err := c.Locate(ctx, q)
	if err != nil && len(infos) == 0 {
		return nil, err
	}
	if len(infos) == 0 {
		return nil, fmt.Errorf("core: no service found for %q", q.QueryName())
	}
	return infos[0], nil
}

// NewInvocation binds an invocation to a located service, selecting the
// invoker by the endpoint's URI scheme.
func (c *Client) NewInvocation(svc *ServiceInfo) (*Invocation, error) {
	return c.bind(svc)
}

// NewFailoverInvocation binds an invocation to several located endpoints
// for one logical service — typically the same service discovered through
// different bindings (an HTTP endpoint and a P2PS pipe address). Targets
// are tried in the given preference order; an endpoint whose circuit
// breaker is open is skipped, and a substrate failure (as judged by
// resilience.Classify) fails over to the next target. Application-level
// SOAP faults and caller cancellation never fail over. Each attempt's
// outcome feeds the endpoint's breaker, so health transitions surface as
// HealthEvents on the peer's event tree.
func (c *Client) NewFailoverInvocation(svcs ...*ServiceInfo) (*Invocation, error) {
	return c.bind(svcs...)
}

// NewHedgedInvocation binds a hedged invocation to one or more located
// endpoints for the same logical service: Invoke races a second attempt
// against a slow primary after the hedge threshold (adaptive from the
// service's observed p99 unless opts fixes it), sending the hedge to the
// next endpoint when several are bound. First success wins; the losing
// attempt is cancelled. Hedges draw from the client's retry budget when
// one is configured (ConfigureRetryBudget), so hedging cannot multiply
// load unboundedly.
func (c *Client) NewHedgedInvocation(opts HedgeOptions, svcs ...*ServiceInfo) (*Invocation, error) {
	inv, err := c.bind(svcs...)
	if err != nil {
		return nil, err
	}
	inv.hedge = pipeline.Hedge(pipeline.HedgeOptions{
		Threshold: DefaultHedgeThreshold,
		// Unless opts fixes it the threshold adapts: the service's observed
		// client-side p99 once enough calls have been recorded, Threshold
		// (what a non-positive return falls back to) before that.
		ThresholdFunc: func(pc *pipeline.Call) time.Duration {
			if opts.Threshold > 0 {
				return opts.Threshold
			}
			if row := telemetry.Default().Calls.Service(pc.Service, telemetry.DirClient); row.Calls >= hedgeMinSamples {
				return row.P99
			}
			return 0
		},
		// The caller opted into hedging when building the invocation, so
		// every call through it may hedge — MarkIdempotent is not also
		// required.
		Hedgeable: func(*pipeline.Call) bool { return true },
	})
	return inv, nil
}

// bind is the target-binding loop behind the three constructors: each
// service's endpoint scheme selects its invoker.
func (c *Client) bind(svcs ...*ServiceInfo) (*Invocation, error) {
	if len(svcs) == 0 {
		return nil, fmt.Errorf("core: an invocation needs at least one service")
	}
	inv := &Invocation{client: c, targets: make([]invTarget, 0, len(svcs))}
	for _, svc := range svcs {
		if svc == nil || svc.Endpoint == "" {
			return nil, fmt.Errorf("core: service info has no endpoint")
		}
		scheme := transport.SchemeOf(svc.Endpoint)
		c.mu.RLock()
		invoker, ok := c.invokers[scheme]
		c.mu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("core: no invoker registered for scheme %q (endpoint %s)", scheme, svc.Endpoint)
		}
		inv.targets = append(inv.targets, invTarget{svc: svc, invoker: invoker})
	}
	return inv, nil
}

// invTarget pairs one endpoint with its scheme-selected invoker.
type invTarget struct {
	svc     *ServiceInfo
	invoker Invoker
}

// DefaultHedgeThreshold is the hedge latency threshold used before the
// telemetry call table has seen enough traffic to estimate the
// service's tail.
const DefaultHedgeThreshold = 50 * time.Millisecond

// hedgeMinSamples is how many recorded client calls a service needs
// before its observed p99 replaces DefaultHedgeThreshold.
const hedgeMinSamples = 8

// HedgeOptions tunes a hedged invocation (NewHedgedInvocation).
type HedgeOptions struct {
	// Threshold is how long the primary attempt may run before a hedge
	// launches. Zero means adaptive: the service's observed client-side
	// p99 latency from the telemetry call table once hedgeMinSamples
	// calls have been recorded, DefaultHedgeThreshold until then.
	Threshold time.Duration
}

// Invocation is a client-side handle on one located service, or — when
// created with NewFailoverInvocation or NewHedgedInvocation — on an
// ordered set of endpoints for the same logical service.
type Invocation struct {
	client  *Client
	targets []invTarget          // preference order; [0] is the primary
	hedge   pipeline.Interceptor // the Hedge stage of a hedged invocation, else nil
}

// Service returns the primary target service.
func (inv *Invocation) Service() *ServiceInfo { return inv.targets[0].svc }

// Endpoints returns the bound endpoints in preference order.
func (inv *Invocation) Endpoints() []string {
	out := make([]string, len(inv.targets))
	for i, t := range inv.targets {
		out[i] = t.svc.Endpoint
	}
	return out
}

// MetaResult is the pipeline Meta key under which the client terminal
// publishes the attempt's decoded *engine.Result: Invoke returns it, and
// the Events choke point reads it to build ClientMessageEvents.
const MetaResult = "core.result"

// Invoke calls an operation synchronously through the client's call
// pipeline; the terminal stage is the scheme-selected invoker and the
// transport its exchange rides on — or, for failover and hedged
// invocations, the target walk and the race described on their
// constructors. The exchange is reported as a ClientMessageEvent from the
// pipeline's Events stage.
func (inv *Invocation) Invoke(ctx context.Context, op string, params ...engine.Param) (*engine.Result, error) {
	return inv.call(ctx, "client.invoke", exchange.RequestResponse, nil, op, params)
}

// attempt performs one attempt against one endpoint and publishes its
// result on the carrier — nil on failure, so a retried attempt never leaks
// its predecessor's result or wire exchange.
func (inv *Invocation) attempt(c *pipeline.Call, t invTarget, op string, params []engine.Param) error {
	c.Request, c.Response = nil, nil
	res, err := t.invoker.Invoke(c, t.svc, op, params)
	c.SetMeta(MetaResult, res)
	return err
}

// guarded is attempt under the endpoint's breaker (resilience.Group.Do):
// an open breaker refuses the attempt without sending, which it reports,
// and the outcome of a sent attempt feeds the breaker.
func (inv *Invocation) guarded(c *pipeline.Call, t invTarget, op string, params []engine.Param) (refused bool, err error) {
	refused = true
	err = inv.client.Breakers().Do(t.svc.Endpoint, func() error {
		refused = false
		return inv.attempt(c, t, op, params)
	})
	if refused && c.Span != nil {
		c.Span.Annotatef("breaker open: skipped %s", t.svc.Endpoint)
	}
	return refused, err
}

// failover walks the targets in preference order: endpoints with an open
// breaker are skipped, substrate failures advance to the next target, and
// every attempt's outcome feeds its endpoint's breaker. The returned error
// is the last attempt's (or last refusal's) when no target succeeds.
func (inv *Invocation) failover(c *pipeline.Call, op string, params []engine.Param) error {
	var lastErr error
	for _, t := range inv.targets {
		if ctxErr := c.Ctx.Err(); ctxErr != nil {
			if lastErr == nil {
				lastErr = ctxErr
			}
			break
		}
		refused, err := inv.guarded(c, t, op, params)
		lastErr = err
		if refused {
			mFailoverSkips.Inc()
			continue
		}
		mFailoverAttempts.Inc()
		if err == nil {
			return nil
		}
		if c.Span != nil {
			c.Span.Annotatef("failover: %s failed: %v", t.svc.Endpoint, err)
		}
		if resilience.Classify(err) != resilience.Failure {
			break // an application fault or cancellation: not the substrate's doing
		}
		// A substrate failure demotes the endpoint in every cached
		// resolution, so the next LocateCached-fed failover walk tries
		// healthier endpoints first.
		inv.client.ResolutionCache().DemoteEndpoint(t.svc.Endpoint)
	}
	return lastErr
}

// InvokeAsync calls an operation without blocking; the outcome arrives at
// the callback (which may be nil — events still fire) from another
// goroutine. This is the event-driven mode the paper argues suits
// "P2P style interactions with unreliable nodes".
//
// The call runs on the client's bounded invocation scheduler (see
// ConfigureScheduler) rather than a goroutine per call: a burst of
// submissions holds at most MaxConcurrent invocations in flight, queued
// submissions are shed with a *resilience.OverloadError when the queue
// fills or the context expires while waiting, and the shed outcome
// arrives at the callback like any other error.
func (inv *Invocation) InvokeAsync(ctx context.Context, op string, params []engine.Param, cb func(*engine.Result, error)) {
	inv.client.schedulerRef().submit(ctx,
		func() {
			res, err := inv.Invoke(ctx, op, params...)
			if cb != nil {
				cb(res, err)
			}
		},
		func(err error) {
			if cb != nil {
				cb(nil, err)
			}
		})
}

// ---------------------------------------------------------------------------
// Server

// publication records where a deployment was published so it can be
// withdrawn.
type publication struct {
	publisher ServicePublisher
	location  string
}

// Server is the provider side of the peer: it deploys services through its
// deployer and announces them through its publishers.
type Server struct {
	peer *Peer

	mu          sync.Mutex
	deployer    ServiceDeployer
	publishers  []ServicePublisher
	deployments map[string]*Deployment
	published   map[string][]publication
}

// SetDeployer installs the deployer component, replacing any previous one
// (last attached binding wins).
func (s *Server) SetDeployer(d ServiceDeployer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deployer = d
}

// RemoveDeployer clears the deployer slot, but only if it still holds d —
// a deployer replaced by a later SetDeployer is not disturbed. It reports
// whether the slot was cleared.
func (s *Server) RemoveDeployer(d ServiceDeployer) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !componentEqual(s.deployer, d) {
		return false
	}
	s.deployer = nil
	return true
}

// AddPublisher registers a publisher. Multiple publishers can coexist
// (e.g. UDDI and P2PS adverts for the same service). Registering a
// publisher that is already present is a no-op, so re-attaching a binding
// does not publish twice.
func (s *Server) AddPublisher(p ServicePublisher) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, have := range s.publishers {
		if componentEqual(have, p) {
			return
		}
	}
	s.publishers = append(s.publishers, p)
}

// RemovePublisher removes a previously added publisher; it reports whether
// the publisher was registered. Services already published through it stay
// published (withdraw them with Undeploy).
func (s *Server) RemovePublisher(p ServicePublisher) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, have := range s.publishers {
		if componentEqual(have, p) {
			s.publishers = append(s.publishers[:i], s.publishers[i+1:]...)
			return true
		}
	}
	return false
}

// Deploy exposes a service definition through the deployer and fires a
// DeploymentMessageEvent.
func (s *Server) Deploy(def engine.ServiceDef) (*Deployment, error) {
	s.mu.Lock()
	d := s.deployer
	s.mu.Unlock()
	if d == nil {
		return nil, ErrNoDeployer
	}
	dep, err := d.Deploy(def)
	if err != nil {
		s.peer.bus.fireDeployment(DeploymentMessageEvent{Service: def.Name, Err: err})
		return nil, err
	}
	if dep.Deployer == "" {
		dep.Deployer = d.Name()
	}
	s.mu.Lock()
	s.deployments[def.Name] = dep
	s.mu.Unlock()
	s.peer.bus.fireDeployment(DeploymentMessageEvent{Service: def.Name, Endpoint: dep.Endpoint})
	return dep, nil
}

// Publish announces a deployment through every registered publisher,
// firing a PublishEvent per publisher. All publishers are attempted; their
// errors are joined.
func (s *Server) Publish(ctx context.Context, dep *Deployment) error {
	s.mu.Lock()
	pubs := append([]ServicePublisher(nil), s.publishers...)
	s.mu.Unlock()
	if len(pubs) == 0 {
		return fmt.Errorf("core: no ServicePublisher registered")
	}
	var errs []error
	name := dep.Service.Name()
	for _, pub := range pubs {
		loc, err := pub.Publish(ctx, dep)
		s.peer.bus.firePublish(PublishEvent{Service: name, Location: loc, Publisher: pub.Name(), Err: err})
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", pub.Name(), err))
			continue
		}
		s.mu.Lock()
		s.published[name] = append(s.published[name], publication{publisher: pub, location: loc})
		s.mu.Unlock()
	}
	return errors.Join(errs...)
}

// DeployAndPublish is the common composite: deploy, then publish
// everywhere.
func (s *Server) DeployAndPublish(ctx context.Context, def engine.ServiceDef) (*Deployment, error) {
	dep, err := s.Deploy(def)
	if err != nil {
		return nil, err
	}
	if err := s.Publish(ctx, dep); err != nil {
		return dep, err
	}
	return dep, nil
}

// Deployment returns a deployment by service name, or nil.
func (s *Server) Deployment(name string) *Deployment {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deployments[name]
}

// Deployments lists deployed service names.
func (s *Server) Deployments() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.deployments))
	for n := range s.deployments {
		out = append(out, n)
	}
	return out
}

// Undeploy withdraws the service from every publisher it was published to
// and removes it from the deployer.
func (s *Server) Undeploy(ctx context.Context, name string) error {
	s.mu.Lock()
	d := s.deployer
	pubs := s.published[name]
	delete(s.published, name)
	_, deployed := s.deployments[name]
	delete(s.deployments, name)
	s.mu.Unlock()
	if !deployed {
		return fmt.Errorf("core: service %q is not deployed", name)
	}
	var errs []error
	for _, p := range pubs {
		if err := p.publisher.Unpublish(ctx, p.location); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", p.publisher.Name(), err))
		}
	}
	if d != nil {
		if err := d.Undeploy(name); err != nil {
			errs = append(errs, err)
		}
	}
	err := errors.Join(errs...)
	s.peer.bus.fireDeployment(DeploymentMessageEvent{Service: name, Undeployed: true, Err: err})
	return err
}
