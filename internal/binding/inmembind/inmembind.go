// Package inmembind is the third substrate binding: services are hosted on
// the process-local in-memory network (transport.InMemNetwork), published
// to a shared in-process Directory, located by querying it, and invoked
// over the mem:// transport. It exists for two reasons: fast deterministic
// tests of binding-generic code, and as the proof that the binding
// abstraction holds — it implements exactly the same contract (and passes
// the same conformance suite) as the HTTP and P2PS bindings.
package inmembind

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"wspeer/internal/binding"
	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/pipeline"
	"wspeer/internal/soap"
	"wspeer/internal/transport"
	"wspeer/internal/wsaddr"
	"wspeer/internal/wsdl"
)

// Options configures the in-memory binding.
type Options struct {
	// Engine hosts the services (a fresh engine when nil).
	Engine *engine.Engine
	// Network carries invocations. Share one network between provider and
	// consumer bindings so mem:// endpoints resolve (a fresh, private
	// network when nil).
	Network *transport.InMemNetwork
	// Directory is the shared registry analogue. Share one directory so
	// publications are visible across bindings (a fresh one when nil).
	Directory *Directory
	// Host names this binding's endpoint authority: services deploy at
	// mem://<host>/<service> (a unique generated name when empty).
	Host string
}

// hostSeq generates distinct default host names within the process.
var hostSeq atomic.Int64

// callbackSeq generates distinct reply-endpoint paths within the process.
var callbackSeq atomic.Int64

// Binding bundles the in-memory implementation's components. The generic
// attach/detach choreography and event forwarding come from the embedded
// binding.Base.
type Binding struct {
	*binding.Base
	net  *transport.InMemNetwork
	dir  *Directory
	host string
	reg  *transport.Registry

	mu       sync.Mutex
	deployed map[string]string // service -> endpoint
	closed   bool

	// inflight counts dispatches in progress so Close can drain them.
	inflight sync.WaitGroup
}

// New builds the binding.
func New(opts Options) (*Binding, error) {
	if opts.Engine == nil {
		opts.Engine = engine.New()
	}
	if opts.Network == nil {
		opts.Network = transport.NewInMemNetwork()
	}
	if opts.Directory == nil {
		opts.Directory = NewDirectory()
	}
	if opts.Host == "" {
		opts.Host = fmt.Sprintf("peer-%d", hostSeq.Add(1))
	}
	reg := transport.NewRegistry()
	reg.Register(opts.Network.Transport())
	b := &Binding{
		net:      opts.Network,
		dir:      opts.Directory,
		host:     opts.Host,
		reg:      reg,
		deployed: make(map[string]string),
	}
	b.Base = binding.NewBase("inmem", []string{"mem"}, opts.Engine, binding.Components{
		Deployer:   b.Deployer(),
		Publishers: []core.ServicePublisher{b.Publisher()},
		Locators:   []core.ServiceLocator{b.Locator()},
		Invokers:   []core.Invoker{b.Invoker()},
	})
	// Decoupled replies to mem:// reply endpoints go back out through the
	// same network; other schemes need their binding's sender registered on
	// this engine (see Engine.RegisterReplySender).
	opts.Engine.RegisterReplySender("mem", b.ReplySender())
	return b, nil
}

// ReplySender delivers decoupled replies over the binding's in-memory
// network. Register it on another binding's engine to let that substrate
// answer requests whose ReplyTo is a mem:// endpoint.
func (b *Binding) ReplySender() engine.ReplySender {
	return binding.PostReplySender(b.reg)
}

// Registry exposes the client transport registry.
func (b *Binding) Registry() *transport.Registry { return b.reg }

// enter marks a dispatch in flight; it reports false once the binding has
// been closed.
func (b *Binding) enter() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	b.inflight.Add(1)
	return true
}

// Close unregisters every deployed endpoint from the network, undeploys
// the services from the engine and drains in-flight dispatches. Close is
// idempotent.
func (b *Binding) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	deployed := b.deployed
	b.deployed = make(map[string]string)
	b.mu.Unlock()

	for name, endpoint := range deployed {
		b.net.Unregister(endpoint)
		b.Engine().Undeploy(name)
	}
	b.inflight.Wait()
	return nil
}

// ---------------------------------------------------------------------------
// Deployer

type deployer struct{ b *Binding }

// Deployer returns the in-memory deployer.
func (b *Binding) Deployer() core.ServiceDeployer { return deployer{b} }

// Name implements core.ServiceDeployer.
func (d deployer) Name() string { return "inmem" }

// Deploy implements core.ServiceDeployer: the service is registered on the
// in-memory network at mem://<host>/<service>.
func (d deployer) Deploy(def engine.ServiceDef) (*core.Deployment, error) {
	b := d.b
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, fmt.Errorf("inmembind: binding is closed")
	}
	b.mu.Unlock()
	svc, err := b.Engine().Deploy(def)
	if err != nil {
		return nil, err
	}
	endpoint := "mem://" + b.host + "/" + def.Name
	defs, err := svc.WSDL(wsdl.TransportInMem, endpoint)
	if err != nil {
		b.Engine().Undeploy(def.Name)
		return nil, err
	}
	b.net.Register(endpoint, transport.HandlerFunc(func(ctx context.Context, req *transport.Request) (*transport.Response, error) {
		if !b.enter() {
			return nil, fmt.Errorf("inmembind: binding is closed")
		}
		defer b.inflight.Done()
		resp, err := b.Engine().ServeRequest(ctx, def.Name, req)
		if err != nil {
			return &transport.Response{
				ContentType: soap.ContentType,
				Body:        soap.NewEnvelope().SetFault(soap.ServerFault(err)).Marshal(),
				Faulted:     true,
			}, nil
		}
		return resp, nil
	}))
	b.mu.Lock()
	b.deployed[def.Name] = endpoint
	b.mu.Unlock()
	return &core.Deployment{
		Service:     svc,
		Endpoint:    endpoint,
		Definitions: defs,
		Deployer:    "inmem",
	}, nil
}

// Undeploy implements core.ServiceDeployer.
func (d deployer) Undeploy(service string) error {
	b := d.b
	b.mu.Lock()
	endpoint, ok := b.deployed[service]
	delete(b.deployed, service)
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("inmembind: service %q not deployed", service)
	}
	b.net.Unregister(endpoint)
	if !b.Engine().Undeploy(service) {
		return fmt.Errorf("inmembind: engine had no service %q", service)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Publisher

type publisher struct{ b *Binding }

// Publisher returns the directory publisher.
func (b *Binding) Publisher() core.ServicePublisher { return publisher{b} }

// Name implements core.ServicePublisher.
func (p publisher) Name() string { return "inmem" }

// Publish implements core.ServicePublisher. Foreign deployments (made by
// another binding's deployer) publish as-is: the record simply carries
// their endpoint and definitions, whatever the scheme.
func (p publisher) Publish(ctx context.Context, dep *core.Deployment) (string, error) {
	return p.b.dir.Publish(Record{
		Name:        dep.Service.Name(),
		Description: "WSPeer-hosted service",
		Endpoint:    dep.Endpoint,
		Definitions: dep.Definitions,
		Attrs:       map[string]string{"binding": "wspeer-inmem"},
	}), nil
}

// Unpublish implements core.ServicePublisher.
func (p publisher) Unpublish(ctx context.Context, location string) error {
	if !p.b.dir.Unpublish(location) {
		return fmt.Errorf("inmembind: directory had no record %q", location)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Locator

type locator struct{ b *Binding }

// Locator returns the directory locator.
func (b *Binding) Locator() core.ServiceLocator { return locator{b} }

// Name implements core.ServiceLocator.
func (l locator) Name() string { return "inmem" }

// Locate implements core.ServiceLocator.
func (l locator) Locate(ctx context.Context, q core.ServiceQuery, foundFn func(*core.ServiceInfo)) error {
	matches, err := l.b.dir.find(q)
	if err != nil {
		return err
	}
	for _, m := range matches {
		if err := ctx.Err(); err != nil {
			return err
		}
		foundFn(&core.ServiceInfo{
			Name:        m.rec.Name,
			Description: m.rec.Description,
			Definitions: m.rec.Definitions,
			Endpoint:    m.rec.Endpoint,
			Locator:     "inmem",
			Meta:        map[string]string{"recordID": m.id},
		})
	}
	return nil
}

// ---------------------------------------------------------------------------
// Invoker

type invoker struct{ b *Binding }

// Invoker returns the mem:// invoker.
func (b *Binding) Invoker() core.Invoker { return invoker{b} }

// Schemes implements core.Invoker.
func (i invoker) Schemes() []string { return []string{"mem"} }

// Invoke implements core.Invoker: the exchange is published on the
// pipeline carrier and the terminal stage is visibly the scheme-selected
// transport.
func (i invoker) Invoke(c *pipeline.Call, svc *core.ServiceInfo, op string, params []engine.Param) (*engine.Result, error) {
	return binding.Invoke(c, i.b.reg, svc, op, params)
}

// memReplyEndpoint is a reply handler registered on the in-memory network.
type memReplyEndpoint struct {
	epr   *wsaddr.EndpointReference
	net   *transport.InMemNetwork
	where string
}

// EPR implements core.ReplyEndpoint.
func (e *memReplyEndpoint) EPR() *wsaddr.EndpointReference { return e.epr }

// Close implements core.ReplyEndpoint.
func (e *memReplyEndpoint) Close() error {
	e.net.Unregister(e.where)
	return nil
}

// HostReplyEndpoint implements core.CallbackHoster: the reply endpoint is
// a fresh mem:// handler on the binding's network that feeds each inbound
// body to deliver and acknowledges with an empty response.
func (i invoker) HostReplyEndpoint(deliver func(body []byte)) (core.ReplyEndpoint, error) {
	b := i.b
	endpoint := fmt.Sprintf("mem://%s/callback-%d", b.host, callbackSeq.Add(1))
	b.net.Register(endpoint, transport.HandlerFunc(func(ctx context.Context, req *transport.Request) (*transport.Response, error) {
		deliver(req.Body)
		return &transport.Response{}, nil
	}))
	return &memReplyEndpoint{
		epr:   wsaddr.NewEndpointReference(endpoint),
		net:   b.net,
		where: endpoint,
	}, nil
}
