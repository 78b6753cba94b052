// Package binding is the seam between WSPeer's substrate-neutral core and
// its substrate bindings (httpbind, p2psbind, inmembind). The paper's
// central architectural claim (§III/§IV) is that the locator, publisher,
// deployer and invoker components are pluggable and mixable — "a P2PS
// client could use the UDDI enabled ServiceLocator defined in the standard
// implementation". This package makes that claim structural:
//
//   - core.Binding is the contract every substrate implements: Name,
//     Schemes, Components, Attach/Detach, Use, Close;
//   - Base carries the attach/detach choreography every binding used to
//     copy-paste: wire the component bundle into the peer, forward the
//     engine pipeline's server-side exchanges as ServerMessageEvents,
//     undo exactly that on detach — idempotently in both directions;
//   - ComposeClient builds a peer from explicitly mixed parts (a UDDI
//     locator with a P2PS invoker, a P2PS locator with an HTTP invoker).
//
// A new substrate implements Components once, embeds *Base, and inherits
// the full lifecycle — the conformance suite in bindtest then applies the
// same deploy → publish → locate → invoke → fault → close contract to it
// that the shipped bindings satisfy.
package binding

import (
	"fmt"
	"sync"
	"sync/atomic"

	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/pipeline"
)

// Components is the pluggable-component bundle a binding contributes.
type Components = core.Components

// Base implements the generic half of the Binding contract — everything
// except construction and Close, which remain substrate-specific. Concrete
// bindings embed *Base and gain idempotent Attach/Detach, engine-pipeline
// event forwarding and interceptor installation for free.
type Base struct {
	name    string
	schemes []string
	eng     *engine.Engine
	comps   Components

	mu       sync.Mutex
	attached map[*core.Peer]bool

	// target is the peer server-side exchanges are forwarded to as
	// ServerMessageEvents. The last attached peer wins; detaching it stops
	// forwarding. The forwarding interceptor itself is installed once per
	// Base at construction, so repeated attach/detach cycles never stack
	// duplicate interceptors on the engine.
	target atomic.Pointer[core.Peer]
}

// NewBase wires the shared choreography for a binding: name and schemes
// identify it, eng is the engine hosting its services, and comps is the
// component bundle Attach installs. NewBase installs the Events choke
// point on the engine pipeline that turns every hosted exchange into a
// ServerMessageEvent on the attached peer.
func NewBase(name string, schemes []string, eng *engine.Engine, comps Components) *Base {
	b := &Base{
		name:     name,
		schemes:  append([]string(nil), schemes...),
		eng:      eng,
		comps:    comps,
		attached: make(map[*core.Peer]bool),
	}
	eng.Use(pipeline.Events(func(c *pipeline.Call) {
		if p := b.target.Load(); p != nil {
			p.FireServerMessage(c.Service, c.Request, c.Response)
		}
	}))
	return b
}

// Name implements Binding.
func (b *Base) Name() string { return b.name }

// Schemes implements Binding.
func (b *Base) Schemes() []string { return append([]string(nil), b.schemes...) }

// Components implements Binding.
func (b *Base) Components() Components { return b.comps }

// Engine exposes the underlying messaging engine.
func (b *Base) Engine() *engine.Engine { return b.eng }

// Attach implements Binding: the component bundle is wired into the peer —
// deployer and publishers on the server side, locators and invokers on the
// client side — and the peer becomes the target of the binding's
// ServerMessageEvents. Attach is idempotent: a peer that is already
// attached is left exactly as it is.
func (b *Base) Attach(p *core.Peer) error {
	b.mu.Lock()
	if b.attached[p] {
		b.mu.Unlock()
		return nil
	}
	b.attached[p] = true
	b.mu.Unlock()

	c := b.comps
	if c.Deployer != nil {
		p.Server().SetDeployer(c.Deployer)
	}
	for _, pub := range c.Publishers {
		p.Server().AddPublisher(pub)
	}
	for _, l := range c.Locators {
		p.Client().AddLocator(l)
	}
	for _, inv := range c.Invokers {
		p.Client().RegisterInvoker(inv)
	}
	b.target.Store(p)
	return nil
}

// Detach implements Binding: it removes from the peer exactly what Attach
// added — components and event forwarding — and nothing else. Components a
// later binding took over (a replaced deployer, a re-registered scheme)
// are left with their current owner. Detaching a peer that was never
// attached is a no-op.
func (b *Base) Detach(p *core.Peer) error {
	b.mu.Lock()
	if !b.attached[p] {
		b.mu.Unlock()
		return nil
	}
	delete(b.attached, p)
	b.mu.Unlock()

	c := b.comps
	if c.Deployer != nil {
		p.Server().RemoveDeployer(c.Deployer)
	}
	for _, pub := range c.Publishers {
		p.Server().RemovePublisher(pub)
	}
	for _, l := range c.Locators {
		p.Client().RemoveLocator(l)
	}
	for _, inv := range c.Invokers {
		p.Client().UnregisterInvoker(inv)
	}
	b.target.CompareAndSwap(p, nil)
	return nil
}

// Use implements Binding: interceptors are installed on the binding's
// engine pipeline, so every hosted request — whichever host feeds the
// engine — flows through them. Client-side interceptors belong on the
// peer's Client (core.Client.Use).
func (b *Base) Use(ics ...pipeline.Interceptor) { b.eng.Use(ics...) }

// ---------------------------------------------------------------------------
// Composition

// ComposeClient builds a peer whose client side is assembled from an
// explicitly mixed component bundle — the paper's "P2PS client using the
// UDDI locator" made first-class. The parts are wired exactly as a
// binding's Attach would wire them, but drawn from any mix of donors:
//
//	mixed, _ := binding.ComposeClient(binding.Components{
//	    Locators: []core.ServiceLocator{httpB.Locator()},   // find via UDDI
//	    Invokers: []core.Invoker{p2psB.Invoker()},          // call over pipes
//	})
//
// Server-side parts (Deployer, Publishers) may be included for mixed
// providers. At least one locator or invoker is required — a client with
// neither cannot do anything.
func ComposeClient(parts Components) (*core.Peer, error) {
	if len(parts.Locators) == 0 && len(parts.Invokers) == 0 {
		return nil, fmt.Errorf("binding: composition needs at least one locator or invoker")
	}
	p := core.NewPeer()
	if parts.Deployer != nil {
		p.Server().SetDeployer(parts.Deployer)
	}
	for _, pub := range parts.Publishers {
		p.Server().AddPublisher(pub)
	}
	for _, l := range parts.Locators {
		p.Client().AddLocator(l)
	}
	for _, inv := range parts.Invokers {
		p.Client().RegisterInvoker(inv)
	}
	return p, nil
}
