package p2psbind

import (
	"context"
	"fmt"
	"time"

	"wspeer/internal/core"
	"wspeer/internal/p2ps"
	"wspeer/internal/soap"
	"wspeer/internal/wsaddr"
	"wspeer/internal/wsdl"
	"wspeer/internal/xmlutil"
)

// The discovery half of the binding: everything that waits out a discovery
// window or fetches a WSDL over a definition pipe.

type locator struct{ b *Binding }

// Locator returns the in-network discovery locator.
func (b *Binding) Locator() core.ServiceLocator { return locator{b} }

// Name implements core.ServiceLocator.
func (l locator) Name() string { return "p2ps" }

// Locate implements core.ServiceLocator: discover adverts, then retrieve
// each service's WSDL through its definition pipe.
func (l locator) Locate(ctx context.Context, q core.ServiceQuery, found func(*core.ServiceInfo)) error {
	b := l.b
	pq := p2ps.Query{Name: q.QueryName()}
	switch qq := q.(type) {
	case core.NameQuery:
		pq.Attrs = qq.Attrs
	case core.ExprQuery:
		pq.Expr = qq.Expr // evaluated in-network by every peer reached
	}
	matches, err := b.discover(ctx, pq)
	if err != nil {
		return err
	}
	var firstErr error
	for _, adv := range matches {
		info, err := b.infoFromAdvert(ctx, adv)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("p2psbind: advert %q: %w", adv.Name, err)
			}
			continue
		}
		found(info)
	}
	return firstErr
}

// discover runs one in-network query for the binding's discovery window
// (or until ctx is done) and returns the adverts that matched.
func (b *Binding) discover(ctx context.Context, q p2ps.Query) ([]*p2ps.ServiceAdvertisement, error) {
	d := b.pp.Discover(q, b.discoveryTimeout)
	select {
	case <-d.Done():
		return d.Matches(), nil
	case <-ctx.Done():
		d.Cancel()
		return nil, ctx.Err()
	}
}

func (b *Binding) infoFromAdvert(ctx context.Context, adv *p2ps.ServiceAdvertisement) (*core.ServiceInfo, error) {
	defs, err := b.FetchDefinitions(ctx, adv)
	if err != nil {
		return nil, err
	}
	// A foreign advert (no request pipe) carries the service's real endpoint
	// in an attribute: surface that, so invocation is routed by its scheme.
	endpoint := core.P2PSURI{Peer: string(adv.Peer), Service: adv.Name}.String()
	if ep := adv.Attrs[EndpointAttr]; ep != "" && adv.Pipe(RequestPipeName) == nil {
		endpoint = ep
	}
	return &core.ServiceInfo{
		Name:        adv.Name,
		Definitions: defs,
		Endpoint:    endpoint,
		Locator:     "p2ps",
		Meta:        map[string]string{"advertID": adv.ID},
		Extra:       newTarget(adv),
	}, nil
}

// target is a resolved advert as the invoker addresses it: its request pipe
// (nil for a foreign advert) and that pipe's EPR and Action, built once per
// advert rather than once per call.
type target struct {
	adv    *p2ps.ServiceAdvertisement
	pipe   *p2ps.PipeAdvertisement
	epr    *wsaddr.EndpointReference
	action string
}

func newTarget(adv *p2ps.ServiceAdvertisement) *target {
	t := &target{adv: adv, pipe: adv.Pipe(RequestPipeName)}
	if t.pipe != nil {
		t.epr, t.action = PipeToEPR(t.pipe, adv.Name), ActionFor(adv.Peer, adv.Name, RequestPipeName)
	}
	return t
}

// FetchDefinitions retrieves a service's WSDL through its definition pipe
// using the ReplyTo pattern.
func (b *Binding) FetchDefinitions(ctx context.Context, adv *p2ps.ServiceAdvertisement) (*wsdl.Definitions, error) {
	if adv.DefinitionPipe == nil {
		return nil, fmt.Errorf("advert has no definition pipe")
	}
	reply, err := b.pp.CreateInputPipe("wsdl-reply")
	if err != nil {
		return nil, err
	}
	defer reply.Close()
	ch := make(chan []byte, 1)
	reply.AddListener(func(_ p2ps.PeerID, data []byte) {
		select {
		case ch <- data:
		default:
		}
	})

	env, _ := definitionRequest(adv, reply.Advertisement())
	out, err := b.openPipe(adv.DefinitionPipe)
	if err != nil {
		return nil, err
	}
	if err := out.Send(env.Marshal()); err != nil {
		return nil, err
	}
	timeout := time.NewTimer(b.replyTimeout)
	defer timeout.Stop()
	select {
	case data := <-ch:
		return wsdl.Parse(data)
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-timeout.C:
		return nil, fmt.Errorf("timed out retrieving WSDL from definition pipe")
	}
}

// definitionRequest is the request for adv's WSDL, down its definition
// pipe, to be answered down reply.
func definitionRequest(adv *p2ps.ServiceAdvertisement, reply *p2ps.PipeAdvertisement) (*soap.Envelope, *wsaddr.MessageHeaders) {
	env, _ := soap.NewBodyEnvelope(soap.SOAP11, xmlutil.N(p2ps.Namespace, "GetDefinition"))
	hdr := wsaddr.HeadersFor(PipeToEPR(adv.DefinitionPipe, adv.Name), ActionFor(adv.Peer, adv.Name, DefinitionPipeName))
	hdr.ReplyTo = PipeToEPR(reply, "")
	env.AddHeaderValue(hdr) // To and Action are set: what Apply checks holds
	return env, hdr
}

// targetFor resolves the P2PS advertisement backing a service. A service
// located through the p2ps locator carries it, resolved, in Extra; a service
// located elsewhere — e.g. a UDDI record with a p2ps:// endpoint, the
// mixed UDDI-locator + P2PS-invoker composition — is resolved by
// discovering an advert matching the endpoint's peer and service name.
// The ServiceInfo is never mutated: it may be shared across goroutines.
func (b *Binding) targetFor(ctx context.Context, svc *core.ServiceInfo) (*target, error) {
	if t, ok := svc.Extra.(*target); ok {
		return t, nil
	}
	uri, err := core.ParseP2PSURI(svc.Endpoint)
	if err != nil {
		return nil, fmt.Errorf("p2psbind: service %q carries no P2PS advertisement and no p2ps:// endpoint: %w", svc.Name, err)
	}
	matches, err := b.discover(ctx, p2ps.Query{Name: uri.Service})
	if err != nil {
		return nil, err
	}
	for _, adv := range matches {
		if string(adv.Peer) == uri.Peer && adv.Pipe(RequestPipeName) != nil {
			return newTarget(adv), nil
		}
	}
	return nil, fmt.Errorf("p2psbind: no advertisement found for %s", svc.Endpoint)
}
