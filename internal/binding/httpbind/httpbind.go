// Package httpbind is WSPeer's standard implementation (paper §IV-A,
// Fig. 3): services are hosted by the container-less HTTP server, described
// by WSDL served at ?wsdl, published to a UDDI-style registry, located by
// querying that registry, and invoked over HTTP (or the authenticated HTTPG
// profile) using dynamically generated stubs.
package httpbind

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"wspeer/internal/binding"
	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/httpd"
	"wspeer/internal/pipeline"
	"wspeer/internal/query"
	"wspeer/internal/resilience"
	"wspeer/internal/transport"
	"wspeer/internal/uddi"
	"wspeer/internal/wsaddr"
	"wspeer/internal/wsdl"
)

// Options configures the standard binding.
type Options struct {
	// Engine hosts the services (a fresh engine when nil).
	Engine *engine.Engine
	// ListenAddr for the lazy HTTP host (default 127.0.0.1:0).
	ListenAddr string
	// Profile is "http" (default) or "httpg".
	Profile string
	// Secret for the httpg profile.
	Secret []byte
	// UDDIEndpoint is the registry service's endpoint URL. When empty the
	// binding provides no locator/publisher, only hosting and invocation.
	UDDIEndpoint string
	// Registry supplies the client-side transports (a registry with HTTP —
	// and HTTPG when Secret is set — when nil).
	Registry *transport.Registry
	// Admission, when non-nil, installs server-side admission control on
	// the engine: shed requests are answered with a SOAP Server fault on
	// HTTP 503 + Retry-After, and closing the binding drains in-flight
	// dispatches first (see httpd.Options.Admission).
	Admission *resilience.Admission
	// EnablePprof mounts net/http/pprof on the host's debug mux (see
	// httpd.Options.EnablePprof). Off by default.
	EnablePprof bool
}

// Binding bundles the standard implementation's components. The generic
// attach/detach choreography and event forwarding come from the embedded
// binding.Base; only the HTTP/UDDI substrate specifics live here.
type Binding struct {
	*binding.Base
	host *httpd.Host
	reg  *transport.Registry
	udc  *uddi.Client

	mu         sync.Mutex
	categories map[string][]uddi.KeyedReference
}

// New builds the binding. The HTTP host starts lazily on first deployment.
func New(opts Options) (*Binding, error) {
	if opts.Engine == nil {
		opts.Engine = engine.New()
	}
	if opts.Registry == nil {
		opts.Registry = transport.NewRegistry()
		opts.Registry.Register(transport.NewHTTPTransport())
		if len(opts.Secret) > 0 {
			opts.Registry.Register(transport.NewHTTPGTransport(opts.Secret))
		}
	}
	b := &Binding{
		reg: opts.Registry,
		host: httpd.New(opts.Engine, httpd.Options{
			ListenAddr:  opts.ListenAddr,
			Profile:     opts.Profile,
			Secret:      opts.Secret,
			Admission:   opts.Admission,
			EnablePprof: opts.EnablePprof,
		}),
		categories: make(map[string][]uddi.KeyedReference),
	}
	if opts.UDDIEndpoint != "" {
		udc, err := uddi.NewClient(opts.UDDIEndpoint, opts.Registry)
		if err != nil {
			return nil, err
		}
		b.udc = udc
	}
	comps := binding.Components{
		Deployer: b.Deployer(),
		Invokers: []core.Invoker{b.Invoker()},
	}
	if b.udc != nil {
		comps.Publishers = []core.ServicePublisher{b.Publisher()}
		comps.Locators = []core.ServiceLocator{b.Locator()}
	}
	b.Base = binding.NewBase("http", []string{"http", "httpg", "mem"}, opts.Engine, comps)
	// The engine can deliver decoupled replies (non-anonymous wsa:ReplyTo)
	// to any endpoint this binding's registry can reach. Cross-substrate
	// replies (an HTTP request with a P2PS ReplyTo) need the other
	// binding's sender registered too — see Engine.RegisterReplySender.
	sender := b.ReplySender()
	for _, scheme := range []string{"http", "httpg", "mem"} {
		opts.Engine.RegisterReplySender(scheme, sender)
	}
	return b, nil
}

// ReplySender delivers decoupled replies by POSTing them over the
// binding's transport registry. It is registered on the binding's own
// engine at construction; register it on another binding's engine to let
// that substrate answer requests whose ReplyTo is an HTTP(G) endpoint.
func (b *Binding) ReplySender() engine.ReplySender {
	return binding.PostReplySender(b.reg)
}

// Close shuts the HTTP host down, draining in-flight requests.
func (b *Binding) Close() error { return b.host.Close() }

// ---------------------------------------------------------------------------
// Deployer

type deployer struct{ b *Binding }

// Deployer returns the container-less HTTP deployer.
func (b *Binding) Deployer() core.ServiceDeployer { return deployer{b} }

// Name implements core.ServiceDeployer.
func (d deployer) Name() string { return "httpd" }

// Deploy implements core.ServiceDeployer.
func (d deployer) Deploy(def engine.ServiceDef) (*core.Deployment, error) {
	endpoint, err := d.b.host.Deploy(def)
	if err != nil {
		return nil, err
	}
	defs, err := d.b.host.WSDL(def.Name)
	if err != nil {
		d.b.host.Undeploy(def.Name)
		return nil, err
	}
	return &core.Deployment{
		Service:     d.b.Engine().Service(def.Name),
		Endpoint:    endpoint,
		Definitions: defs,
		Deployer:    "httpd",
	}, nil
}

// Undeploy implements core.ServiceDeployer.
func (d deployer) Undeploy(service string) error {
	if !d.b.host.Undeploy(service) {
		return fmt.Errorf("httpbind: service %q not deployed", service)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Publisher

type publisher struct{ b *Binding }

// Publisher returns the UDDI publisher (requires a UDDI endpoint).
func (b *Binding) Publisher() core.ServicePublisher { return publisher{b} }

// Name implements core.ServicePublisher.
func (p publisher) Name() string { return "uddi" }

// SetCategories attaches extra category-bag entries to a service's
// registry record when it is published (the UDDI analogue of the P2PS
// binding's advert attributes). Call it before Publish.
func (b *Binding) SetCategories(service string, cats []uddi.KeyedReference) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.categories[service] = cats
}

// Publish implements core.ServicePublisher: the deployment is stored as a
// businessService with its endpoint, WSDL location, and the WSDL inlined.
func (p publisher) Publish(ctx context.Context, dep *core.Deployment) (string, error) {
	if p.b.udc == nil {
		return "", fmt.Errorf("httpbind: no UDDI registry configured")
	}
	raw, err := dep.Definitions.Marshal()
	if err != nil {
		return "", err
	}
	name := dep.Service.Name()
	bag := []uddi.KeyedReference{{
		TModelKey: CategoryTModel,
		KeyName:   "binding",
		KeyValue:  "wspeer-http",
	}}
	p.b.mu.Lock()
	bag = append(bag, p.b.categories[name]...)
	p.b.mu.Unlock()
	rec := uddi.BusinessService{
		Name:        name,
		Description: "WSPeer-hosted service",
		Bindings: []uddi.BindingTemplate{{
			AccessPoint:  dep.Endpoint,
			WSDLLocation: dep.Endpoint + "?wsdl",
		}},
		CategoryBag:  bag,
		WSDLDocument: string(raw),
	}
	return p.b.udc.Publish(ctx, rec)
}

// Unpublish implements core.ServicePublisher.
func (p publisher) Unpublish(ctx context.Context, location string) error {
	ok, err := p.b.udc.Unpublish(ctx, location)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("httpbind: registry had no record %q", location)
	}
	return nil
}

// CategoryTModel is the taxonomy key the binding categorizes services
// under.
const CategoryTModel = "uuid:wspeer-binding"

// ---------------------------------------------------------------------------
// Locator

// UDDIQuery is the binding-specific query carrying UDDI category
// constraints alongside the name pattern ("This implementation of the
// ServiceQuery understands UDDI specific categories to search within",
// paper §IV-A).
type UDDIQuery struct {
	// Name pattern with UDDI '%' wildcards ('*' is translated).
	Name string
	// Categories all must match.
	Categories []uddi.KeyedReference
	// MaxRows bounds the result set.
	MaxRows int32
}

// QueryName implements core.ServiceQuery.
func (q UDDIQuery) QueryName() string { return q.Name }

// CacheKey implements core.CacheKeyer: the resolution-cache identity is
// the name pattern, the row bound and the category constraints in
// canonical (sorted) order, so equivalent queries share a cache line.
func (q UDDIQuery) CacheKey() string {
	cats := make([]string, 0, len(q.Categories))
	for _, kr := range q.Categories {
		cats = append(cats, kr.TModelKey+"\x00"+kr.KeyName+"\x00"+kr.KeyValue)
	}
	sort.Strings(cats)
	return fmt.Sprintf("uddi|%s|max=%d|%s", q.Name, q.MaxRows, strings.Join(cats, "\x01"))
}

type locator struct{ b *Binding }

// Locator returns the UDDI locator (requires a UDDI endpoint).
func (b *Binding) Locator() core.ServiceLocator { return locator{b} }

// Name implements core.ServiceLocator.
func (l locator) Name() string { return "uddi" }

// Locate implements core.ServiceLocator.
func (l locator) Locate(ctx context.Context, q core.ServiceQuery, found func(*core.ServiceInfo)) error {
	if l.b.udc == nil {
		return fmt.Errorf("httpbind: no UDDI registry configured")
	}
	fq := uddi.FindQuery{}
	var expr *query.Expr
	switch qq := q.(type) {
	case UDDIQuery:
		fq.Name = strings.ReplaceAll(qq.Name, "*", "%")
		fq.Categories = qq.Categories
		fq.MaxRows = qq.MaxRows
	case core.NameQuery:
		fq.Name = strings.ReplaceAll(qq.Name, "*", "%")
		fq.MaxRows = int32(qq.MaxResults)
		for k, v := range qq.Attrs {
			fq.Categories = append(fq.Categories, uddi.KeyedReference{
				TModelKey: "uuid:attr:" + k, KeyName: k, KeyValue: v,
			})
		}
	case core.ExprQuery:
		// The registry only searches by name; the rich predicate is
		// evaluated client-side over its results.
		fq.Name = strings.ReplaceAll(qq.QueryName(), "*", "%")
		var err error
		if expr, err = query.Compile(qq.Expr); err != nil {
			return fmt.Errorf("httpbind: %w", err)
		}
	default:
		fq.Name = strings.ReplaceAll(q.QueryName(), "*", "%")
	}
	records, err := l.b.udc.Find(ctx, fq)
	if err != nil {
		return err
	}
	var firstErr error
	for _, rec := range records {
		if expr != nil && !expr.Matches(recordSubject(rec)) {
			continue
		}
		info, err := l.infoFromRecord(ctx, rec)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("httpbind: record %q: %w", rec.Name, err)
			}
			continue
		}
		found(info)
	}
	return firstErr
}

// recordSubject maps a registry record onto the query language's subject:
// the category bag doubles as the attribute set (KeyName -> KeyValue).
func recordSubject(rec uddi.BusinessService) *query.Subject {
	attrs := make(map[string]string, len(rec.CategoryBag))
	for _, kr := range rec.CategoryBag {
		if kr.KeyName != "" {
			attrs[kr.KeyName] = kr.KeyValue
		}
	}
	return &query.Subject{Name: rec.Name, Attrs: attrs}
}

func (l locator) infoFromRecord(ctx context.Context, rec uddi.BusinessService) (*core.ServiceInfo, error) {
	if len(rec.Bindings) == 0 {
		return nil, fmt.Errorf("no binding templates")
	}
	bt := rec.Bindings[0]
	var defs *wsdl.Definitions
	var err error
	if rec.WSDLDocument != "" {
		defs, err = parseWSDL(ctx, []byte(rec.WSDLDocument))
	} else if bt.WSDLLocation != "" {
		defs, err = FetchWSDL(ctx, bt.WSDLLocation)
	} else {
		return nil, fmt.Errorf("record has neither inline WSDL nor a WSDL location")
	}
	if err != nil {
		return nil, err
	}
	return &core.ServiceInfo{
		Name:        rec.Name,
		Description: rec.Description,
		Definitions: defs,
		Endpoint:    bt.AccessPoint,
		Locator:     "uddi",
		Meta:        map[string]string{"serviceKey": rec.ServiceKey},
	}, nil
}

// FetchWSDL retrieves and parses a WSDL document from a URL (the paper's
// "searching for WSDL files" path when the registry does not inline the
// document), resolving any wsdl:import references over HTTP.
func FetchWSDL(ctx context.Context, url string) (*wsdl.Definitions, error) {
	data, err := httpGet(ctx, url)
	if err != nil {
		return nil, err
	}
	return parseWSDL(ctx, data)
}

// parseWSDL parses a WSDL document, fetched or inlined in a registry
// record, and resolves its wsdl:import references over HTTP.
func parseWSDL(ctx context.Context, data []byte) (*wsdl.Definitions, error) {
	defs, err := wsdl.Parse(data)
	if err != nil {
		return nil, err
	}
	if len(defs.Imports) > 0 {
		if err := defs.ResolveImports(ctx, httpGet); err != nil {
			return nil, err
		}
	}
	return defs, nil
}

// maxWSDLBytes bounds a fetched WSDL document: a longer one is refused, not
// cut short into a parse error.
const maxWSDLBytes = 16 << 20

var wsdlClient = &http.Client{Timeout: 15 * time.Second}

func httpGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := wsdlClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("httpbind: GET %s: %s", url, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxWSDLBytes+1))
	if err == nil && len(data) > maxWSDLBytes {
		err = fmt.Errorf("httpbind: GET %s: document larger than the %d-byte limit", url, maxWSDLBytes)
	}
	return data, err
}

// ---------------------------------------------------------------------------
// Invoker

type invoker struct{ b *Binding }

// Invoker returns the HTTP/HTTPG invoker.
func (b *Binding) Invoker() core.Invoker { return invoker{b} }

// Schemes implements core.Invoker.
func (i invoker) Schemes() []string { return []string{"http", "httpg", "mem"} }

// Invoke implements core.Invoker: the exchange is published on the
// pipeline carrier and the terminal stage is visibly the scheme-selected
// transport.
func (i invoker) Invoke(c *pipeline.Call, svc *core.ServiceInfo, op string, params []engine.Param) (*engine.Result, error) {
	return binding.Invoke(c, i.b.reg, svc, op, params)
}

// httpReplyEndpoint is a hosted callback route on the binding's HTTP host.
type httpReplyEndpoint struct {
	epr    *wsaddr.EndpointReference
	cancel func()
}

// EPR implements core.ReplyEndpoint.
func (e *httpReplyEndpoint) EPR() *wsaddr.EndpointReference { return e.epr }

// Close implements core.ReplyEndpoint.
func (e *httpReplyEndpoint) Close() error { e.cancel(); return nil }

// HostReplyEndpoint implements core.CallbackHoster: the client-side reply
// endpoint is a callback route on the binding's container-less HTTP host,
// which launches its lazy listener if no deployment already has — so a
// pure consumer becomes addressable the moment it first invokes with the
// callback pattern.
func (i invoker) HostReplyEndpoint(deliver func(body []byte)) (core.ReplyEndpoint, error) {
	url, cancel, err := i.b.host.HostCallback(deliver)
	if err != nil {
		return nil, err
	}
	return &httpReplyEndpoint{epr: wsaddr.NewEndpointReference(url), cancel: cancel}, nil
}
