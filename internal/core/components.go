package core

import (
	"context"
	"fmt"

	"wspeer/internal/engine"
	"wspeer/internal/pipeline"
	"wspeer/internal/wsdl"
)

// ServiceQuery is the abstraction WSPeer uses "to allow for varying kinds
// of query. The simplest ServiceQuery queries on the name of a service"
// (paper §III). Bindings type-switch on the queries they understand;
// every binding must at minimum handle NameQuery.
type ServiceQuery interface {
	// QueryName returns the service name (pattern) being sought, the
	// lowest common denominator all locators understand.
	QueryName() string
}

// NameQuery is the universal query: a service name pattern plus optional
// attribute constraints for locators with attribute-based search.
type NameQuery struct {
	// Name of the sought service. Locators interpret their native
	// wildcard conventions; a bare name always means an exact match.
	Name string
	// Attrs are attribute constraints, honoured by attribute-capable
	// locators (P2PS) and mapped to category bags by UDDI locators when
	// possible.
	Attrs map[string]string
	// MaxResults bounds the result set (0 = unbounded).
	MaxResults int
}

// QueryName implements ServiceQuery.
func (q NameQuery) QueryName() string { return q.Name }

// ExprQuery is the rich query: a predicate in the internal/query language
// (the paper's "more complex queries could be constructed from languages
// such as DAML" extension point). The P2PS binding evaluates it
// in-network; registry-backed locators evaluate it client-side over their
// results.
type ExprQuery struct {
	// Name optionally pre-filters by name pattern for locators that can
	// only search by name server-side ("" or "*" = all).
	Name string
	// Expr is the predicate source, e.g.
	// "name like 'Echo*' and attr(kind) = 'echo'".
	Expr string
}

// QueryName implements ServiceQuery.
func (q ExprQuery) QueryName() string {
	if q.Name == "" {
		return "*"
	}
	return q.Name
}

// ServiceInfo is WSPeer's homogenised description of a located service.
// "The application code deals with WSPeer data structures, not those that
// are transmitted over the wire, so the application does not have to care
// where or how the service has been located" (paper §III).
type ServiceInfo struct {
	// Name of the service.
	Name string
	// Description is optional human documentation.
	Description string
	// Definitions is the service's parsed WSDL.
	Definitions *wsdl.Definitions
	// Endpoint is the resolved endpoint: an http(s)/httpg URL or a
	// p2ps:// URI. Its scheme selects the Invoker.
	Endpoint string
	// Locator names the component that found the service.
	Locator string
	// Meta carries locator-specific string metadata.
	Meta map[string]string
	// Extra carries binding-private data (e.g. the P2PS service
	// advertisement) between a binding's locator and its invoker.
	Extra interface{}
}

// Deployment describes a service the Server has deployed.
type Deployment struct {
	// Service is the engine-side registration.
	Service *engine.Service
	// Endpoint the service is reachable at.
	Endpoint string
	// Definitions bound to the live endpoint.
	Definitions *wsdl.Definitions
	// Deployer names the component that performed the deployment.
	Deployer string
	// Extra carries binding-private deployment state.
	Extra interface{}
}

// ServiceLocator finds services. Implementations stream each located
// service through the found callback and return when the search is
// exhausted, fails, or ctx is done.
type ServiceLocator interface {
	// Name identifies the locator in events.
	Name() string
	// Locate runs the query.
	Locate(ctx context.Context, q ServiceQuery, found func(*ServiceInfo)) error
}

// ServicePublisher makes a deployed service discoverable.
type ServicePublisher interface {
	// Name identifies the publisher in events.
	Name() string
	// Publish announces the deployment, returning a publisher-specific
	// location (registry key, advert ID, ...).
	Publish(ctx context.Context, dep *Deployment) (location string, err error)
	// Unpublish withdraws a previously returned location.
	Unpublish(ctx context.Context, location string) error
}

// ServiceDeployer exposes an engine service definition at an endpoint.
type ServiceDeployer interface {
	// Name identifies the deployer in events.
	Name() string
	// Deploy registers and exposes the service.
	Deploy(def engine.ServiceDef) (*Deployment, error)
	// Undeploy removes the service.
	Undeploy(service string) error
}

// Invoker carries an invocation to a located service. The Client selects
// an invoker by the endpoint's URI scheme.
type Invoker interface {
	// Schemes lists the endpoint URI schemes this invoker serves.
	Schemes() []string
	// Invoke performs one attempt of an operation as the terminal of the
	// client pipeline: it runs under the carrier's (possibly
	// interceptor-derived) context c.Ctx, reads the exchange pattern and
	// headers from the carrier's Meta, and publishes the wire-level
	// exchange on c.Request/c.Response, so interceptors like Events see
	// the bytes the scheme-selected transport moved. A nil result with a
	// nil error signals a one-way operation.
	Invoke(c *pipeline.Call, svc *ServiceInfo, op string, params []engine.Param) (*engine.Result, error)
}

// ErrNoLocator is returned when a Client has no locator registered.
var ErrNoLocator = fmt.Errorf("core: no ServiceLocator registered")

// ErrNoDeployer is returned when a Server has no deployer registered.
var ErrNoDeployer = fmt.Errorf("core: no ServiceDeployer registered")
