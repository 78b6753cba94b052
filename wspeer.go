// Package wspeer is a Go implementation of WSPeer, "an interface to Web
// service hosting and invocation" (Harrison & Taylor, IPPS 2005).
//
// WSPeer sits between an application and the network, letting the
// application act as a service-oriented peer — hosting, publishing,
// discovering and invoking SOAP/WSDL services — over interchangeable
// substrates. Two bindings ship with this implementation:
//
//   - the standard binding (NewHTTPBinding): container-less HTTP hosting,
//     UDDI-style registry publication and discovery, HTTP/HTTPG invocation;
//
//   - the P2PS binding (NewP2PSBinding): services exposed as unidirectional
//     pipes on a peer-to-peer overlay, advertised with XML adverts carrying
//     a WSDL "definition pipe", discovered by in-network queries, and made
//     request/response-capable through WS-Addressing ReplyTo headers.
//
//   - the in-memory binding (NewInMemBinding): services hosted on a
//     process-local network and published to a shared in-process
//     directory — the deterministic substrate for tests and simulations.
//
// Every binding implements the same Binding contract (Attach/Detach/Use/
// Close) and attaches with Peer.AttachBinding; ComposeClient builds a peer
// from explicitly mixed components (e.g. the UDDI locator with the P2PS
// invoker). Application code works exclusively with this package's types;
// swapping or mixing bindings does not change it. See the examples/
// directory for runnable programs and DESIGN.md for the architecture.
//
// Invocation and dispatch run on a zero-allocation fast path: WSDL
// operation details are memoized per Definitions, XSD encode/decode plans
// are compiled once per Go type and write and read a message body with no
// element tree in between, envelopes are written through pooled XML
// writers, and the HTTP transports share a tuned keep-alive connection
// pool. See DESIGN.md ("The invocation fast path") for the invariants.
//
// # Quick start
//
//	peer := wspeer.NewPeer()
//	binding, _ := wspeer.NewHTTPBinding(wspeer.HTTPOptions{UDDIEndpoint: registryURL})
//	peer.AttachBinding(binding)
//
//	// Host: the application is its own container.
//	dep, _ := peer.Server().DeployAndPublish(ctx, wspeer.ServiceDef{
//		Name: "Echo",
//		Operations: []wspeer.OperationDef{{
//			Name: "echo", Func: func(s string) string { return s },
//		}},
//	})
//
//	// Consume: locate anywhere, invoke anything.
//	info, _ := peer.Client().LocateOne(ctx, wspeer.NameQuery{Name: "Echo"})
//	inv, _ := peer.Client().NewInvocation(info)
//	res, _ := inv.Invoke(ctx, "echo", wspeer.P("in0", "hello"))
package wspeer

import (
	"io"
	"time"

	"wspeer/internal/binding"
	"wspeer/internal/binding/httpbind"
	"wspeer/internal/binding/inmembind"
	"wspeer/internal/binding/p2psbind"
	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/exchange"
	"wspeer/internal/flow"
	"wspeer/internal/httpd"
	"wspeer/internal/p2ps"
	"wspeer/internal/pipeline"
	"wspeer/internal/resilience"
	"wspeer/internal/resolve"
	"wspeer/internal/soap"
	"wspeer/internal/telemetry"
	"wspeer/internal/transport"
	"wspeer/internal/uddi"
	"wspeer/internal/wsaddr"
	"wspeer/internal/wsdl"
)

// The interface tree (paper Fig. 2).
type (
	// Peer is the root of the interface tree.
	Peer = core.Peer
	// Client is the consumer side of a peer.
	Client = core.Client
	// Server is the provider side of a peer.
	Server = core.Server
	// Invocation is a client-side handle on one located service.
	Invocation = core.Invocation
)

// Queries, results and component descriptions.
type (
	// ServiceQuery abstracts over binding-specific queries.
	ServiceQuery = core.ServiceQuery
	// NameQuery queries on a service name (and optional attributes).
	NameQuery = core.NameQuery
	// ExprQuery queries with a rich predicate expression, e.g.
	// "name like 'Echo*' and attr(kind) = 'echo'" (see internal/query).
	ExprQuery = core.ExprQuery
	// UDDIQuery adds UDDI category constraints (standard binding).
	UDDIQuery = httpbind.UDDIQuery
	// ServiceInfo describes a located service.
	ServiceInfo = core.ServiceInfo
	// Deployment describes a hosted service.
	Deployment = core.Deployment
	// P2PSURI is WSPeer's p2ps://peer/service#pipe endpoint reference.
	P2PSURI = core.P2PSURI
)

// Pluggable component interfaces.
type (
	// ServiceLocator finds services.
	ServiceLocator = core.ServiceLocator
	// ServicePublisher makes deployments discoverable.
	ServicePublisher = core.ServicePublisher
	// ServiceDeployer exposes service definitions at endpoints.
	ServiceDeployer = core.ServiceDeployer
	// Invoker carries invocations to located services, as the terminal
	// of the client pipeline: Invoke(call, service, op, params).
	Invoker = core.Invoker
)

// Events (paper §III: the PeerMessageListener interface).
type (
	// PeerMessageListener receives all five event classes.
	PeerMessageListener = core.PeerMessageListener
	// ListenerFuncs adapts callbacks to PeerMessageListener.
	ListenerFuncs = core.ListenerFuncs
	// QueuedListener decouples slow listeners from protocol goroutines.
	QueuedListener = core.QueuedListener
	// DiscoveryEvent reports discovery progress.
	DiscoveryEvent = core.DiscoveryEvent
	// PublishEvent reports publications.
	PublishEvent = core.PublishEvent
	// ClientMessageEvent reports client-side exchanges.
	ClientMessageEvent = core.ClientMessageEvent
	// ServerMessageEvent reports raw server-side exchanges.
	ServerMessageEvent = core.ServerMessageEvent
	// DeploymentMessageEvent reports (un)deployments.
	DeploymentMessageEvent = core.DeploymentMessageEvent
	// HealthEvent reports endpoint health-state transitions (circuit
	// breakers moving between closed, open and half-open).
	HealthEvent = core.HealthEvent
)

// The unified call pipeline (see DESIGN.md "Call pipeline"): interceptors
// wrap client invocations (Client.Use) and server dispatch (the bindings'
// Use methods) around the same Call carrier.
type (
	// PipelineCall is the carrier one call's state travels in through an
	// interceptor chain.
	PipelineCall = pipeline.Call
	// CallFunc is the continuation an interceptor wraps.
	CallFunc = pipeline.CallFunc
	// CallInterceptor decorates a CallFunc with cross-cutting behaviour.
	// Its outer function runs once, when the chain is composed (at Use);
	// per-call state belongs in the CallFunc it returns.
	CallInterceptor = pipeline.Interceptor
	// CallDirection distinguishes client calls from server dispatches.
	CallDirection = pipeline.Direction
	// RetryOptions tunes the Retry interceptor.
	RetryOptions = pipeline.RetryOptions
)

// The telemetry spine (DESIGN.md §12): every layer — pipeline
// interceptors, engine dispatch, core invocation and events, transports,
// hosts and the resilience layer — records into one process-wide hub of
// spans, counters, gauges, histograms and a per-service call table.
type (
	// TelemetryHub bundles the spine's tracer, meter and call table.
	TelemetryHub = telemetry.Hub
	// TelemetrySnapshot is a point-in-time copy of every instrument.
	TelemetrySnapshot = telemetry.Snapshot
	// TelemetrySink receives ended spans (attach with Telemetry().Tracer.SetSink).
	TelemetrySink = telemetry.Sink
	// Span is one timed operation: a client invocation or a server
	// dispatch, linked to its trace across the wire.
	Span = telemetry.Span
	// SpanData is an ended span as delivered to a sink.
	SpanData = telemetry.SpanData
	// SpanCollector is a bounded in-memory sink for tests and debugging.
	SpanCollector = telemetry.Collector
	// CallSnapshot is one service+direction row of the spine's call table.
	CallSnapshot = telemetry.CallSnapshot
	// SpanRing is a bounded ring of ended spans backing the Chrome trace
	// export; attach one with EnableTracing.
	SpanRing = telemetry.SpanRing
	// FlightRecord is one completed call retained by the flight recorder.
	FlightRecord = telemetry.CallRecord
	// FlightRecorder is the always-on, tail-sampled ring of completed
	// calls at Telemetry().Flight.
	FlightRecorder = telemetry.Recorder
	// FlightFilter selects flight records in FlightRecorder.Query.
	FlightFilter = telemetry.RecordFilter
	// FlightStats is the recorder's sampling counters.
	FlightStats = telemetry.RecorderStats
	// Logger is the spine's structured, leveled logger at Telemetry().Log.
	Logger = telemetry.Logger
	// LogEntry is one structured log line.
	LogEntry = telemetry.LogEntry
	// LogLevel orders log severities.
	LogLevel = telemetry.Level
	// LogSink receives emitted log entries (attach with Logger.SetSink).
	LogSink = telemetry.LogSink
)

// Log levels for Telemetry().Log.SetLevel.
const (
	LogDebug = telemetry.LevelDebug
	LogInfo  = telemetry.LevelInfo
	LogWarn  = telemetry.LevelWarn
	LogError = telemetry.LevelError
	LogOff   = telemetry.LevelOff
)

// Diagnostics endpoints an HTTP host serves alongside its services; see
// DESIGN.md §16. MetricsPath is Prometheus text exposition, TracePath is
// Chrome trace-event JSON (load into ui.perfetto.dev), HealthPath is a
// liveness/readiness probe, FlightPath queries the flight recorder.
const (
	MetricsPath = httpd.MetricsPath
	TracePath   = httpd.TracePath
	HealthPath  = httpd.HealthPath
	FlightPath  = httpd.FlightPath
)

// Telemetry returns the process-wide telemetry hub every layer records
// into. Attach a sink to Telemetry().Tracer to receive spans; read
// counters and the call table through Snapshot.
func Telemetry() *TelemetryHub { return telemetry.Default() }

// Snapshot returns a point-in-time copy of the process-wide telemetry:
// counters, gauges, histograms and the per-service call table. The same
// document is served as JSON at an HTTP host's /debug/wspeer endpoint.
func Snapshot() TelemetrySnapshot { return telemetry.Default().Snapshot() }

// NewSpanCollector returns a bounded in-memory span sink (default
// capacity 4096 for capacity <= 0).
func NewSpanCollector(capacity int) *SpanCollector { return telemetry.NewCollector(capacity) }

// EnableTracing attaches a bounded span ring (default capacity 2048 for
// capacity <= 0) to the process-wide tracer and returns it. Once enabled,
// an HTTP host serves the buffered spans as Chrome trace-event JSON at
// TracePath, and WriteChromeTrace renders them to any writer.
func EnableTracing(capacity int) *SpanRing { return telemetry.Default().EnableTracing(capacity) }

// WritePrometheus renders the process-wide telemetry — counters, gauges,
// histograms, the call table and flight-recorder stats — in Prometheus
// text exposition format. The same document is served at MetricsPath by
// an HTTP host.
func WritePrometheus(w io.Writer) error { return telemetry.Default().WritePrometheus(w) }

// WriteChromeTrace renders spans as Chrome trace-event JSON, loadable in
// chrome://tracing or https://ui.perfetto.dev. Pass a SpanRing's Spans()
// or a SpanCollector's Spans().
func WriteChromeTrace(w io.Writer, spans []SpanData) error {
	return telemetry.WriteChromeTrace(w, spans)
}

// Call directions.
const (
	// ClientCall marks an outbound invocation.
	ClientCall = pipeline.ClientCall
	// ServerDispatch marks an inbound dispatch.
	ServerDispatch = pipeline.ServerDispatch
)

// Deadline returns an interceptor that bounds each call with a context
// timeout.
func Deadline(d time.Duration) CallInterceptor { return pipeline.Deadline(d) }

// Retry returns an interceptor that retries failed idempotent calls with
// exponential backoff; see MarkIdempotent and Idempotent.
func Retry(opts RetryOptions) CallInterceptor { return pipeline.Retry(opts) }

// MarkIdempotent flags a call as safe to retry.
func MarkIdempotent(c *PipelineCall) { pipeline.MarkIdempotent(c) }

// Idempotent reports whether a call was flagged with MarkIdempotent.
func Idempotent(c *PipelineCall) bool { return pipeline.Idempotent(c) }

// The resilience layer (DESIGN.md §10): circuit breaking, cross-binding
// failover (Client.NewFailoverInvocation), server-side admission control
// and deterministic fault injection.
type (
	// Breaker is a per-endpoint circuit breaker.
	Breaker = resilience.Breaker
	// BreakerOptions tunes breakers (window, threshold, open timeout).
	BreakerOptions = resilience.BreakerOptions
	// BreakerState is closed, open or half-open.
	BreakerState = resilience.BreakerState
	// BreakerGroup is the per-client endpoint health registry
	// (Client.Breakers, tuned with Client.ConfigureBreakers): it guards
	// every attempt of a failover or hedged invocation.
	BreakerGroup = resilience.Group
	// BreakerOpenError is the local refusal an open breaker returns.
	BreakerOpenError = resilience.BreakerOpenError
	// Admission is server-side admission control: a concurrency limit
	// with a bounded, deadline-aware wait queue and load shedding.
	Admission = resilience.Admission
	// AdmissionOptions tunes admission control.
	AdmissionOptions = resilience.AdmissionOptions
	// AdmissionStats is a point-in-time admission snapshot.
	AdmissionStats = resilience.AdmissionStats
	// OverloadError is what shed callers receive (HTTP 503 + Retry-After
	// on the standard binding).
	OverloadError = resilience.OverloadError
	// FaultInjector injects seeded, reproducible faults into transports,
	// pipelines and netsim links.
	FaultInjector = resilience.Injector
	// FaultInjectorOptions configures a FaultInjector (virtual clock).
	FaultInjectorOptions = resilience.InjectorOptions
	// FaultPlan describes the faults to inject for matching endpoints.
	FaultPlan = resilience.FaultPlan
	// RetryBudget is a client-wide retransmission token bucket shared by
	// Retry and Hedge (DESIGN.md §14): retries and hedges spend tokens,
	// successes credit a fraction back, so retransmission volume tracks
	// the success rate and cannot storm a failing server.
	RetryBudget = resilience.RetryBudget
	// RetryBudgetOptions tunes a RetryBudget (floor, cap, credit ratio).
	RetryBudgetOptions = resilience.BudgetOptions
	// RetryBudgetStats is a point-in-time budget snapshot.
	RetryBudgetStats = resilience.BudgetStats
	// HedgeOptions tunes the Hedge interceptor (threshold, fan-out,
	// budget).
	HedgeOptions = pipeline.HedgeOptions
	// InvocationHedgeOptions tunes a hedged invocation built with
	// Client.NewHedgedInvocation.
	InvocationHedgeOptions = core.HedgeOptions
)

// Circuit breaker states.
const (
	// BreakerClosed: calls flow normally.
	BreakerClosed = resilience.BreakerClosed
	// BreakerOpen: calls are refused locally.
	BreakerOpen = resilience.BreakerOpen
	// BreakerHalfOpen: probe calls decide between re-closing and
	// re-opening.
	BreakerHalfOpen = resilience.BreakerHalfOpen
)

// NewAdmission returns a server-side admission controller; install it via
// HTTPOptions.Admission (or engine.SetAdmission for other hosts).
func NewAdmission(opts AdmissionOptions) *Admission { return resilience.NewAdmission(opts) }

// NewFaultInjector returns a deterministic fault injector drawing from
// the seed.
func NewFaultInjector(seed int64, opts ...FaultInjectorOptions) *FaultInjector {
	return resilience.NewInjector(seed, opts...)
}

// NewRetryBudget returns a standalone retransmission budget; the
// per-client budget is installed with Client.ConfigureRetryBudget.
func NewRetryBudget(opts RetryBudgetOptions) *RetryBudget { return resilience.NewRetryBudget(opts) }

// Hedge returns an interceptor that races a second attempt against a slow
// primary, first success wins; see pipeline.Hedge for the semantics and
// Client.NewHedgedInvocation for the endpoint-aware form.
func Hedge(opts HedgeOptions) CallInterceptor { return pipeline.Hedge(opts) }

// DeadlineHeader is the HTTP header carrying the caller's absolute
// deadline (microseconds since the Unix epoch) across the wire, so a
// saturated server can drop requests whose caller has already given up.
const DeadlineHeader = transport.DeadlineHeader

// The resolution-and-scheduling layer (DESIGN.md §13): a per-client
// discovery resolution cache that takes repeated Locate fan-outs off the
// hot path (Client.LocateCached, Client.NewFailoverInvocationFor), and a
// bounded invocation scheduler behind InvokeAsync and the scatter-gather
// Client.InvokeMany.
type (
	// ResolutionCache memoizes query identity → located services with
	// TTL, stale-while-revalidate refresh, negative caching and
	// singleflight collapsing (Client.ResolutionCache).
	ResolutionCache = resolve.Cache
	// ResolutionCacheOptions tunes the cache (TTL, stale window,
	// negative TTL, capacity); install with
	// Client.ConfigureResolutionCache.
	ResolutionCacheOptions = resolve.Options
	// ResolutionCacheStats is a point-in-time cache counter snapshot.
	ResolutionCacheStats = resolve.Stats
	// QueryCacheKeyer lets a custom ServiceQuery define its own
	// resolution-cache identity.
	QueryCacheKeyer = core.CacheKeyer
	// SchedulerOptions tunes the client's bounded invocation scheduler
	// (concurrency cap, queue bound, queue timeout); install with
	// Client.ConfigureScheduler.
	SchedulerOptions = core.SchedulerOptions
	// SchedulerStats is a point-in-time scheduler snapshot
	// (Client.SchedulerStats).
	SchedulerStats = core.SchedulerStats
	// ManyResult is one endpoint's outcome within Client.InvokeMany.
	ManyResult = core.ManyResult
)

// QueryKey canonicalizes a ServiceQuery into its resolution-cache
// identity; queries with equal keys share a cache line.
func QueryKey(q ServiceQuery) string { return core.QueryKey(q) }

// The message-exchange layer (DESIGN.md §15): every invocation is a
// correlated exchange of one-way messages (paper §IV-B). Plain Invoke is
// the anonymous request/response fast path; Invocation.InvokeOneWay sends
// fire-and-forget, and Invocation.InvokeCallback has the reply delivered
// as a separate message to a client-hosted endpoint, correlated by
// wsa:RelatesTo in a bounded table.
type (
	// ExchangeTableStats is a point-in-time correlation-table counter
	// snapshot (Client.ExchangeStats).
	ExchangeTableStats = exchange.TableStats
	// PendingReply is the application's handle on a callback
	// invocation's decoupled reply (Invocation.InvokeCallback).
	PendingReply = core.PendingReply
	// ReplyEndpoint is a live client-hosted endpoint receiving decoupled
	// replies — an HTTP callback route, a P2PS input pipe, a mem://
	// handler.
	ReplyEndpoint = core.ReplyEndpoint
	// CallbackHoster marks invokers able to host a reply endpoint on
	// their substrate, which is what enables InvokeCallback for their
	// schemes.
	CallbackHoster = core.CallbackHoster
	// ExchangeExpiredError reports a callback whose reply did not arrive
	// within its TTL.
	ExchangeExpiredError = exchange.ExpiredError
	// EndpointReference is a WS-Addressing endpoint reference.
	EndpointReference = wsaddr.EndpointReference
	// MessageHeaders is the WS-Addressing 2004 header block.
	MessageHeaders = wsaddr.MessageHeaders
)

// AnonymousAddress is the WS-Addressing anonymous role URI: a ReplyTo of
// this address means "respond on the transport back channel".
const AnonymousAddress = wsaddr.Anonymous

// NewEndpointReference returns an EPR for a plain address.
func NewEndpointReference(address string) *EndpointReference {
	return wsaddr.NewEndpointReference(address)
}

// Service definition and invocation payloads (messaging engine).
type (
	// ServiceDef declares a deployable service.
	ServiceDef = engine.ServiceDef
	// OperationDef declares one operation.
	OperationDef = engine.OperationDef
	// Param is one named invocation input.
	Param = engine.Param
	// Result is a decoded-on-demand invocation result.
	Result = engine.Result
	// Fault is a SOAP fault; it implements error.
	Fault = soap.Fault
	// Definitions is a parsed or generated WSDL document.
	Definitions = wsdl.Definitions
)

// Bindings.
type (
	// Binding is the contract every substrate binding implements; attach
	// one with Peer.AttachBinding.
	Binding = core.Binding
	// BindingComponents is the pluggable-component bundle a binding
	// contributes (deployer, publishers, locators, invokers).
	BindingComponents = core.Components
	// HTTPBinding is the standard implementation (paper §IV-A).
	HTTPBinding = httpbind.Binding
	// HTTPOptions configures the standard binding.
	HTTPOptions = httpbind.Options
	// P2PSBinding is the P2PS implementation (paper §IV-B).
	P2PSBinding = p2psbind.Binding
	// P2PSOptions configures the P2PS binding.
	P2PSOptions = p2psbind.Options
	// P2PSPeer is the underlying peer-to-peer node.
	P2PSPeer = p2ps.Peer
	// P2PSConfig configures a P2PS node.
	P2PSConfig = p2ps.Config
	// P2PSTransport attaches a P2PS node to a network.
	P2PSTransport = p2ps.Transport
	// InMemBinding hosts services on a process-local network (tests,
	// simulations, single-process compositions).
	InMemBinding = inmembind.Binding
	// InMemOptions configures the in-memory binding.
	InMemOptions = inmembind.Options
	// InMemDirectory is the in-memory binding's shared service registry.
	InMemDirectory = inmembind.Directory
	// InMemNetwork carries mem:// invocations between in-memory bindings.
	InMemNetwork = transport.InMemNetwork
	// UDDIRegistry is the in-process registry (host it with uddid or
	// embed it).
	UDDIRegistry = uddi.Registry
	// UDDIBusinessService is a registry record.
	UDDIBusinessService = uddi.BusinessService
	// UDDIBindingTemplate is one access point of a registry record.
	UDDIBindingTemplate = uddi.BindingTemplate
	// UDDIKeyedReference categorizes a record within a taxonomy.
	UDDIKeyedReference = uddi.KeyedReference
	// UDDITModel is a reusable technical model (taxonomy or interface
	// fingerprint).
	UDDITModel = uddi.TModel
	// UDDIFindQuery selects registry records.
	UDDIFindQuery = uddi.FindQuery
	// UDDIClient invokes a remote registry service.
	UDDIClient = uddi.Client
)

// NewUDDIClient returns a client for the registry service at endpoint,
// using the HTTP transport.
func NewUDDIClient(endpoint string) (*UDDIClient, error) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewHTTPTransport())
	return uddi.NewClient(endpoint, reg)
}

// Workflow composition (the Triana capability, paper §V).
type (
	// Workflow is an executable DAG of service invocations.
	Workflow = flow.Workflow
	// WorkflowStep is one node of a workflow.
	WorkflowStep = flow.Step
	// WorkflowSource supplies one step input.
	WorkflowSource = flow.Source
	// WorkflowStepEvent reports a step's completion.
	WorkflowStepEvent = flow.StepEvent
)

// NewWorkflow returns an empty workflow.
func NewWorkflow(name string) *Workflow { return flow.New(name) }

// ConstInput supplies a fixed workflow input.
func ConstInput(v interface{}) WorkflowSource { return flow.Const(v) }

// StepOutput wires a prior step's result part into an input; proto is a
// value of the expected Go type.
func StepOutput(step, part string, proto interface{}) WorkflowSource {
	return flow.Output(step, part, proto)
}

// NewPeer returns a peer with empty client and server sides; attach one or
// more bindings to populate them.
func NewPeer() *Peer { return core.NewPeer() }

// P constructs a named invocation parameter.
func P(name string, value interface{}) Param { return engine.P(name, value) }

// NewQueuedListener wraps a listener with an event queue so slow consumers
// do not block protocol goroutines.
func NewQueuedListener(inner PeerMessageListener, capacity int) *QueuedListener {
	return core.NewQueuedListener(inner, capacity)
}

// NewHTTPBinding builds the standard (HTTP/UDDI) binding.
func NewHTTPBinding(opts HTTPOptions) (*HTTPBinding, error) { return httpbind.New(opts) }

// NewP2PSBinding builds the P2PS binding over an existing P2PS peer.
func NewP2PSBinding(opts P2PSOptions) (*P2PSBinding, error) { return p2psbind.New(opts) }

// NewInMemBinding builds the in-memory binding. Share one InMemNetwork and
// one InMemDirectory between bindings that should reach each other.
func NewInMemBinding(opts InMemOptions) (*InMemBinding, error) { return inmembind.New(opts) }

// NewInMemNetwork returns an empty in-memory network.
func NewInMemNetwork() *InMemNetwork { return transport.NewInMemNetwork() }

// NewInMemDirectory returns an empty in-memory service directory.
func NewInMemDirectory() *InMemDirectory { return inmembind.NewDirectory() }

// ComposeClient builds a peer from explicitly mixed binding components —
// the paper's "P2PS client using the UDDI locator" made first-class:
//
//	mixed, _ := wspeer.ComposeClient(wspeer.BindingComponents{
//	    Locators: []wspeer.ServiceLocator{httpB.Locator()},
//	    Invokers: []wspeer.Invoker{p2psB.Invoker()},
//	})
func ComposeClient(parts BindingComponents) (*Peer, error) { return binding.ComposeClient(parts) }

// NewP2PSPeer creates a P2PS node.
func NewP2PSPeer(cfg P2PSConfig) (*P2PSPeer, error) { return p2ps.NewPeer(cfg) }

// NewTCPP2PSPeer creates a P2PS node listening on a TCP address
// ("127.0.0.1:0" for ephemeral), attached to the given seed rendezvous.
func NewTCPP2PSPeer(listen string, rendezvous bool, seeds ...string) (*P2PSPeer, error) {
	tr, err := p2ps.NewTCPTransport(listen)
	if err != nil {
		return nil, err
	}
	return p2ps.NewPeer(p2ps.Config{Transport: tr, Rendezvous: rendezvous, Seeds: seeds})
}

// NewTCPTransport creates a TCP transport for a P2PS node, for use with
// NewP2PSPeer and a full P2PSConfig.
func NewTCPTransport(listen string) (P2PSTransport, error) {
	return p2ps.NewTCPTransport(listen)
}

// NewUDDIRegistry returns an empty in-process registry.
func NewUDDIRegistry() *UDDIRegistry { return uddi.NewRegistry() }

// UDDIServiceDef exposes a registry as a deployable WSPeer service, so a
// registry node is itself just another WSPeer-hosted service.
func UDDIServiceDef(r *UDDIRegistry) ServiceDef { return uddi.ServiceDef(r) }

// ParseP2PSURI parses a p2ps:// endpoint URI.
func ParseP2PSURI(s string) (P2PSURI, error) { return core.ParseP2PSURI(s) }

// ServiceFromObject exposes every exported method of obj as an operation —
// the paper's stateful-object service (§III point 3).
func ServiceFromObject(name string, obj interface{}) (ServiceDef, error) {
	return engine.FromObject(name, obj)
}
