// Package httpd is WSPeer's container-less HTTP hosting environment.
//
// In the traditional model an application is deployed *into* a container
// that owns the request/response lifecycle. WSPeer "reverses the power
// relationship between the deployed component and the environment used for
// deploying and exposing it, in effect allowing the component to become its
// own container" (paper §III). Concretely:
//
//   - No server runs until the application deploys its first service; the
//     listener is launched lazily at that moment.
//   - The application may register an Interceptor that sees every raw
//     request before the messaging engine does and may handle it outright.
//   - The host's own capabilities are deliberately minimal: listing the
//     available services, serving their WSDL, and forwarding requests to
//     the engine.
package httpd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wspeer/internal/engine"
	"wspeer/internal/resilience"
	"wspeer/internal/soap"
	"wspeer/internal/telemetry"
	"wspeer/internal/transport"
	"wspeer/internal/wsdl"
)

// BasePath is the URL prefix under which services are exposed.
const BasePath = "/services/"

// DebugPath is the URL of the host's telemetry snapshot endpoint: a JSON
// dump of the process-wide spine (counters, gauges, histograms, the
// per-service call table) plus this host's engine and admission stats.
const DebugPath = "/debug/wspeer"

// CallbackPath is the URL prefix under which client-hosted reply endpoints
// (HostCallback) receive decoupled replies.
const CallbackPath = "/callback/"

// Spine counters for hosted HTTP traffic.
var (
	mHostRequests  = telemetry.Default().Meter.Counter("httpd.requests")
	mHostFaults    = telemetry.Default().Meter.Counter("httpd.faults")
	mHostOverloads = telemetry.Default().Meter.Counter("httpd.overloads")
)

// maxRequestBytes bounds request bodies accepted from the network; a
// larger one is refused with 413, never cut short.
const maxRequestBytes = 64 << 20

// shutdownTimeout bounds how long Close waits for in-flight requests to
// drain before forcing the listener down.
const shutdownTimeout = 2 * time.Second

// soapContentType is the Content-Type value of nearly every response,
// shared between them: net/http only reads a header's value slice.
var soapContentType = []string{soap.ContentType}

// Interceptor lets the hosting application handle a raw request before the
// messaging engine sees it. Returning handled=false passes the request on
// unchanged; returning handled=true short-circuits with the given response.
type Interceptor func(service string, req *transport.Request) (resp *transport.Response, handled bool, err error)

// Options configures a Host.
type Options struct {
	// ListenAddr is the TCP address to bind when the first service is
	// deployed (default "127.0.0.1:0").
	ListenAddr string
	// Profile selects the endpoint scheme advertised in WSDL: "http"
	// (default) or "httpg" for the authenticated profile.
	Profile string
	// Secret is the shared secret for the httpg profile.
	Secret []byte
	// Admission, when non-nil, is installed on the engine at construction
	// and drained by Close: requests the controller sheds are answered
	// with a SOAP Server fault on HTTP 503 plus a Retry-After header.
	Admission *resilience.Admission
	// EnablePprof mounts net/http/pprof under PprofPath on the same
	// debug mux. Off by default: profiling endpoints expose more about
	// the process than operational counters do, so the application must
	// opt in.
	EnablePprof bool
}

// Host exposes an engine's services over HTTP without a container.
type Host struct {
	eng  *engine.Engine
	opts Options

	mu          sync.Mutex // guards the fields below and every routes update
	ln          net.Listener
	srv         *http.Server
	started     bool
	closed      bool
	callbackSeq int64

	// routes is what a request needs to find its handler. Requests load
	// it without taking mu; writers (under mu) publish a modified copy,
	// so a change is visible to every request that starts after it.
	routes atomic.Pointer[routes]
}

// routes is an immutable snapshot of the host's routing state. An update
// copies only the map it changes and shares the rest.
type routes struct {
	interceptor Interceptor
	deployed    map[string]bool
	callbacks   map[string]func(body []byte)
}

// updateRoutes publishes a modified copy of the current snapshot.
func (h *Host) updateRoutes(modify func(rt *routes)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	rt := *h.routes.Load()
	modify(&rt)
	h.routes.Store(&rt)
}

// withEntry returns a copy of m with key set to value.
func withEntry[V any](m map[string]V, key string, value V) map[string]V {
	out := maps.Clone(m)
	if out == nil {
		out = make(map[string]V, 1)
	}
	out[key] = value
	return out
}

// withoutEntry returns a copy of m with key deleted.
func withoutEntry[V any](m map[string]V, key string) map[string]V {
	out := maps.Clone(m)
	delete(out, key)
	return out
}

// serviceNames lists the deployed services in name order.
func (h *Host) serviceNames() []string {
	deployed := h.routes.Load().deployed
	names := make([]string, 0, len(deployed))
	for n := range deployed {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// New returns a host for the engine's services. The HTTP listener is NOT
// started; it launches on the first Deploy.
func New(eng *engine.Engine, opts Options) *Host {
	if opts.ListenAddr == "" {
		opts.ListenAddr = "127.0.0.1:0"
	}
	if opts.Profile == "" {
		opts.Profile = "http"
	}
	if opts.Admission != nil {
		eng.SetAdmission(opts.Admission)
	}
	h := &Host{eng: eng, opts: opts}
	h.routes.Store(&routes{})
	return h
}

// SetInterceptor installs the application's raw-request hook. For
// applications that "do not wish to deal with server-side message
// processing" (paper §IV-A) simply never install one.
func (h *Host) SetInterceptor(i Interceptor) {
	h.updateRoutes(func(rt *routes) { rt.interceptor = i })
}

// Started reports whether the lazy listener is up.
func (h *Host) Started() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.started
}

// Deploy registers the service with the engine and exposes it, launching
// the HTTP server if this is the first deployment. It returns the service's
// endpoint URL.
func (h *Host) Deploy(def engine.ServiceDef) (string, error) {
	if _, err := h.eng.Deploy(def); err != nil {
		return "", err
	}
	if err := h.ensureStarted(); err != nil {
		h.eng.Undeploy(def.Name)
		return "", err
	}
	h.updateRoutes(func(rt *routes) { rt.deployed = withEntry(rt.deployed, def.Name, true) })
	return h.Endpoint(def.Name), nil
}

// Undeploy removes a service from the engine and the host listing. The
// listener keeps running for remaining services.
func (h *Host) Undeploy(name string) bool {
	h.updateRoutes(func(rt *routes) { rt.deployed = withoutEntry(rt.deployed, name) })
	return h.eng.Undeploy(name)
}

// Endpoint returns the URL a deployed service is reachable at ("" before
// the server has started).
func (h *Host) Endpoint(service string) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ln == nil {
		return ""
	}
	return fmt.Sprintf("%s://%s%s%s", h.opts.Profile, h.ln.Addr().String(), BasePath, service)
}

// WSDL generates the WSDL for a deployed service bound to its live
// endpoint.
func (h *Host) WSDL(service string) (*wsdl.Definitions, error) {
	svc := h.eng.Service(service)
	if svc == nil {
		return nil, fmt.Errorf("httpd: no service %q", service)
	}
	transportURI := wsdl.TransportHTTP
	if h.opts.Profile == "httpg" {
		transportURI = wsdl.TransportHTTPG
	}
	return svc.WSDL(transportURI, h.Endpoint(service))
}

// HostCallback exposes a reply endpoint under CallbackPath: the returned
// URL accepts POSTed reply messages and feeds each body to deliver. This
// is the client half of the callback exchange pattern — a consumer hosts
// one of these, stamps its URL as wsa:ReplyTo, and providers deliver
// responses to it on a fresh connection. It launches the lazy listener if
// no service deployment already has, so a pure consumer can host replies
// without deploying anything. The returned cancel tears the route down.
func (h *Host) HostCallback(deliver func(body []byte)) (url string, cancel func(), err error) {
	if err := h.ensureStarted(); err != nil {
		return "", nil, err
	}
	var id string
	h.updateRoutes(func(rt *routes) {
		h.callbackSeq++
		id = strconv.FormatInt(h.callbackSeq, 10)
		rt.callbacks = withEntry(rt.callbacks, id, deliver)
		url = fmt.Sprintf("%s://%s%s%s", h.opts.Profile, h.ln.Addr().String(), CallbackPath, id)
	})
	return url, func() {
		h.updateRoutes(func(rt *routes) { rt.callbacks = withoutEntry(rt.callbacks, id) })
	}, nil
}

// readBody reads a POSTed body of at most limit bytes whole, answering the
// request itself (ok is false) when it cannot: 413 for a body over the
// limit — refused from its Content-Length before a byte is read, or once
// limit+1 bytes of a chunked one have arrived — and 400 for one that ends
// short of its declared length. A declared length costs one allocation of
// exactly that size.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, ok bool) {
	tooLarge := func() ([]byte, bool) {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", limit), http.StatusRequestEntityTooLarge)
		return nil, false
	}
	n := r.ContentLength
	if n > limit {
		return tooLarge()
	}
	var err error
	if n >= 0 {
		body = make([]byte, n)
		_, err = io.ReadFull(r.Body, body)
	} else {
		body, err = io.ReadAll(io.LimitReader(r.Body, limit+1))
		if int64(len(body)) > limit {
			return tooLarge()
		}
	}
	if err != nil {
		http.Error(w, "reading request body", http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

// authentic checks the httpg proof over the complete body (always true on
// the plain profile), answering 403 itself when the proof does not hold.
func (h *Host) authentic(w http.ResponseWriter, r *http.Request, body []byte) bool {
	if h.opts.Profile != "httpg" {
		return true
	}
	if transport.VerifyHTTPG(h.opts.Secret, body, r.Header.Get(transport.HTTPGAuthHeader)) {
		return true
	}
	http.Error(w, "httpg authentication failed", http.StatusForbidden)
	return false
}

// handleCallback accepts a decoupled reply addressed to a hosted callback
// endpoint. Delivery is acknowledged with 202 Accepted and an empty body:
// the reply to a reply is nothing.
func (h *Host) handleCallback(w http.ResponseWriter, r *http.Request) {
	deliver := h.routes.Load().callbacks[strings.TrimPrefix(r.URL.Path, CallbackPath)]
	if deliver == nil {
		http.NotFound(w, r)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, ok := readBody(w, r, maxRequestBytes)
	if !ok || !h.authentic(w, r, body) {
		return
	}
	deliver(body)
	w.WriteHeader(http.StatusAccepted)
}

// ensureStarted lazily launches the listener.
func (h *Host) ensureStarted() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return fmt.Errorf("httpd: host is closed")
	}
	if h.started {
		return nil
	}
	ln, err := net.Listen("tcp", h.opts.ListenAddr)
	if err != nil {
		return fmt.Errorf("httpd: listen %s: %w", h.opts.ListenAddr, err)
	}
	h.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc(BasePath, h.handle)
	mux.HandleFunc(CallbackPath, h.handleCallback)
	h.registerDebug(mux)
	mux.HandleFunc("/", h.handleIndex)
	h.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go h.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	h.started = true
	return nil
}

// Close shuts the listener down, waiting up to shutdownTimeout
// for in-flight requests to finish. With an admission controller
// installed the host drains first: new dispatches are shed (503) while
// accepted ones run to completion, then the listener goes down.
func (h *Host) Close() error {
	// Flip the closed flag under the lock but drain outside it, so the
	// health endpoint can report "draining" (and in-flight requests can
	// finish) while Close waits.
	h.mu.Lock()
	h.closed = true
	if !h.started {
		h.mu.Unlock()
		return nil
	}
	h.started = false
	srv := h.srv
	h.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	var errs []error
	if h.opts.Admission != nil {
		if err := h.opts.Admission.Drain(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	if err := srv.Shutdown(ctx); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func (h *Host) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" && r.URL.Path != BasePath {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "WSPeer services:")
	for _, n := range h.serviceNames() {
		fmt.Fprintf(w, "  %s%s (?wsdl for description)\n", BasePath, n)
	}
}

func (h *Host) handle(w http.ResponseWriter, r *http.Request) {
	service := strings.TrimPrefix(r.URL.Path, BasePath)
	if service == "" {
		h.handleIndex(w, r)
		return
	}
	rt := h.routes.Load()
	if !rt.deployed[service] {
		http.NotFound(w, r)
		return
	}

	if r.Method == http.MethodGet {
		if _, ok := r.URL.Query()["wsdl"]; ok {
			defs, err := h.WSDL(service)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			data, err := defs.Marshal()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "text/xml; charset=utf-8")
			w.Write(data)
			return
		}
		http.Error(w, "POST SOAP requests here, or GET ?wsdl", http.StatusMethodNotAllowed)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}

	body, ok := readBody(w, r, maxRequestBytes)
	if !ok || !h.authentic(w, r, body) {
		return
	}

	req := &transport.Request{
		Endpoint:    r.RequestURI, // as received; r.URL.String() would re-render it
		ContentType: r.Header.Get("Content-Type"),
		Body:        body,
	}
	if v := r.Header[transport.SOAPActionKey]; len(v) > 0 {
		req.Action = strings.Trim(v[0], `"`)
	}

	mHostRequests.Inc()
	ctx := r.Context()
	// Adopt the caller's trace, if it sent one, so this dispatch's span
	// links to the client-side invocation span across the wire.
	if sc, ok := telemetry.ParseTraceHeader(r.Header.Get(telemetry.TraceHeader)); ok {
		ctx = telemetry.ContextWithSpanContext(ctx, sc)
	}
	// Adopt the caller's propagated deadline: the engine drops dispatches
	// the caller has already abandoned, and a queued admission wait
	// expires against the caller's budget instead of a local guess.
	if dl, ok := transport.ParseDeadline(r.Header.Get(transport.DeadlineHeader)); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, dl)
		defer cancel()
	}

	var (
		resp    *transport.Response
		handled bool
		err     error
	)
	if rt.interceptor != nil {
		resp, handled, err = rt.interceptor(service, req)
	}
	if !handled && err == nil {
		resp, err = h.eng.ServeRequest(ctx, service, req)
	}
	if err != nil { // the interceptor's or the engine's
		if o, ok := resilience.AsOverload(err); ok {
			// Admission logged the shed with this ctx's trace; only count
			// the HTTP-level outcome here.
			mHostOverloads.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(o.RetryAfterSeconds()))
			writeFault(w, http.StatusServiceUnavailable, err)
			return
		}
		mHostFaults.Inc()
		telemetry.Default().Log.Warn(ctx, "httpd: request failed, answering with fault",
			"service", service, "err", err)
		writeFault(w, http.StatusInternalServerError, err)
		return
	}
	if len(resp.Body) == 0 {
		w.WriteHeader(http.StatusAccepted) // one-way
		return
	}
	if ct := resp.ContentType; ct == "" || ct == soap.ContentType {
		w.Header()["Content-Type"] = soapContentType
	} else {
		w.Header().Set("Content-Type", ct)
	}
	if resp.Faulted {
		mHostFaults.Inc()
		w.WriteHeader(http.StatusInternalServerError)
	}
	w.Write(resp.Body)
}

// debugSnapshot is the JSON document served at DebugPath.
type debugSnapshot struct {
	Telemetry telemetry.Snapshot      `json:"telemetry"`
	Admission any                     `json:"admission,omitempty"`
	Overload  overloadDebug           `json:"overload"`
	Flight    telemetry.RecorderStats `json:"flight"`
	Services  []string                `json:"services"`
}

// overloadDebug surfaces the cooperative overload-control state — the
// adaptive admission limit, retry-budget balance, hedge traffic and
// deadline drops — as one section of the debug document, so an operator
// sees the whole control loop without correlating raw spine counters.
type overloadDebug struct {
	AdmissionLimit      int64 `json:"admission_limit"`
	BudgetBalanceMilli  int64 `json:"budget_balance_milli"`
	BudgetDraws         int64 `json:"budget_draws"`
	BudgetDenied        int64 `json:"budget_denied"`
	HedgesLaunched      int64 `json:"hedges_launched"`
	HedgeWins           int64 `json:"hedge_wins"`
	HedgesDenied        int64 `json:"hedges_denied"`
	RetriesBudgetDenied int64 `json:"retries_budget_denied"`
	DeadlinesCarried    int64 `json:"deadlines_carried"`
	DeadlinesDropped    int64 `json:"deadlines_dropped"`
}

func (h *Host) handleDebug(w http.ResponseWriter, r *http.Request) {
	snap := debugSnapshot{
		Telemetry: telemetry.Default().Snapshot(),
		Flight:    telemetry.Default().Flight.Stats(),
		Services:  h.serviceNames(),
	}
	snap.Overload = overloadDebug{
		AdmissionLimit:      snap.Telemetry.Gauges["resilience.admission.limit"],
		BudgetBalanceMilli:  snap.Telemetry.Gauges["resilience.budget.balance_milli"],
		BudgetDraws:         snap.Telemetry.Counters["resilience.budget.draws"],
		BudgetDenied:        snap.Telemetry.Counters["resilience.budget.denied"],
		HedgesLaunched:      snap.Telemetry.Counters["pipeline.hedge.launched"],
		HedgeWins:           snap.Telemetry.Counters["pipeline.hedge.wins"],
		HedgesDenied:        snap.Telemetry.Counters["pipeline.hedge.denied"],
		RetriesBudgetDenied: snap.Telemetry.Counters["pipeline.retry.budget_denied"],
		DeadlinesCarried:    snap.Telemetry.Counters["engine.deadline.carried"],
		DeadlinesDropped:    snap.Telemetry.Counters["engine.deadline.dropped"],
	}
	if a := h.eng.Admission(); a != nil {
		stats := a.Stats()
		snap.Admission = stats
		snap.Overload.AdmissionLimit = int64(stats.Limit)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap) //nolint:errcheck // best-effort debug output
}

// writeFault answers with a fault envelope under status: 500, or 503 with
// a Retry-After header for a shed request, so well-behaved clients back off
// instead of hammering a saturated host.
func writeFault(w http.ResponseWriter, status int, err error) {
	env := soap.NewEnvelope().SetFault(soap.ServerFault(err))
	w.Header()["Content-Type"] = soapContentType
	w.WriteHeader(status)
	// MarshalTo streams through the pooled XML writer straight into the
	// response, skipping the intermediate copy Marshal would make.
	env.MarshalTo(w)
}
