package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"wspeer/internal/binding/httpbind"
	"wspeer/internal/binding/inmembind"
	"wspeer/internal/binding/p2psbind"
	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/p2ps"
	"wspeer/internal/pipeline"
	"wspeer/internal/resilience"
	"wspeer/internal/transport"
	"wspeer/internal/uddi"
	"wspeer/internal/wsdl"
)

// A workload builds a rig: client and server peers in this process,
// talking over the workload's substrate, set up as far as the first
// verified reply.
type workload struct {
	name string
	// build fills in the rig; whatever it opened before failing is closed
	// by the caller through the rig's closers.
	build func(r *rig, cfg buildCfg) error
}

type buildCfg struct {
	seed int64
	col  *collector // nil for an untraced rig
}

// rig is one set-up instance of a workload.
type rig struct {
	callers int
	// op performs and verifies one unit operation; i counts the caller's
	// ops and selects the seeded input.
	op func(ctx context.Context, caller, i int) error
	// open is set for the open-loop workload, which op then serves only
	// for the first reply and the unloaded reference.
	open *openLoop
	// client is the consuming peer.
	client *core.Peer
	// closers run in reverse order on close.
	closers []func()

	iso *isoInputs
	// alive holds the layer instruments that need the rig's own peers.
	alive func(ls *layerSet, budget time.Duration)
	// after reports counters read once the pass is over.
	after func(ls *layerSet, ops int)
	// defsSeen counts the WSDL documents the ops obtained through the
	// public API (a Deployment's or a located ServiceInfo's Definitions):
	// each is one wsdl generate or parse.
	defsSeen atomic.Int64
}

func (r *rig) onClose(fn func()) { r.closers = append(r.closers, fn) }

func (r *rig) close() {
	// Close the client's idle keep-alive connections first: a host waits
	// out its shutdown timeout on a connection that was dialled and never
	// used, and their reader goroutines would outlive the rig.
	transport.SharedHTTPTransport().CloseIdleConnections()
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	r.closers = nil
}

// isoInputs is what the isolated layer calls work on: the service and
// call of the workload, and (after a traced pass) the captured bytes.
type isoInputs struct {
	def         engine.ServiceDef // handler without instrumentation
	op          string
	params      []engine.Param
	resultProto interface{} // pointer to decode the "return" part into
	defs        *wsdl.Definitions
	endpoint    string
	clientChain []pipeline.Interceptor // before any benchmark interceptor
	serverChain []pipeline.Interceptor
	// capReq and capResp are the first request and response the traced
	// pass saw on the server side.
	capReq  *transport.Request
	capResp []byte
}

var workloads = []workload{
	{"http_echo_small", func(r *rig, c buildCfg) error { return buildHTTPCall(r, c, echoCall) }},
	{"http_records_large", func(r *rig, c buildCfg) error { return buildHTTPCall(r, c, recordsCall) }},
	{"mem_echo_small", buildMemEcho},
	{"p2ps_echo_small", buildP2PSEcho},
	{"p2ps_locate", buildP2PSLocate},
	{"http_lifecycle", buildHTTPLifecycle},
	{"http_overload_open", buildHTTPOverload},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// The calls

// callSpec is one request/response call: its service, its seeded inputs
// and the check on its result.
type callSpec struct {
	service string
	op      string
	def     func(col *collector) engine.ServiceDef
	// inputs returns the seeded input pool; verify checks a result
	// against the input it was made from.
	inputs func(r *rand.Rand) []interface{}
	proto  func() interface{}
	verify func(in, out interface{}) bool
}

// handlerSpan times the inside of a traced handler; untraced handlers
// carry no such code.
func handlerSpan(col *collector, ctx context.Context) func() {
	op := col.opOf(ctx)
	start := col.now()
	return func() { op.add(kHandler, start, col.now()) }
}

var echoCall = callSpec{
	service: "Echo",
	op:      "echo",
	def:     func(col *collector) engine.ServiceDef { return echoDef("Echo", col) },
	inputs: func(r *rand.Rand) []interface{} {
		out := make([]interface{}, 64)
		for i := range out {
			out[i] = genString(r, 16)
		}
		return out
	},
	proto:  func() interface{} { return new(string) },
	verify: func(in, out interface{}) bool { return in.(string) == *out.(*string) },
}

func echoDef(name string, col *collector) engine.ServiceDef {
	var fn interface{} = func(s string) string { return s }
	if col != nil {
		fn = func(ctx context.Context, s string) string {
			defer handlerSpan(col, ctx)()
			return s
		}
	}
	return engine.ServiceDef{Name: name, Operations: []engine.OperationDef{{
		Name: "echo", Func: fn, ParamNames: []string{"msg"},
	}}}
}

var recordsCall = callSpec{
	service: "Records",
	op:      "records",
	def: func(col *collector) engine.ServiceDef {
		var fn interface{} = reverseRecs
		if col != nil {
			fn = func(ctx context.Context, in []Rec) []Rec {
				defer handlerSpan(col, ctx)()
				return reverseRecs(in)
			}
		}
		return engine.ServiceDef{Name: "Records", Operations: []engine.OperationDef{{
			Name: "records", Func: fn, ParamNames: []string{"msg"},
		}}}
	},
	inputs: func(r *rand.Rand) []interface{} {
		out := make([]interface{}, 4)
		for i := range out {
			out[i] = genRecs(r, 256)
		}
		return out
	},
	proto:  func() interface{} { return new([]Rec) },
	verify: func(in, out interface{}) bool { return recsReversed(in.([]Rec), *out.(*[]Rec)) },
}

// caller turns an invocation into a verified unit op.
type caller struct {
	spec   callSpec
	inv    *core.Invocation
	inputs []interface{}
	col    *collector
}

func (c *caller) do(ctx context.Context, callerID, i int) error {
	in := c.inputs[(i*7+callerID*31)%len(c.inputs)]
	run, ctx := c.col.startOp(ctx)
	res, err := c.inv.Invoke(ctx, c.spec.op, engine.P("msg", in))
	run.phase(kInvoke)
	if err != nil {
		run.end()
		return err
	}
	out := c.spec.proto()
	err = res.Decode("return", out)
	if err == nil && !c.spec.verify(in, out) {
		err = errWrongPayload
	}
	run.phase(kVerify)
	run.end()
	return err
}

var errWrongPayload = errors.New("bench: reply does not match the request")

// opRun records the phases of one op; a nil opRun (untraced) does nothing.
type opRun struct {
	col      *collector
	op       *opTrace
	t0, last int64
}

func (c *collector) startOp(ctx context.Context) (*opRun, context.Context) {
	if c == nil {
		return nil, ctx
	}
	op, ctx := c.begin(ctx)
	t := c.now()
	return &opRun{col: c, op: op, t0: t, last: t}, ctx
}

func (r *opRun) phase(kind spanKind) {
	if r == nil {
		return
	}
	t := r.col.now()
	r.op.add(kind, r.last, t)
	r.last = t
}

func (r *opRun) end() {
	if r == nil {
		return
	}
	r.op.add(kOp, r.t0, r.col.now())
}

// installTracing puts the outermost and innermost benchmark interceptors
// on both pipelines.
func installTracing(col *collector, client *core.Peer, eng *engine.Engine) {
	if col == nil {
		return
	}
	client.Client().Use(col.interceptor(kClientOuter), col.interceptor(kClientInner))
	eng.Use(col.interceptor(kServerOuter), col.interceptor(kServerInner))
}

// bindCall makes the rig's op out of a call: the deployed service (as
// located, or else as deployed) invoked through the client peer with the
// call's seeded inputs. The isolated-call inputs are taken first, so that
// they hold the pipelines as they are without the benchmark's interceptors.
func (r *rig) bindCall(cfg buildCfg, spec callSpec, dep *core.Deployment, info *core.ServiceInfo, client *core.Peer, eng *engine.Engine) (*caller, error) {
	inputs := spec.inputs(rand.New(rand.NewSource(cfg.seed)))
	r.iso = &isoInputs{
		def:         spec.def(nil),
		op:          spec.op,
		params:      []engine.Param{engine.P("msg", inputs[0])},
		resultProto: spec.proto(),
		defs:        dep.Definitions,
		endpoint:    dep.Endpoint,
		clientChain: client.Client().Pipeline().Interceptors(),
		serverChain: eng.Pipeline().Interceptors(),
	}
	installTracing(cfg.col, client, eng)
	if info == nil {
		info = &core.ServiceInfo{Name: spec.service, Endpoint: dep.Endpoint, Definitions: dep.Definitions}
	}
	inv, err := client.Client().NewInvocation(info)
	if err != nil {
		return nil, err
	}
	c := &caller{spec: spec, inv: inv, inputs: inputs, col: cfg.col}
	r.op, r.client = c.do, client
	return c, nil
}

// ---------------------------------------------------------------------------
// HTTP request/response (http_echo_small, http_records_large)

// httpClientRegistry is the client-side transport registry of an HTTP
// binding, with the wrapping transport when traced.
func httpClientRegistry(col *collector) *transport.Registry {
	reg := transport.NewRegistry()
	var tr transport.Transport = transport.NewHTTPTransport()
	if col != nil {
		tr = tracedTransport{inner: tr, c: col}
	}
	reg.Register(tr)
	return reg
}

// httpPair is a serving peer and a consuming peer on the HTTP binding.
type httpPair struct {
	server, client   *core.Peer
	serverB, clientB *httpbind.Binding
}

func newHTTPPair(r *rig, col *collector, serverOpts httpbind.Options) (*httpPair, error) {
	p := &httpPair{server: core.NewPeer(), client: core.NewPeer()}
	var err error
	if p.serverB, err = httpbind.New(serverOpts); err != nil {
		return nil, err
	}
	r.onClose(func() { p.serverB.Close() })
	if err = p.server.AttachBinding(p.serverB); err != nil {
		return nil, err
	}
	if p.clientB, err = httpbind.New(httpbind.Options{Registry: httpClientRegistry(col)}); err != nil {
		return nil, err
	}
	r.onClose(func() { p.clientB.Close() })
	return p, p.client.AttachBinding(p.clientB)
}

func buildHTTPCall(r *rig, cfg buildCfg, spec callSpec) error {
	r.callers = 2
	pair, err := newHTTPPair(r, cfg.col, httpbind.Options{})
	if err != nil {
		return err
	}
	dep, err := pair.server.Server().Deploy(spec.def(cfg.col))
	if err != nil {
		return err
	}
	r.alive = func(ls *layerSet, budget time.Duration) { httpLayers(ls, r.iso, budget) }
	_, err = r.bindCall(cfg, spec, dep, nil, pair.client, pair.serverB.Engine())
	return err
}

// ---------------------------------------------------------------------------
// mem_echo_small

func buildMemEcho(r *rig, cfg buildCfg) error {
	r.callers = 2
	net := transport.NewInMemNetwork()
	dir := inmembind.NewDirectory()
	mk := func(host string) (*core.Peer, *inmembind.Binding, error) {
		b, err := inmembind.New(inmembind.Options{Network: net, Directory: dir, Host: host})
		if err != nil {
			return nil, nil, err
		}
		r.onClose(func() { b.Close() })
		p := core.NewPeer()
		return p, b, p.AttachBinding(b)
	}
	server, serverB, err := mk("provider")
	if err != nil {
		return err
	}
	client, clientB, err := mk("consumer")
	if err != nil {
		return err
	}
	if cfg.col != nil {
		clientB.Registry().Register(tracedTransport{inner: net.Transport(), c: cfg.col})
	}
	spec := echoCall
	dep, err := server.Server().Deploy(spec.def(cfg.col))
	if err != nil {
		return err
	}
	_, err = r.bindCall(cfg, spec, dep, nil, client, serverB.Engine())
	return err
}

// ---------------------------------------------------------------------------
// P2PS (p2ps_echo_small, p2ps_locate)

// discoveryWindow is the E3 setting of the P2PS binding's DiscoveryTimeout.
const discoveryWindow = 250 * time.Millisecond

// p2psOverlay is a rendezvous peer, a provider and a consumer, each on its
// own p2ps.TCPTransport over loopback.
type p2psOverlay struct {
	rdv, providerNode, consumerNode *p2ps.Peer
	provider, consumer              *core.Peer
	providerB, consumerB            *p2psbind.Binding
}

func newP2PSOverlay(r *rig) (*p2psOverlay, error) {
	o := &p2psOverlay{}
	node := func(rendezvous bool, seeds ...string) (*p2ps.Peer, error) {
		tr, err := p2ps.NewTCPTransport("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		n, err := p2ps.NewPeer(p2ps.Config{Transport: tr, Rendezvous: rendezvous, Seeds: seeds})
		if err != nil {
			tr.Close()
			return nil, err
		}
		r.onClose(func() { n.Close() })
		return n, nil
	}
	bind := func(n *p2ps.Peer) (*core.Peer, *p2psbind.Binding, error) {
		b, err := p2psbind.New(p2psbind.Options{Peer: n, DiscoveryTimeout: discoveryWindow})
		if err != nil {
			return nil, nil, err
		}
		r.onClose(func() { b.Close() })
		p := core.NewPeer()
		return p, b, p.AttachBinding(b)
	}
	var err error
	if o.rdv, err = node(true); err != nil {
		return nil, err
	}
	if o.providerNode, err = node(false, o.rdv.Addr()); err != nil {
		return nil, err
	}
	if o.consumerNode, err = node(false, o.rdv.Addr()); err != nil {
		return nil, err
	}
	if o.provider, o.providerB, err = bind(o.providerNode); err != nil {
		return nil, err
	}
	o.consumer, o.consumerB, err = bind(o.consumerNode)
	return o, err
}

// awaitAdverts waits until the rendezvous has cached n adverts. Publishing
// is a datagram to the rendezvous; a query that overtakes it would find
// nothing and cost the whole discovery window.
func (o *p2psOverlay) awaitAdverts(n int) error {
	deadline := time.Now().Add(5 * time.Second)
	for o.rdv.CacheLen() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: rendezvous cached %d of %d adverts", o.rdv.CacheLen(), n)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func (o *p2psOverlay) messagesReceived() int64 {
	return o.rdv.Stats().MessagesReceived + o.providerNode.Stats().MessagesReceived + o.consumerNode.Stats().MessagesReceived
}

func (o *p2psOverlay) dataDropped() int64 {
	return o.rdv.Stats().DataDropped + o.providerNode.Stats().DataDropped + o.consumerNode.Stats().DataDropped
}

func buildP2PSEcho(r *rig, cfg buildCfg) error {
	r.callers = 1
	o, err := newP2PSOverlay(r)
	if err != nil {
		return err
	}
	ctx := context.Background()
	spec := echoCall
	dep, err := o.provider.Server().DeployAndPublish(ctx, spec.def(cfg.col))
	if err != nil {
		return err
	}
	if err := o.awaitAdverts(1); err != nil {
		return err
	}
	info, err := o.consumer.Client().LocateOne(ctx, core.NameQuery{Name: spec.service})
	if err != nil {
		return err
	}
	if _, err := r.bindCall(cfg, spec, dep, info, o.consumer, o.providerB.Engine()); err != nil {
		return err
	}
	frames0, dropped0 := o.messagesReceived(), o.dataDropped()
	r.alive = func(ls *layerSet, budget time.Duration) { p2psPipeLayers(ls, o, r.iso, budget) }
	r.after = func(ls *layerSet, ops int) {
		if ops > 0 {
			ls.set("p2ps.frames_per_op", float64(o.messagesReceived()-frames0)/float64(ops), ops)
		}
		ls.set("p2ps.data_dropped", float64(o.dataDropped()-dropped0), ops)
	}
	return nil
}

// locateServices is how many services the p2ps_locate provider publishes.
const locateServices = 32

func buildP2PSLocate(r *rig, cfg buildCfg) error {
	r.callers = 1
	o, err := newP2PSOverlay(r)
	if err != nil {
		return err
	}
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(cfg.seed))
	names := genNames(rnd, locateServices, "Svc")
	endpoints := make(map[string]string, len(names))
	for _, n := range names {
		dep, err := o.provider.Server().DeployAndPublish(ctx, echoDef(n, nil))
		if err != nil {
			return err
		}
		endpoints[n] = dep.Endpoint
	}
	if err := o.awaitAdverts(locateServices); err != nil {
		return err
	}
	order := rnd.Perm(4096)
	col := cfg.col
	r.client = o.consumer
	r.op = func(ctx context.Context, _, i int) error {
		name := names[order[i%len(order)]%len(names)]
		run, ctx := col.startOp(ctx)
		info, err := o.consumer.Client().LocateOne(ctx, core.NameQuery{Name: name})
		run.phase(kLocate)
		if err == nil {
			r.defsSeen.Add(1)
			if info.Name != name || info.Endpoint != endpoints[name] {
				err = errWrongPayload
			}
		}
		run.phase(kVerify)
		run.end()
		return err
	}
	r.alive = func(ls *layerSet, budget time.Duration) { p2psDiscoveryLayers(ls, o, names[0], budget) }
	return nil
}

// ---------------------------------------------------------------------------
// http_lifecycle

// lifecycleNames is how many service names the lifecycle cycles through.
const lifecycleNames = 64

func buildHTTPLifecycle(r *rig, cfg buildCfg) error {
	r.callers = 1
	// The registry is itself a WSPeer service on a second HTTP peer.
	registryPeer := core.NewPeer()
	registryB, err := httpbind.New(httpbind.Options{})
	if err != nil {
		return err
	}
	r.onClose(func() { registryB.Close() })
	if err := registryPeer.AttachBinding(registryB); err != nil {
		return err
	}
	regDep, err := registryPeer.Server().Deploy(uddi.ServiceDef(uddi.NewRegistry()))
	if err != nil {
		return err
	}
	reg := httpClientRegistry(cfg.col)
	peer := core.NewPeer()
	b, err := httpbind.New(httpbind.Options{UDDIEndpoint: regDep.Endpoint, Registry: reg})
	if err != nil {
		return err
	}
	r.onClose(func() { b.Close() })
	if err := peer.AttachBinding(b); err != nil {
		return err
	}
	rnd := rand.New(rand.NewSource(cfg.seed))
	names := genNames(rnd, lifecycleNames, "Echo")
	inputs := echoCall.inputs(rnd)
	col := cfg.col
	r.client = peer
	clientChain := peer.Client().Pipeline().Interceptors()
	serverChain := b.Engine().Pipeline().Interceptors()
	installTracing(col, peer, b.Engine())

	r.op = func(ctx context.Context, _, i int) error {
		name := names[i%len(names)]
		in := inputs[i%len(inputs)].(string)
		run, ctx := col.startOp(ctx)
		defer run.end()
		dep, err := peer.Server().DeployAndPublish(ctx, echoDef(name, col))
		run.phase(kDeployPublish)
		if err != nil {
			return err
		}
		r.defsSeen.Add(1)
		info, err := peer.Client().LocateOne(ctx, core.NameQuery{Name: name})
		run.phase(kLocate)
		if err != nil {
			return err
		}
		r.defsSeen.Add(1)
		if info.Endpoint != dep.Endpoint {
			return errWrongPayload
		}
		inv, err := peer.Client().NewInvocation(info)
		run.phase(kNewInvocation)
		if err != nil {
			return err
		}
		res, err := inv.Invoke(ctx, "echo", engine.P("msg", in))
		run.phase(kInvoke)
		if err != nil {
			return err
		}
		if out, err := res.String("return"); err != nil || out != in {
			return errWrongPayload
		}
		run.phase(kVerify)
		err = peer.Server().Undeploy(ctx, name)
		run.phase(kUndeploy)
		if err != nil {
			return err
		}
		// The cycle must leave nothing behind: not in the registry, not
		// on the host.
		if _, err := peer.Client().LocateOne(ctx, core.NameQuery{Name: name}); err == nil {
			return fmt.Errorf("bench: %s still locatable after undeploy", name)
		}
		if n := len(peer.Server().Deployments()); n != 0 {
			return fmt.Errorf("bench: %d deployments left after undeploy", n)
		}
		run.phase(kCheckGone)
		return nil
	}
	// The isolated calls work on the echo call of one cycle; its WSDL
	// comes from a throwaway deployment of the same definition.
	tmp := engine.New()
	svc, err := tmp.Deploy(echoDef(names[0], nil))
	if err != nil {
		return err
	}
	defs, err := svc.WSDL(wsdl.TransportHTTP, "http://127.0.0.1:1/services/"+names[0])
	if err != nil {
		return err
	}
	r.iso = &isoInputs{
		def:         echoDef(names[0], nil),
		op:          "echo",
		params:      []engine.Param{engine.P("msg", inputs[0])},
		resultProto: new(string),
		defs:        defs,
		endpoint:    "http://127.0.0.1:1/services/" + names[0],
		clientChain: clientChain,
		serverChain: serverChain,
	}
	r.alive = func(ls *layerSet, budget time.Duration) {
		httpLayers(ls, r.iso, budget/2)
		registryLayers(ls, regDep.Endpoint, budget/2)
	}
	return nil
}

// ---------------------------------------------------------------------------
// http_overload_open

const (
	overloadRate      = 2000.0 // offered calls per second
	overloadJitter    = 0.10   // each gap varies by ±10 %
	overloadLimit     = 25 * time.Millisecond
	overloadSlots     = 4
	overloadQueue     = 8
	overloadHandlerMs = 2
)

// openLoop is the open-loop side of the overload rig.
type openLoop struct {
	*caller
	client  *core.Peer
	gaps    []time.Duration // seeded gaps between due times, cycled
	maxSeen *atomic.Int64   // most handlers ever running at once
}

func buildHTTPOverload(r *rig, cfg buildCfg) error {
	adm := resilience.NewAdmission(resilience.AdmissionOptions{MaxConcurrent: overloadSlots, MaxQueue: overloadQueue})
	pair, err := newHTTPPair(r, cfg.col, httpbind.Options{Admission: adm})
	if err != nil {
		return err
	}
	pair.client.Client().ConfigureScheduler(core.SchedulerOptions{MaxConcurrent: 32, MaxQueue: 64})
	var inflight, maxSeen atomic.Int64
	spec := echoCall
	spec.def = func(col *collector) engine.ServiceDef {
		// The handler counts its own concurrency: the exact maximum is
		// the check that admission never ran more than its slots.
		sleepy := func(ctx context.Context, s string) string {
			n := inflight.Add(1)
			defer inflight.Add(-1)
			for m := maxSeen.Load(); n > m && !maxSeen.CompareAndSwap(m, n); m = maxSeen.Load() {
			}
			if col != nil {
				defer handlerSpan(col, ctx)()
			}
			time.Sleep(overloadHandlerMs * time.Millisecond)
			return s
		}
		return engine.ServiceDef{Name: spec.service, Operations: []engine.OperationDef{{
			Name: spec.op, Func: sleepy, ParamNames: []string{"msg"},
		}}}
	}
	dep, err := pair.server.Server().Deploy(spec.def(cfg.col))
	if err != nil {
		return err
	}
	c, err := r.bindCall(cfg, spec, dep, nil, pair.client, pair.serverB.Engine())
	if err != nil {
		return err
	}
	rnd := rand.New(rand.NewSource(cfg.seed))
	gaps := make([]time.Duration, 8192)
	for i := range gaps {
		j := 1 + overloadJitter*(2*rnd.Float64()-1)
		gaps[i] = time.Duration(j * float64(time.Second) / overloadRate)
	}
	r.open = &openLoop{caller: c, client: pair.client, gaps: gaps, maxSeen: &maxSeen}
	r.alive = func(ls *layerSet, budget time.Duration) {
		httpLayers(ls, r.iso, budget/2)
		refuseLayer(ls, budget/2)
	}
	return nil
}
