package engine

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"wspeer/internal/exchange"
	"wspeer/internal/pipeline"
	"wspeer/internal/soap"
	"wspeer/internal/telemetry"
	"wspeer/internal/transport"
	"wspeer/internal/wsaddr"
	"wspeer/internal/xmlutil"
)

// Spine counters for dispatch activity.
var (
	mEngineRequests = telemetry.Default().Meter.Counter("engine.requests")
	mEngineFaults   = telemetry.Default().Meter.Counter("engine.faults")
	mEngineOneWay   = telemetry.Default().Meter.Counter("engine.oneway")

	// Deadline-propagation instruments: dispatches that arrived with a
	// caller deadline attached, and those dropped because that deadline
	// had already passed when the request reached the engine.
	mEngineDeadlineCarried = telemetry.Default().Meter.Counter("engine.deadline.carried")
	mEngineDeadlineDropped = telemetry.Default().Meter.Counter("engine.deadline.dropped")
)

// Handler returns the transport-facing handler for one deployed service.
func (e *Engine) Handler(serviceName string) transport.Handler {
	return transport.HandlerFunc(func(ctx context.Context, req *transport.Request) (*transport.Response, error) {
		return e.ServeRequest(ctx, serviceName, req)
	})
}

// ServeRequest processes one SOAP request for the named service through
// the server pipeline: interceptors installed with Use wrap the parse /
// dispatch terminal. SOAP-level problems are returned as
// fault envelopes with a nil error; only transport-level breakage — or an
// interceptor refusing the call — yields a Go error. One-way requests
// produce an empty response.
func (e *Engine) ServeRequest(ctx context.Context, serviceName string, req *transport.Request) (*transport.Response, error) {
	return e.serve(ctx, serviceName, req, nil, nil)
}

// ServeParsed is ServeRequest for a host that had to parse the request to
// route it (the P2PS binding reads MessageID, ReplyTo and the deadline
// header before it can dispatch): env is req.Body parsed and hdr its
// addressing headers, and the terminal uses them instead of parsing again.
// Everything else — deadline drop, admission, interceptors, mustUnderstand
// processing, reply delivery — is ServeRequest's.
func (e *Engine) ServeParsed(ctx context.Context, serviceName string, req *transport.Request, env *soap.Envelope, hdr *wsaddr.MessageHeaders) (*transport.Response, error) {
	return e.serve(ctx, serviceName, req, env, hdr)
}

// parsedCall is a ServeParsed request's carrier and what its terminal
// needs, in one allocation; serveParsed reads it back through metaParsedCall.
type parsedCall struct {
	pipeline.Call
	env *soap.Envelope
	hdr *wsaddr.MessageHeaders
}

// metaParsedCall is the Meta key of a ServeParsed request's parsedCall.
const metaParsedCall = "engine.parsedCall"

// serveParsed is ServeParsed's terminal: serve the envelope its host parsed.
func (e *Engine) serveParsed(c *pipeline.Call) error {
	pc := c.GetMeta(metaParsedCall).(*parsedCall)
	return e.serveEnvelope(c, pc.env, pc.hdr, e.checkUnderstood(pc.env))
}

// serve runs one request through admission and the server pipeline down to
// serveCall, or serveParsed given env, and finishes the frame (call table,
// flight record, span) the way the client side does.
func (e *Engine) serve(ctx context.Context, serviceName string, req *transport.Request, env *soap.Envelope, hdr *wsaddr.MessageHeaders) (*transport.Response, error) {
	// A caller deadline — propagated across the wire by the hosts, or
	// native on the in-memory substrate — that has already passed means
	// the caller is gone: drop the request before admission and dispatch
	// spend anything on an answer nobody is waiting for.
	if dl, ok := ctx.Deadline(); ok {
		mEngineDeadlineCarried.Inc()
		if !dl.After(time.Now()) {
			mEngineDeadlineDropped.Inc()
			return nil, fmt.Errorf("engine: dropped request for %q, caller deadline already expired: %w",
				serviceName, context.DeadlineExceeded)
		}
	}
	if a := e.admission.Load(); a != nil {
		// Admission gates the whole dispatch — interceptors included — so
		// a shed request costs nothing but the refusal. The ticket feeds
		// queue-wait and service-latency samples back to the controller,
		// which the adaptive limiter steers by.
		tk, err := a.Admit(ctx)
		if err != nil {
			return nil, err
		}
		defer tk.Done()
	}
	span, ctx := telemetry.Default().Tracer.StartSpan(ctx, "server.dispatch")
	span.SetService(serviceName)
	span.SetDir(telemetry.DirServer)
	var c *pipeline.Call
	terminal := e.serveFn
	if env == nil {
		c = &pipeline.Call{}
	} else {
		pc := &parsedCall{env: env, hdr: hdr}
		c, terminal = &pc.Call, e.parsedFn
		c.SetMeta(metaParsedCall, pc)
	}
	c.Ctx, c.Dir, c.Service, c.Request, c.Span = ctx, pipeline.ServerDispatch, serviceName, req, span
	start := time.Now()
	err := e.pipe.Run(c, terminal)
	pattern := ""
	if p, ok := c.GetMeta(exchange.MetaPattern).(exchange.Pattern); ok {
		pattern = p.String()
	}
	c.Finish(start, "", pattern, err)
	if err != nil {
		return nil, err
	}
	return c.Response, nil
}

// serveCall is ServeRequest's terminal: parse the request body, check its
// mustUnderstand headers, extract the addressing headers, then serve.
func (e *Engine) serveCall(c *pipeline.Call) error {
	env, fault := e.parseAndCheck(c.Request)
	// Parse addressing headers only when header blocks exist at all, so
	// the plain synchronous path pays nothing for the exchange layer.
	var hdr *wsaddr.MessageHeaders
	if fault == nil && len(env.HeaderIndex()) > 0 {
		var err error
		if hdr, err = wsaddr.FromEnvelope(env); err != nil {
			hdr = nil
			fault = soap.NewFault(soap.FaultClient, "invalid addressing headers: %s", err)
		}
	}
	return e.serveEnvelope(c, env, hdr, fault)
}

// serveEnvelope is the part of the terminal every entry point shares: run
// the operation on a parsed request — or answer
// the fault its parsing produced (env is nil when it did not parse at
// all) — and encode. It fills c.Response (faults included) and reserves
// the error return for the pipeline above it.
//
// Requests carrying WS-Addressing headers get exchange-pattern treatment:
// a non-anonymous ReplyTo (FaultTo for faults) whose scheme has a
// registered ReplySender receives the response as a separate outbound
// message — the back channel carries only the transport-level ack — and
// in-band replies are stamped with RelatesTo so the caller can correlate.
// Requests without headers take exactly the pre-exchange path.
func (e *Engine) serveEnvelope(c *pipeline.Call, env *soap.Envelope, hdr *wsaddr.MessageHeaders, fault *soap.Fault) error {
	mEngineRequests.Inc()
	version := soap.SOAP11
	if env != nil {
		version = env.Version() // answer in the caller's SOAP version
	}
	var respEnv *soap.Envelope
	var oneWay bool
	if fault == nil {
		respEnv, fault = e.dispatch(c, env)
		oneWay = fault == nil && respEnv == nil
	}
	if oneWay {
		mEngineOneWay.Inc()
		c.SetMeta(exchange.MetaPattern, exchange.OneWay)
		c.Response = &transport.Response{}
		return nil
	}
	if fault != nil {
		mEngineFaults.Inc()
		// c.Ctx carries the dispatch span's identity, so this line joins
		// the same trace as the span and the flight record.
		telemetry.Default().Log.Warn(c.Ctx, "engine: dispatch answered with fault",
			"service", c.Service, "op", c.Op, "code", fault.Code.Local, "fault", fault.String)
		respEnv = soap.NewEnvelopeV(version).SetFault(fault)
	}
	if e.DeliverReply(c.Ctx, hdr, respEnv) {
		// Reply delivered out-of-band: the request connection gets only
		// the transport-level ack (hosts answer 202 Accepted).
		c.SetMeta(exchange.MetaPattern, exchange.Callback)
		c.Response = &transport.Response{}
		return nil
	}
	if hdr != nil && hdr.MessageID != "" && respEnv.Header(wsaddr.RelatesToName) == nil {
		respEnv.AddHeaderValue(&soap.TextHeader{Name: wsaddr.RelatesToName, Text: hdr.MessageID})
	}
	c.Response = &transport.Response{
		ContentType: version.ContentType(),
		Body:        respEnv.Marshal(),
		Faulted:     respEnv.IsFault(),
	}
	return nil
}

// parseAndCheck: a request refused for a mustUnderstand block keeps its envelope, and version.
func (e *Engine) parseAndCheck(req *transport.Request) (*soap.Envelope, *soap.Fault) {
	env, err := soap.Parse(req.Body)
	if err != nil {
		if _, ok := err.(*soap.VersionMismatchError); ok {
			return nil, soap.NewFault(soap.FaultVersionMismatch, "%s", err)
		}
		return nil, soap.NewFault(soap.FaultClient, "malformed envelope: %s", err)
	}
	return env, e.checkUnderstood(env)
}

// checkUnderstood is mustUnderstand processing, over what Parse noted of
// each block: WS-Addressing headers are understood natively; anything else
// must have been registered via Understand.
func (e *Engine) checkUnderstood(env *soap.Envelope) *soap.Fault {
	for _, h := range env.HeaderIndex() {
		if !h.MustUnderstand || h.Name.Space == wsaddr.Namespace {
			continue
		}
		if !e.understands(h.Name.Space) {
			return soap.NewFault(soap.FaultMustUnderstand,
				"header %s not understood", h.Name)
		}
	}
	return nil
}

// dispatch resolves the operation the request's first body element names,
// invokes it and encodes the results into a response envelope in the
// caller's SOAP version. A nil, nil return means the operation was one-way
// and produced no response; a *soap.Fault the operation returned as its
// error comes back verbatim.
func (e *Engine) dispatch(c *pipeline.Call, env *soap.Envelope) (*soap.Envelope, *soap.Fault) {
	svc := e.Service(c.Service)
	if svc == nil {
		return nil, soap.NewFault(soap.FaultClient, "no such service %q", c.Service)
	}
	body, ok := env.FirstBodyName()
	if !ok {
		return nil, soap.NewFault(soap.FaultClient, "request has an empty Body")
	}
	op, ok := svc.ops[body.Local]
	if !ok {
		return nil, soap.NewFault(soap.FaultClient, "service %q has no operation %q", c.Service, body.Local)
	}
	c.Op = op.name

	results, fault := invoke(c.Ctx, svc, op, env)
	if fault != nil || op.oneWay {
		return nil, fault
	}
	// The results wait in the envelope as they are: their plans write them
	// when the response is marshalled.
	resp, wrapper := soap.NewBodyEnvelope(env.Version(), xmlutil.N(svc.namespace, op.respName))
	for i, rv := range results {
		if err := wrapper.Add(op.outNames[i], rv); err != nil {
			return nil, soap.ServerFault(fmt.Errorf("encoding result %q: %w", op.outNames[i], err))
		}
	}
	return resp, nil
}

// invoke decodes the parameters — all of them in one pass over the
// request's wrapper element — calls the operation function (recovering
// panics into Server faults) and returns the non-error results.
func invoke(ctx context.Context, svc *Service, op *opInfo, env *soap.Envelope) (results []reflect.Value, fault *soap.Fault) {
	args := make([]reflect.Value, 0, len(op.in)+1)
	if op.hasCtx {
		args = append(args, reflect.ValueOf(ctx))
	}
	params := len(args)
	for _, p := range op.in {
		args = append(args, reflect.New(p.Type).Elem())
	}
	if i, err := env.DecodeBody(svc.namespace, op.in, args[params:]); i >= 0 {
		return nil, soap.NewFault(soap.FaultClient, "parameter %q: %s", op.in[i].Name, err)
	} else if err != nil {
		return nil, soap.NewFault(soap.FaultClient, "malformed request: %s", err)
	}

	defer func() {
		if r := recover(); r != nil {
			results = nil
			fault = soap.NewFault(soap.FaultServer, "operation %s panicked: %v", op.name, r)
		}
	}()
	rets := op.fn.Call(args)

	if op.hasErr {
		if errv := rets[len(rets)-1]; !errv.IsNil() {
			return nil, soap.ServerFault(errv.Interface().(error))
		}
		rets = rets[:len(rets)-1]
	}
	return rets, nil
}
