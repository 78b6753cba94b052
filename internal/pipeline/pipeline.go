// Package pipeline is WSPeer's unified call pipeline: a composable
// interceptor abstraction that wraps both directions of the system's
// messaging — client invocation (core Invocation → scheme-selected
// transport) and server dispatch (httpd/p2ps host → engine dispatch).
//
// The paper describes events fired "either side of being processed by the
// underlying messaging system"; this package is the single seam those
// either-sides hang off. A Call is the binding-agnostic carrier that flows
// through a stack of Interceptors toward a terminal CallFunc (the
// transport on the client side, the messaging engine on the server side).
// Each Interceptor wraps the next stage and may short-circuit, mutate the
// carrier, retry the remainder of the stack, or observe the outcome.
//
// Stock interceptors ship in this package: Deadline (per-call timeout
// enforcement), Retry (idempotent-safe retransmission with exponential
// backoff and jitter) and Events (one choke point for client/server message
// events). Layers above install them via core.Client.Use,
// engine.Engine.Use, or a binding's Use method.
package pipeline

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"wspeer/internal/telemetry"
	"wspeer/internal/transport"
)

// Direction says which side of the messaging system a Call is on.
type Direction int

const (
	// ClientCall is an outbound invocation: application → transport.
	ClientCall Direction = iota
	// ServerDispatch is an inbound hosted request: host → engine.
	ServerDispatch
)

// String returns "client" or "server".
func (d Direction) String() string {
	if d == ServerDispatch {
		return "server"
	}
	return "client"
}

// Call is the carrier that flows through an interceptor stack. Exactly one
// Call exists per logical exchange; interceptors mutate it in place.
type Call struct {
	// Ctx governs the call. Interceptors may swap in derived contexts
	// (Deadline does) but must restore the original before returning.
	Ctx context.Context
	// Dir is the side of the messaging system this call is on.
	Dir Direction
	// Service is the target (client) or hosted (server) service name.
	Service string
	// Op is the operation name. On the server side it is resolved
	// mid-terminal, so pre-terminal interceptors may see it empty.
	Op string
	// Request is the wire-level request when the stage that produced it
	// has run (the terminal populates it: an invoker on the client side).
	Request *transport.Request
	// Response is the wire-level response, populated by the terminal.
	Response *transport.Response
	// meta and metaMore carry cross-interceptor state (SetMeta, GetMeta): a
	// call sets two or three keys, so the first metaInline pairs live in
	// the carrier itself and only a call with more spills into a map.
	meta     [metaInline]metaPair
	metaLen  int
	metaMore map[string]interface{}
	// Err is the call's recorded outcome: Chain.Run stores the composed
	// stack's error here before returning, so observers installed outside
	// the error return path (Events) see it.
	Err error
	// Span is the call's telemetry span, set by the layer that opened the
	// call (core for client invocations, engine for server dispatches).
	// It is nil when tracing is disabled; interceptors annotate it
	// without nil checks (Span methods are nil-receiver-safe).
	Span *telemetry.Span
	// terminal is what the innermost stage of a Chain calls (Chain.Run).
	terminal CallFunc
}

// metaInline is how many meta pairs a Call holds without allocating.
const metaInline = 4

type metaPair struct {
	key   string
	value interface{}
}

// SetMeta stores a cross-interceptor value, overwriting an earlier value
// for the same key.
func (c *Call) SetMeta(key string, value interface{}) {
	for i := range c.meta[:c.metaLen] {
		if c.meta[i].key == key {
			c.meta[i].value = value
			return
		}
	}
	if c.metaLen < metaInline { // slots are never freed: nothing has spilled yet
		c.meta[c.metaLen] = metaPair{key, value}
		c.metaLen++
		return
	}
	if c.metaMore == nil {
		c.metaMore = make(map[string]interface{}, metaInline)
	}
	c.metaMore[key] = value
}

// GetMeta reads a cross-interceptor value ("" key conventions are the
// installing package's business; nil when absent).
func (c *Call) GetMeta(key string) interface{} {
	for i := range c.meta[:c.metaLen] {
		if c.meta[i].key == key {
			return c.meta[i].value
		}
	}
	return c.metaMore[key]
}

// eachMeta calls f for every stored pair.
func (c *Call) eachMeta(f func(key string, value interface{})) {
	for _, p := range c.meta[:c.metaLen] {
		f(p.key, p.value)
	}
	for k, v := range c.metaMore {
		f(k, v)
	}
}

// Clone returns an independent copy of the call running under ctx: the
// scalar fields, the terminal and the inline meta pairs are copied by value,
// spilled meta is deep-copied so concurrent attempts cannot race on each
// other's state, and the Span is shared (Span methods are concurrency- and
// nil-safe). Hedge uses it to race attempts of one logical call without
// aliasing the carrier.
func (c *Call) Clone(ctx context.Context) *Call {
	cp := *c
	cp.Ctx = ctx
	if c.metaMore != nil {
		cp.metaMore = make(map[string]interface{}, len(c.metaMore)+1)
		for k, v := range c.metaMore {
			cp.metaMore[k] = v
		}
	}
	return &cp
}

// Finish closes the frame of one logical call that started at start, the
// same way on both sides of the messaging system: a row in the Default
// hub's call table, a record offered to its flight recorder (with the
// retry and hedge counts the stock interceptors stamped on the carrier and
// the span's trace identity) and the end of the call's span. A response
// carrying a fault envelope is a failed call even when err, the pipeline's
// outcome, is nil. endpoint is the remote address the call used ("" on the
// server side), pattern the exchange pattern's name ("" for
// request-response). Sampled out and untraced, it allocates nothing.
func (c *Call) Finish(start time.Time, endpoint, pattern string, err error) {
	elapsed := time.Since(start)
	hub := telemetry.Default()
	dir := c.Dir.String()
	faulted := err == nil && c.Response != nil && c.Response.Faulted
	hub.Calls.Record(c.Service, dir, elapsed, err != nil || faulted)
	rec := telemetry.CallRecord{
		Time:     start,
		Service:  c.Service,
		Op:       c.Op,
		Dir:      dir,
		Endpoint: endpoint,
		Pattern:  pattern,
		Latency:  elapsed,
		Retries:  RetryCount(c),
		Hedges:   HedgesLaunched(c),
	}
	if faulted {
		rec.ErrClass = telemetry.ClassFault
	}
	span := c.Span
	if span != nil {
		sc := span.Context()
		rec.TraceID, rec.SpanID = sc.TraceID, sc.SpanID
	}
	hub.Flight.Record(rec, err)
	if span == nil {
		return
	}
	span.SetOp(c.Op) // the server resolves it mid-terminal, so it is read after the run
	if endpoint != "" {
		span.SetEndpoint(endpoint)
	}
	span.SetError(err)
	if faulted {
		span.Annotate("dispatch: answered with fault envelope")
	}
	span.End()
}

// CallFunc is one stage of the pipeline: it advances the Call and reports
// the outcome. The terminal CallFunc is the stage that actually moves
// bytes (a transport on the client side, the engine on the server side).
type CallFunc func(c *Call) error

// Interceptor wraps the next stage of the pipeline. The outer function runs
// when a Chain is composed (at Use), so per-call state belongs in the
// CallFunc it returns, which may call next zero times (short-circuit), once
// or several times (Retry), with the Call it was given or a Clone of it.
type Interceptor func(next CallFunc) CallFunc

// Compose wraps terminal with the interceptors; ics[0] is outermost. With
// ics = [a, b], execution order is a-before, b-before, terminal, b-after,
// a-after.
func Compose(terminal CallFunc, ics ...Interceptor) CallFunc {
	fn := terminal
	for i := len(ics) - 1; i >= 0; i-- {
		fn = ics[i](fn)
	}
	return fn
}

// Chain is a mutable, concurrency-safe interceptor stack made by NewChain,
// held by the layers that own a pipeline (the client side of a peer, the
// engine's server side). Use composes it; a call runs the whole stack it
// loads, so Use may race with in-flight calls.
type Chain struct {
	mu  sync.Mutex // serialises Use
	ics []Interceptor
	fn  atomic.Pointer[CallFunc] // ics composed over runTerminal
}

// NewChain returns a chain preloaded with the given interceptors.
func NewChain(ics ...Interceptor) *Chain {
	ch := &Chain{}
	ch.Use(ics...)
	return ch
}

// Use appends interceptors to the chain and composes it again. Earlier-
// installed interceptors run outermost.
func (ch *Chain) Use(ics ...Interceptor) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.ics = append(ch.ics, ics...)
	fn := Compose(runTerminal, ch.ics...)
	ch.fn.Store(&fn)
}

// Interceptors returns a snapshot of the installed stack.
func (ch *Chain) Interceptors() []Interceptor {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return append([]Interceptor(nil), ch.ics...)
}

// Run sends the call through the composed chain into terminal, recording
// the outcome in c.Err as well as returning it.
func (ch *Chain) Run(c *Call, terminal CallFunc) error {
	c.terminal = terminal
	c.Err = (*ch.fn.Load())(c)
	return c.Err
}

// runTerminal, the innermost stage of every Chain, calls the terminal of Run.
func runTerminal(c *Call) error { return c.terminal(c) }
