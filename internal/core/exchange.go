package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"wspeer/internal/engine"
	"wspeer/internal/exchange"
	"wspeer/internal/pipeline"
	"wspeer/internal/telemetry"
	"wspeer/internal/transport"
	"wspeer/internal/wsaddr"
)

// Exchange-layer instruments: messages sent per pattern.
var (
	mOneWaySent   = telemetry.Default().Meter.Counter("exchange.oneway.sent")
	mCallbackSent = telemetry.Default().Meter.Counter("exchange.callback.sent")
)

// ReplyEndpoint is a live inbound endpoint a client hosts to receive
// decoupled replies: the paper's observation that under WS-Addressing "the
// consumer is itself an addressable endpoint" made concrete. Bindings
// create them (an HTTP callback route, a P2PS input pipe, a mem:// handler)
// and the client stamps their EPR as the ReplyTo of callback invocations.
type ReplyEndpoint interface {
	// EPR is the endpoint reference remote services reply to.
	EPR() *wsaddr.EndpointReference
	// Close tears the endpoint down.
	Close() error
}

// CallbackHoster is an optional Invoker extension: invokers that can host a
// reply endpoint on their substrate implement it, which is what makes
// Invocation.InvokeCallback available for their schemes. The deliver
// function receives each raw inbound reply body; implementations must call
// it from at most one goroutine at a time per endpoint.
type CallbackHoster interface {
	// HostReplyEndpoint creates (or starts) a reply endpoint that feeds
	// inbound messages to deliver.
	HostReplyEndpoint(deliver func(body []byte)) (ReplyEndpoint, error)
}

// clientExchange is the Client's lazily-built exchange state: the
// correlation table for pending callbacks and one hosted reply endpoint
// per endpoint scheme.
type clientExchange struct {
	mu        sync.Mutex
	table     *exchange.Table
	endpoints map[string]ReplyEndpoint // by endpoint URI scheme
}

// exchangeTable returns the client's correlation table, building it on
// first use. Callers hold no locks.
func (c *Client) exchangeTable() *exchange.Table {
	c.exch.mu.Lock()
	defer c.exch.mu.Unlock()
	if c.exch.table == nil {
		c.exch.table = exchange.NewTable(exchange.TableOptions{})
	}
	return c.exch.table
}

// ExchangeStats snapshots the correlation table's counters (zero-valued
// before the first callback invocation).
func (c *Client) ExchangeStats() exchange.TableStats {
	c.exch.mu.Lock()
	t := c.exch.table
	c.exch.mu.Unlock()
	if t == nil {
		return exchange.TableStats{}
	}
	return t.Stats()
}

// CloseExchange tears down the client's exchange state: every hosted reply
// endpoint is closed and every pending callback fails with
// exchange.ErrClosed. The client remains usable for synchronous
// invocation; a later InvokeCallback builds fresh state.
func (c *Client) CloseExchange() error {
	c.exch.mu.Lock()
	t := c.exch.table
	eps := c.exch.endpoints
	c.exch.table = nil
	c.exch.endpoints = nil
	c.exch.mu.Unlock()
	if t != nil {
		t.Close()
	}
	var firstErr error
	for _, ep := range eps {
		if err := ep.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// replyEndpoint returns the client's hosted reply endpoint for a scheme,
// asking the hoster to create one on first use.
func (c *Client) replyEndpoint(scheme string, h CallbackHoster) (ReplyEndpoint, error) {
	c.exch.mu.Lock()
	defer c.exch.mu.Unlock()
	if ep, ok := c.exch.endpoints[scheme]; ok {
		return ep, nil
	}
	ep, err := h.HostReplyEndpoint(c.handleReply)
	if err != nil {
		return nil, err
	}
	if c.exch.endpoints == nil {
		c.exch.endpoints = make(map[string]ReplyEndpoint)
	}
	c.exch.endpoints[scheme] = ep
	return ep, nil
}

// handleReply is the deliver function every hosted reply endpoint feeds:
// the client's correlation table parses the message and routes it to its
// pending exchange.
func (c *Client) handleReply(body []byte) { c.exchangeTable().Deliver(body) }

// call is the one frame every client-side invocation runs in, whatever its
// exchange pattern: it opens the span, builds the carrier, runs the client
// chain over the invocation's terminal and finishes (call table, flight
// record, span end) through pipeline's Finish, as the engine's server side
// does. A non-nil hdr makes it an exchange-layer send: pattern and headers
// ride on the carrier's Meta for the binding to act on, and the send
// targets the primary endpoint only.
func (inv *Invocation) call(ctx context.Context, spanName string, pattern exchange.Pattern, hdr *wsaddr.MessageHeaders, op string, params []engine.Param) (*engine.Result, error) {
	primary := inv.targets[0].svc
	span, ctx := telemetry.Default().Tracer.StartSpan(ctx, spanName)
	span.SetService(primary.Name)
	span.SetOp(op)
	span.SetDir(telemetry.DirClient)
	span.SetEndpoint(primary.Endpoint)
	ic := &invokeCall{inv: inv, hdr: hdr, op: op, params: params}
	ic.Call = pipeline.Call{Ctx: ctx, Dir: pipeline.ClientCall, Service: primary.Name, Op: op, Span: span}
	c := &ic.Call
	c.SetMeta(metaInvokeCall, ic)
	inv.client.mu.RLock()
	budget := inv.client.budget
	inv.client.mu.RUnlock()
	if budget != nil {
		c.SetMeta(pipeline.MetaRetryBudget, budget)
	}
	patternName := ""
	if hdr != nil {
		patternName = pattern.String()
		c.SetMeta(exchange.MetaPattern, pattern)
		c.SetMeta(exchange.MetaHeaders, hdr)
	}
	start := time.Now()
	err := inv.client.chain.Run(c, runInvokeCall)
	// The flight record and the span name the endpoint that answered: the
	// last attempt's request, which Hedge copies back from the winner.
	endpoint := primary.Endpoint
	if c.Request != nil && c.Request.Endpoint != "" {
		endpoint = c.Request.Endpoint
	}
	c.Finish(start, endpoint, patternName, err)
	if err != nil {
		return nil, err
	}
	if budget != nil {
		budget.Credit() // one credit per successful logical invocation
	}
	res, _ := c.GetMeta(MetaResult).(*engine.Result)
	return res, nil
}

// invokeCall is one client call's carrier and what its terminal needs, in
// one allocation; runInvokeCall reads it back through metaInvokeCall, which
// a Clone of the carrier (a hedge's attempt) copies.
type invokeCall struct {
	pipeline.Call
	inv    *Invocation
	hdr    *wsaddr.MessageHeaders
	op     string
	params []engine.Param
}

// metaInvokeCall is the Meta key of a client call's invokeCall.
const metaInvokeCall = "core.invokeCall"

// runInvokeCall is the client chain's terminal: the invocation's targets,
// tried as its hedging and failover policies say.
func runInvokeCall(c *pipeline.Call) error {
	ic := c.GetMeta(metaInvokeCall).(*invokeCall)
	inv, op, params := ic.inv, ic.op, ic.params
	switch {
	case ic.hdr == nil && inv.hedge != nil:
		// Attempt n goes to the n-th endpoint (mod fan-out), so a hedge
		// lands on a different host than the primary it is racing, and
		// an open breaker's refusal makes Hedge try the next at once.
		return inv.hedge(func(c *pipeline.Call) error {
			t := inv.targets[pipeline.HedgeAttempt(c)%len(inv.targets)]
			_, err := inv.guarded(c, t, op, params)
			return err
		})(c)
	case ic.hdr == nil && len(inv.targets) > 1:
		return inv.failover(c, op, params)
	default:
		return inv.attempt(c, inv.targets[0], op, params)
	}
}

// InvokeOneWay sends the operation as a fire-and-forget message through
// the client pipeline: the call returns once the substrate has accepted
// the message (an HTTP 202, a completed pipe write, a completed in-memory
// dispatch) and no reply is ever decoded. The invocation targets the
// primary endpoint only.
func (inv *Invocation) InvokeOneWay(ctx context.Context, op string, params ...engine.Param) error {
	_, err := inv.call(ctx, "client.invoke.oneway", exchange.OneWay,
		&wsaddr.MessageHeaders{MessageID: wsaddr.NewMessageID()}, op, params)
	if err == nil {
		mOneWaySent.Inc()
	}
	return err
}

// PendingReply is the application's handle on a callback invocation: the
// request has been sent with a ReplyTo naming a client-hosted endpoint,
// and the decoupled reply (or an expiry/closure error) completes it.
type PendingReply struct {
	future *exchange.Future
	id     string
}

// MessageID returns the wsa:MessageID the reply will relate to.
func (p *PendingReply) MessageID() string { return p.id }

// Wait blocks for the decoupled reply and decodes it. A reply that never
// arrives surfaces as *exchange.ExpiredError once its TTL passes; a fault
// reply surfaces as the *soap.Fault error.
func (p *PendingReply) Wait(ctx context.Context) (*engine.Result, error) {
	msg, err := p.future.Wait(ctx)
	if err != nil {
		return nil, err
	}
	return engine.ResultFromEnvelope(msg.Envelope)
}

// InvokeCallback sends the operation with a wsa:ReplyTo naming a reply
// endpoint this client hosts on the target's substrate, and returns
// immediately with a PendingReply: the provider delivers its response as a
// separate message to that endpoint — a different connection for HTTP, a
// different pipe for P2PS — where it is correlated back by wsa:RelatesTo
// (paper §IV-B, figure 6).
//
// The pending exchange is bounded: it expires after the context deadline
// when one is set, else the configured table TTL, and the correlation
// table sheds registrations beyond its capacity with exchange.ErrTableFull.
// The invoker for the primary target's scheme must implement
// CallbackHoster.
func (inv *Invocation) InvokeCallback(ctx context.Context, op string, params ...engine.Param) (*PendingReply, error) {
	primary := inv.targets[0]
	hoster, ok := primary.invoker.(CallbackHoster)
	if !ok {
		return nil, fmt.Errorf("core: invoker for scheme %q cannot host reply endpoints",
			transport.SchemeOf(primary.svc.Endpoint))
	}
	ep, err := inv.client.replyEndpoint(transport.SchemeOf(primary.svc.Endpoint), hoster)
	if err != nil {
		return nil, fmt.Errorf("core: hosting reply endpoint: %w", err)
	}

	var ttl time.Duration
	if dl, ok := ctx.Deadline(); ok {
		ttl = time.Until(dl)
	}
	msgID := wsaddr.NewMessageID()
	table := inv.client.exchangeTable()
	fut, err := table.Register(msgID, ttl)
	if err != nil {
		return nil, err
	}

	_, err = inv.call(ctx, "client.invoke.callback", exchange.Callback,
		&wsaddr.MessageHeaders{MessageID: msgID, ReplyTo: ep.EPR()}, op, params)
	if err != nil {
		// The request never left (or the substrate rejected it): no reply
		// can arrive, so withdraw the pending entry rather than letting it
		// sit until expiry.
		table.Cancel(msgID)
		return nil, err
	}
	mCallbackSent.Inc()
	return &PendingReply{future: fut, id: msgID}, nil
}
