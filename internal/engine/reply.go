package engine

import (
	"context"

	"wspeer/internal/exchange"
	"wspeer/internal/soap"
	"wspeer/internal/telemetry"
	"wspeer/internal/transport"
	"wspeer/internal/wsaddr"
)

// Decoupled-reply instruments: replies the engine delivered as separate
// outbound messages (honoring a non-anonymous ReplyTo/FaultTo) and
// deliveries that failed and fell back to the transport back channel.
var (
	mExchangeReplyOut    = telemetry.Default().Meter.Counter("exchange.reply.out")
	mExchangeReplyFailed = telemetry.Default().Meter.Counter("exchange.reply.failed")
)

// ReplySender delivers one reply message as a separate outbound message to
// a non-anonymous reply endpoint. Bindings register one per URI scheme
// they can address: the HTTP binding posts over its transport registry,
// the P2PS binding resolves the EPR's pipe advertisement and writes the
// reply down a fresh pipe, the in-memory binding hands the message to the
// registered handler. The EPR is passed alongside the flattened message
// because some bindings (P2PS) route by its reference properties, not by
// the address URI alone.
type ReplySender interface {
	SendReply(ctx context.Context, to *wsaddr.EndpointReference, msg *exchange.Message) error
}

// ReplySenderFunc adapts a function to ReplySender.
type ReplySenderFunc func(ctx context.Context, to *wsaddr.EndpointReference, msg *exchange.Message) error

// SendReply calls f.
func (f ReplySenderFunc) SendReply(ctx context.Context, to *wsaddr.EndpointReference, msg *exchange.Message) error {
	return f(ctx, to, msg)
}

// RegisterReplySender makes the engine able to deliver decoupled replies
// to endpoints of the given URI scheme. Registering for a scheme replaces
// any previous sender.
func (e *Engine) RegisterReplySender(scheme string, s ReplySender) {
	e.replyMu.Lock()
	defer e.replyMu.Unlock()
	if e.replySenders == nil {
		e.replySenders = make(map[string]ReplySender)
	}
	e.replySenders[scheme] = s
}

// replySender returns the sender for a scheme, or nil.
func (e *Engine) replySender(scheme string) ReplySender {
	e.replyMu.RLock()
	defer e.replyMu.RUnlock()
	return e.replySenders[scheme]
}

// DeliverReply is the one place a reply becomes a separate outbound
// message. It picks the target per WS-Addressing (faults prefer FaultTo
// when the request carried one, everything else follows ReplyTo), looks up
// the ReplySender for the target's URI scheme, stamps the reply headers
// (RelatesTo = request MessageID, To = the reply endpoint, Action =
// request action + #response or #fault) onto respEnv and sends it. It
// reports whether the reply was delivered; false — no headers, an
// anonymous or absent target, no sender for the scheme, or a failed
// delivery (counted in exchange.reply.failed) — leaves the caller to
// answer on the transport back channel. Dispatch goes through it, and so
// do hosts answering a request the engine refused before dispatch (shed by
// admission, caller deadline already expired).
func (e *Engine) DeliverReply(ctx context.Context, req *wsaddr.MessageHeaders, respEnv *soap.Envelope) bool {
	if req == nil {
		return false
	}
	fault := respEnv.IsFault()
	target := req.ReplyTo
	if fault && req.FaultTo != nil {
		target = req.FaultTo
	}
	if target == nil || target.Address == wsaddr.Anonymous {
		return false
	}
	sender := e.replySender(transport.SchemeOf(target.Address))
	if sender == nil {
		return false
	}
	action := req.Action + "#response"
	if fault {
		action = req.Action + "#fault"
	}
	rh := wsaddr.HeadersFor(target, action)
	rh.RelatesTo = req.MessageID
	err := rh.Apply(respEnv)
	if err == nil {
		err = sender.SendReply(ctx, target, &exchange.Message{
			Endpoint:    target.Address,
			Action:      action,
			ContentType: respEnv.Version().ContentType(),
			Body:        respEnv.Marshal(),
			Headers:     rh,
		})
	}
	if err != nil {
		mExchangeReplyFailed.Inc()
		telemetry.Default().Log.Warn(ctx, "engine: decoupled reply delivery failed, falling back to back channel",
			"endpoint", target.Address, "action", action, "err", err)
		return false
	}
	mExchangeReplyOut.Inc()
	return true
}
