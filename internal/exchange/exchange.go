// Package exchange is the message-exchange layer that every invocation
// flows through. The paper's core architectural claim (§IV-B, figures 5
// and 6) is that WSPeer is asynchronous at the messaging level: the
// consumer is itself an addressable endpoint and request/response is just
// one exchange pattern layered on correlated one-way messages. This
// package makes that literal with a transport-neutral Message (envelope
// bytes + WS-Addressing headers + transport metadata), the three exchange
// patterns, and a bounded TTL'd correlation table that routes decoupled
// replies back to their futures by RelatesTo.
//
// The synchronous fast path does not pass objects from this package at
// all: when no WS-Addressing headers are in play the client and engine
// skip the exchange layer entirely, byte-for-byte and alloc-for-alloc
// identical to before it existed.
package exchange

import (
	"fmt"

	"wspeer/internal/soap"
	"wspeer/internal/wsaddr"
)

// Pattern identifies a message exchange pattern.
type Pattern int

const (
	// RequestResponse is the classic blocking round trip: the reply comes
	// back on the transport's back channel (ReplyTo anonymous).
	RequestResponse Pattern = iota
	// OneWay is fire-and-forget: the sender gets a transport-level ack
	// only and never decodes a reply.
	OneWay
	// Callback decouples the reply from the request connection: the
	// client hosts a reply endpoint, stamps ReplyTo to it, and the reply
	// arrives as a separate inbound message correlated by RelatesTo.
	Callback
)

// String names the pattern for telemetry and errors.
func (p Pattern) String() string {
	switch p {
	case RequestResponse:
		return "request-response"
	case OneWay:
		return "one-way"
	case Callback:
		return "callback"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// Pipeline Meta keys. The exchange layer rides through the interceptor
// chain (Retry, Hedge, Budget all keep working) by stashing its state on
// the pipeline Call's Meta rather than widening the Call struct.
const (
	// MetaPattern carries the Pattern of the in-flight exchange.
	MetaPattern = "exchange.pattern"
	// MetaHeaders carries the *wsaddr.MessageHeaders the client wants
	// stamped on the outbound envelope (MessageID, ReplyTo; the binding
	// fills To/Action/reference properties from the resolved endpoint).
	MetaHeaders = "exchange.headers"
)

// Message is one transport-neutral message: the serialized envelope plus
// the WS-Addressing properties and transport metadata needed to route it.
type Message struct {
	// Endpoint is the destination URI (scheme selects the transport).
	Endpoint string
	// Action is the SOAPAction / wsa:Action value.
	Action string
	// ContentType of Body (empty means the SOAP 1.1 media type).
	ContentType string
	// Body is the serialized SOAP envelope.
	Body []byte
	// Headers are the parsed WS-Addressing message headers, when known.
	Headers *wsaddr.MessageHeaders
	// Envelope is Body parsed, when the message came in through
	// Table.Deliver: whoever waits on the reply decodes it from here
	// instead of parsing Body a second time.
	Envelope *soap.Envelope
}
