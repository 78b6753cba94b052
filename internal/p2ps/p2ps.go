// Package p2ps implements Peer-to-Peer Simplified (P2PS), the P2P framework
// WSPeer's second binding runs over (paper §IV-B, citing Wang 2004). It
// provides everything that section depends on:
//
//   - peers identified by logical IDs rather than physical addresses;
//   - XML advertisements describing peers, pipes and services;
//   - one wire unit, a binary frame (message.go), carrying a pipe payload
//     as raw bytes or an advertisement as its XML document;
//   - unidirectional pipes with listener-based delivery;
//   - endpoint resolvers that turn logical pipe endpoints into transport
//     addresses;
//   - group-scoped broadcast discovery with advert caches; and
//   - rendezvous peers that cache advertisements and propagate queries to
//     other rendezvous peers, disseminating them across groups.
//
// The protocol logic is transport-agnostic and time-agnostic: it speaks
// through the Transport interface and schedules timeouts through the Clock
// interface, so the same peer code runs over TCP in real deployments and
// over the internal/netsim discrete-event simulator in large simulated
// networks (internal/netsim/overlay).
package p2ps

import (
	"crypto/rand"
	"encoding/hex"
	"time"
)

// Namespace is the XML namespace of P2PS advertisements. Wire messages are
// binary frames and have none.
const Namespace = "http://wspeer.dev/p2ps"

// PeerID is a peer's logical identity.
type PeerID string

// NewPeerID generates a random 128-bit peer ID.
func NewPeerID() PeerID {
	return PeerID(randomID("peer-", 16))
}

// NewPipeID generates a random pipe ID.
func NewPipeID() string {
	return randomID("pipe-", 12)
}

// NewAdvertID generates a random advertisement ID.
func NewAdvertID() string {
	return randomID("adv-", 12)
}

// randomID is prefix and n random bytes, at most 16, in hex: built on the
// stack, so the string is the one allocation.
func randomID(prefix string, n int) string {
	var b [16]byte
	if _, err := rand.Read(b[:n]); err != nil {
		panic("p2ps: entropy source failed: " + err.Error())
	}
	var id [40]byte
	copy(id[:], prefix)
	hex.Encode(id[len(prefix):], b[:n])
	return string(id[:len(prefix)+2*n])
}

// Transport is the wire a peer is attached to. netsim endpoints and the TCP
// transport in this package both satisfy it.
type Transport interface {
	// Addr is this endpoint's transport address.
	Addr() string
	// Send transmits data to another transport address. Datagram
	// semantics: delivery is not guaranteed and no error is returned for
	// lost messages.
	Send(to string, data []byte) error
	// SetReceiver installs the delivery callback.
	SetReceiver(fn func(from string, data []byte))
	// Close detaches the endpoint.
	Close() error
}

// Clock schedules timeouts. netsim.Simulator provides a virtual-time
// implementation; RealClock wraps the runtime timer.
type Clock interface {
	// AfterFunc runs fn after d; the returned function cancels it.
	AfterFunc(d time.Duration, fn func()) (cancel func())
}

type realClock struct{}

// AfterFunc implements Clock using real timers.
func (realClock) AfterFunc(d time.Duration, fn func()) func() {
	t := time.AfterFunc(d, fn)
	return func() { t.Stop() }
}

// RealClock is the wall-clock Clock for live deployments.
var RealClock Clock = realClock{}
