// Package p2psbind is WSPeer's P2PS implementation (paper §IV-B, figures
// 4-6): services are exposed as input pipes advertised in extended
// ServiceAdvertisements (with a definition pipe serving the WSDL),
// discovered by in-network queries, and invoked by sending SOAP down
// unidirectional pipes, with WS-Addressing ReplyTo headers carrying the
// consumer's reply-pipe advertisement to make the exchange bidirectional.
//
// Request/response is the callback exchange pattern with the caller
// waiting. Every message leaves through one function, invoker.Invoke;
// a consumer binding hosts one persistent reply pipe and an exchange.Table
// in which each synchronous call waits for the reply whose RelatesTo names
// it, retransmitting the identical request until it comes. A provider
// parses a request once, drops or replays duplicates from an
// exchange.Window of recent request MessageIDs, and hands the engine the
// parsed envelope to dispatch; the engine's DeliverReply stamps and sends
// every reply, through the binding's ReplySender.
package p2psbind

import (
	"fmt"

	"wspeer/internal/core"
	"wspeer/internal/p2ps"
	"wspeer/internal/wsaddr"
	"wspeer/internal/xmlutil"
)

var pipeAdvElementName = xmlutil.N(p2ps.Namespace, "PipeAdvertisement")

// PipeToEPR serializes a pipe advertisement to a WS-Addressing
// EndpointReference per the paper's mapping: the Address is the p2ps URI
// built from the peer ID and the service name (empty service for bare
// reply pipes), and the advertisement travels as a reference property,
// written once, as bytes.
func PipeToEPR(pipe *p2ps.PipeAdvertisement, serviceName string) *wsaddr.EndpointReference {
	u := core.P2PSURI{Peer: string(pipe.Peer), Service: serviceName}
	return wsaddr.NewEndpointReference(u.String()).AddRawProperty(pipe.Raw())
}

// EPRToPipe recovers the pipe advertisement from an EndpointReference:
// "At the service provider end, the peer converts this reference to a
// PipeAdvertisement" (paper Fig. 6, step 2). It is read from the property's
// bytes — the header's, in a request a provider has read.
func EPRToPipe(epr *wsaddr.EndpointReference) (*p2ps.PipeAdvertisement, error) {
	raw, ok := epr.RawProperty(pipeAdvElementName)
	if !ok {
		return nil, fmt.Errorf("p2psbind: EndpointReference %q carries no PipeAdvertisement reference property", epr.Address)
	}
	pipe, err := p2ps.PipeAdvertisementFromRaw(raw)
	if err != nil {
		return nil, fmt.Errorf("p2psbind: %w", err)
	}
	if pipe.Peer == "" {
		// Fall back to the address URI's peer component.
		if u, uerr := core.ParseP2PSURI(epr.Address); uerr == nil {
			pipe.Peer = p2ps.PeerID(u.Peer)
		}
	}
	return pipe, nil
}

// ActionFor builds the Action URI addressing a pipe: "the Action field
// becomes the Address URI appended by a fragment component that represents
// the pipe name" (paper §IV-B).
func ActionFor(peer p2ps.PeerID, serviceName, pipeName string) string {
	return core.P2PSURI{Peer: string(peer), Service: serviceName, Pipe: pipeName}.String()
}
