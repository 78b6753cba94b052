// Package wsaddr implements the subset of WS-Addressing (the March 2004
// member submission the paper cites) that WSPeer depends on: endpoint
// references with reference properties, the message-addressing headers
// (To, Action, MessageID, RelatesTo, ReplyTo, FaultTo, From) and their SOAP
// binding.
//
// The P2PS binding of WSPeer leans on this package to make unidirectional
// pipes bidirectional: a consumer serializes the advertisement of its reply
// pipe into the ReplyTo header, and the provider resolves that
// advertisement to send the response back (paper §IV-B, figures 5 and 6).
package wsaddr

import (
	"crypto/rand"
	"fmt"

	"wspeer/internal/soap"
	"wspeer/internal/xmlutil"
)

// Namespace is the WS-Addressing namespace.
const Namespace = "http://schemas.xmlsoap.org/ws/2004/08/addressing"

// Anonymous is the well-known address meaning "reply on the transport's
// back channel" (e.g. the HTTP response).
const Anonymous = Namespace + "/role/anonymous"

// Header element names.
var (
	ToName         = xmlutil.N(Namespace, "To")
	ActionName     = xmlutil.N(Namespace, "Action")
	MessageIDName  = xmlutil.N(Namespace, "MessageID")
	RelatesToName  = xmlutil.N(Namespace, "RelatesTo")
	ReplyToName    = xmlutil.N(Namespace, "ReplyTo")
	FaultToName    = xmlutil.N(Namespace, "FaultTo")
	FromName       = xmlutil.N(Namespace, "From")
	AddressName    = xmlutil.N(Namespace, "Address")
	RefPropsName   = xmlutil.N(Namespace, "ReferenceProperties")
	EPRElementName = xmlutil.N(Namespace, "EndpointReference")
)

// EndpointReference is a WS-Addressing endpoint reference: a mandatory
// address URI plus arbitrary protocol-defined reference properties. The
// property elements are immutable once they are in an EPR: the message
// headers built from it, and every envelope those are applied to, share
// them rather than copy them (marshalling only reads an envelope's trees).
type EndpointReference struct {
	Address             string
	ReferenceProperties []*xmlutil.Element
}

// NewEndpointReference returns an EPR for the address.
func NewEndpointReference(address string) *EndpointReference {
	return &EndpointReference{Address: address}
}

// AddReferenceProperty appends a reference property element.
func (e *EndpointReference) AddReferenceProperty(el *xmlutil.Element) *EndpointReference {
	e.ReferenceProperties = append(e.ReferenceProperties, el)
	return e
}

// ReferenceProperty returns the first reference property with the given
// name, or nil.
func (e *EndpointReference) ReferenceProperty(name xmlutil.Name) *xmlutil.Element {
	for _, p := range e.ReferenceProperties {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Element serializes the EPR as an element with the given name (for example
// wsa:ReplyTo or wsa:EndpointReference).
func (e *EndpointReference) Element(name xmlutil.Name) *xmlutil.Element {
	root := xmlutil.NewElement(name)
	root.NewChild(AddressName).SetText(e.Address)
	if len(e.ReferenceProperties) > 0 {
		props := root.NewChild(RefPropsName)
		for _, p := range e.ReferenceProperties {
			props.AppendShared(p)
		}
	}
	return root
}

// EPRFromElement parses an EPR from its XML form.
func EPRFromElement(el *xmlutil.Element) (*EndpointReference, error) {
	addr := el.Child(AddressName)
	if addr == nil {
		return nil, fmt.Errorf("wsaddr: EndpointReference without Address")
	}
	e := &EndpointReference{Address: addr.TrimmedText()}
	if e.Address == "" {
		return nil, fmt.Errorf("wsaddr: EndpointReference with empty Address")
	}
	if props := el.Child(RefPropsName); props != nil {
		e.ReferenceProperties = props.Elements()
	}
	return e, nil
}

// MessageHeaders is the set of message-addressing properties carried in a
// SOAP header.
type MessageHeaders struct {
	To        string
	Action    string
	MessageID string
	RelatesTo string
	ReplyTo   *EndpointReference
	FaultTo   *EndpointReference
	From      *EndpointReference

	// RefProps are the destination's reference properties, copied verbatim
	// into the header per the WS-Addressing SOAP binding.
	RefProps []*xmlutil.Element
}

// NewMessageID returns a fresh urn:uuid message identifier.
func NewMessageID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("wsaddr: entropy source failed: " + err.Error())
	}
	// RFC 4122 version 4 variant bits.
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	return fmt.Sprintf("urn:uuid:%x-%x-%x-%x-%x", b[0:4], b[4:6], b[6:8], b[8:10], b[10:16])
}

// HeadersFor builds the headers addressing a target EPR with the given
// action: To is the EPR's address and the EPR's reference properties,
// shared, are the header block list.
func HeadersFor(target *EndpointReference, action string) *MessageHeaders {
	return &MessageHeaders{To: target.Address, Action: action, MessageID: NewMessageID(), RefProps: target.ReferenceProperties}
}

// Apply adds the message-addressing header blocks to a SOAP envelope.
// To and Action are mandatory per the spec; Apply returns an error if
// either is missing.
func (h *MessageHeaders) Apply(env *soap.Envelope) error {
	if h.To == "" {
		return fmt.Errorf("wsaddr: missing To")
	}
	if h.Action == "" {
		return fmt.Errorf("wsaddr: missing Action")
	}
	to := xmlutil.NewElement(ToName).SetText(h.To)
	soap.SetMustUnderstand(to)
	env.AddHeader(to)
	action := xmlutil.NewElement(ActionName).SetText(h.Action)
	soap.SetMustUnderstand(action)
	env.AddHeader(action)
	if h.MessageID != "" {
		env.AddHeader(xmlutil.NewElement(MessageIDName).SetText(h.MessageID))
	}
	if h.RelatesTo != "" {
		env.AddHeader(xmlutil.NewElement(RelatesToName).SetText(h.RelatesTo))
	}
	if h.ReplyTo != nil {
		env.AddHeader(h.ReplyTo.Element(ReplyToName))
	}
	if h.FaultTo != nil {
		env.AddHeader(h.FaultTo.Element(FaultToName))
	}
	if h.From != nil {
		env.AddHeader(h.From.Element(FromName))
	}
	for _, p := range h.RefProps {
		env.AddHeader(p)
	}
	return nil
}

// FromEnvelope extracts the message-addressing headers from an envelope.
// Header blocks that are not WS-Addressing properties are collected into
// RefProps (they are, by the binding's construction, the destination's
// reference properties or other extensions).
func FromEnvelope(env *soap.Envelope) (*MessageHeaders, error) {
	h := &MessageHeaders{}
	for _, block := range env.Headers() {
		switch block.Name {
		case ToName:
			h.To = block.TrimmedText()
		case ActionName:
			h.Action = block.TrimmedText()
		case MessageIDName:
			h.MessageID = block.TrimmedText()
		case RelatesToName:
			h.RelatesTo = block.TrimmedText()
		case ReplyToName:
			epr, err := EPRFromElement(block)
			if err != nil {
				return nil, fmt.Errorf("wsaddr: ReplyTo: %w", err)
			}
			h.ReplyTo = epr
		case FaultToName:
			epr, err := EPRFromElement(block)
			if err != nil {
				return nil, fmt.Errorf("wsaddr: FaultTo: %w", err)
			}
			h.FaultTo = epr
		case FromName:
			epr, err := EPRFromElement(block)
			if err != nil {
				return nil, fmt.Errorf("wsaddr: From: %w", err)
			}
			h.From = epr
		default:
			h.RefProps = append(h.RefProps, block)
		}
	}
	return h, nil
}
