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
//
// No tree stands between the headers and the wire. Apply attaches a
// MessageHeaders to an envelope as one soap.HeaderValue, which writes itself
// into the envelope's marshal writer; FromEnvelope decodes the Header
// through the compiled xsd plan of wireHeaders, straight from a parsed
// message's bytes. Reference properties are opaque by specification: those
// read from a message are held as its bytes (xmlutil.Raw, a view of them,
// which the envelope aliases already), written into the next message from
// them, and decoded by whoever knows their type; a caller may add trees.
// Either is shared, never copied, and built as a tree only on demand.
package wsaddr

import (
	"cmp"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"strings"

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
// address URI plus arbitrary protocol-defined reference properties, those
// added as trees (ReferenceProperties), then those held as bytes. The
// properties are immutable once they are in an EPR: the message headers
// built from it, and every envelope those are applied to, share them rather
// than copy them (marshalling only reads them).
type EndpointReference struct {
	Address             string
	ReferenceProperties []*xmlutil.Element
	raws                []xmlutil.Raw
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

// AddRawProperty appends a reference property held as bytes.
func (e *EndpointReference) AddRawProperty(r xmlutil.Raw) *EndpointReference {
	e.raws = append(e.raws, r)
	return e
}

// ReferenceProperty returns the first reference property with the given
// name, or nil; one held as bytes is built as a tree.
func (e *EndpointReference) ReferenceProperty(name xmlutil.Name) *xmlutil.Element {
	for _, p := range e.ReferenceProperties {
		if p.Name == name {
			return p
		}
	}
	if r, ok := e.RawProperty(name); ok {
		el, _ := r.Element() // what was read whole builds
		return el
	}
	return nil
}

// RawProperty returns the first reference property held as bytes with the
// given name.
func (e *EndpointReference) RawProperty(name xmlutil.Name) (xmlutil.Raw, bool) {
	for _, r := range e.raws {
		if r.Name == name {
			return r, true
		}
	}
	return xmlutil.Raw{}, false
}

// Properties returns every reference property as a tree, building those
// held as bytes.
func (e *EndpointReference) Properties() []*xmlutil.Element {
	return trees(e.ReferenceProperties, e.raws)
}

func trees(els []*xmlutil.Element, raws []xmlutil.Raw) []*xmlutil.Element {
	out := slices.Clip(els)
	for _, r := range raws {
		if el, err := r.Element(); err == nil {
			out = append(out, el)
		}
	}
	return out
}

// write writes the EPR as an element with the given name, if there is one.
func (e *EndpointReference) write(hw *soap.HeaderWriter, name xmlutil.Name) {
	if e == nil {
		return
	}
	mark := hw.Open(name)
	hw.Text(AddressName, e.Address, false)
	if len(e.ReferenceProperties) > 0 || len(e.raws) > 0 {
		props := hw.Open(RefPropsName)
		for _, p := range e.ReferenceProperties {
			hw.Tree(p)
		}
		for _, r := range e.raws {
			hw.Raw(r)
		}
		hw.Close(RefPropsName, props)
	}
	hw.Close(name, mark)
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
	// into the header per the WS-Addressing SOAP binding: those added as
	// trees, then those held as bytes.
	RefProps []*xmlutil.Element
	raws     []xmlutil.Raw
}

// Properties returns the destination's reference properties as trees,
// building those held as bytes.
func (h *MessageHeaders) Properties() []*xmlutil.Element { return trees(h.RefProps, h.raws) }

// NewMessageID returns a fresh urn:uuid message identifier.
func NewMessageID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("wsaddr: entropy source failed: " + err.Error())
	}
	// RFC 4122 version 4 variant bits.
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	var id [45]byte // hex into a stack array: the string is the one allocation
	copy(id[:], "urn:uuid:________-____-____-____-____________")
	for i, at := 0, 9; i < len(b); i, at = i+1, at+2 {
		if id[at] == '-' {
			at++
		}
		hex.Encode(id[at:at+2], b[i:i+1])
	}
	return string(id[:])
}

// HeadersFor builds the headers addressing a target EPR with the given
// action: To is the EPR's address and the EPR's reference properties,
// shared, are the header block list.
func HeadersFor(target *EndpointReference, action string) *MessageHeaders {
	return &MessageHeaders{To: target.Address, Action: action, MessageID: NewMessageID(), RefProps: target.ReferenceProperties, raws: target.raws}
}

// Apply attaches the headers to a SOAP envelope, which holds h from then
// on: it must not change while the envelope is in use. To and Action are
// mandatory per the spec; Apply returns an error if either is missing.
func (h *MessageHeaders) Apply(env *soap.Envelope) error {
	if h.To == "" {
		return fmt.Errorf("wsaddr: missing To")
	}
	if h.Action == "" {
		return fmt.Errorf("wsaddr: missing Action")
	}
	env.AddHeaderValue(h)
	return nil
}

// WriteHeader implements soap.HeaderValue: a block per property, To and
// Action mustUnderstand, then the reference properties.
func (h *MessageHeaders) WriteHeader(hw *soap.HeaderWriter) {
	hw.Text(ToName, h.To, true)
	hw.Text(ActionName, h.Action, true)
	if h.MessageID != "" {
		hw.Text(MessageIDName, h.MessageID, false)
	}
	if h.RelatesTo != "" {
		hw.Text(RelatesToName, h.RelatesTo, false)
	}
	h.ReplyTo.write(hw, ReplyToName)
	h.FaultTo.write(hw, FaultToName)
	h.From.write(hw, FromName)
	for _, p := range h.RefProps {
		hw.Tree(p)
	}
	for _, r := range h.raws {
		hw.Raw(r)
	}
}

// wireHeaders is the Header as its plan reads it. A block matches a field
// by its qualified name only — a To in another namespace is a reference
// property, not the address — and the first of two blocks of one name is
// the one read: the plan's rule for every value, and what Header answers.
type wireHeaders struct {
	To        string        `xml:"http://schemas.xmlsoap.org/ws/2004/08/addressing To"`
	Action    string        `xml:"http://schemas.xmlsoap.org/ws/2004/08/addressing Action"`
	MessageID string        `xml:"http://schemas.xmlsoap.org/ws/2004/08/addressing MessageID"`
	RelatesTo string        `xml:"http://schemas.xmlsoap.org/ws/2004/08/addressing RelatesTo"`
	ReplyTo   *wireEPR      `xml:"http://schemas.xmlsoap.org/ws/2004/08/addressing ReplyTo"`
	FaultTo   *wireEPR      `xml:"http://schemas.xmlsoap.org/ws/2004/08/addressing FaultTo"`
	From      *wireEPR      `xml:"http://schemas.xmlsoap.org/ws/2004/08/addressing From"`
	RefProps  []xmlutil.Raw `xml:",any"`

	h MessageHeaders // what FromEnvelope returns, allocated with what it is read from
}

type wireEPR struct {
	Address string `xml:"http://schemas.xmlsoap.org/ws/2004/08/addressing Address"`
	Props   struct {
		Any []xmlutil.Raw `xml:",any"`
	} `xml:"http://schemas.xmlsoap.org/ws/2004/08/addressing ReferenceProperties"`

	epr EndpointReference
}

// read is the EPR read as the named header, nil if none was; its text is
// trimmed, which the plan leaves to the string's owner.
func (w *wireEPR) read(name string) (*EndpointReference, error) {
	if w == nil {
		return nil, nil
	}
	if w.epr.Address = strings.TrimSpace(w.Address); w.epr.Address == "" {
		return nil, fmt.Errorf("wsaddr: %s: EndpointReference without an Address", name)
	}
	w.epr.raws = w.Props.Any
	return &w.epr, nil
}

// FromEnvelope extracts the message-addressing headers from an envelope.
// Header blocks that are not WS-Addressing properties are collected into
// RefProps (they are, by the binding's construction, the destination's
// reference properties or other extensions).
func FromEnvelope(env *soap.Envelope) (*MessageHeaders, error) {
	w := new(wireHeaders)
	if err := env.DecodeHeader(Namespace, reflect.ValueOf(w).Elem()); err != nil {
		return nil, fmt.Errorf("wsaddr: %w", err)
	}
	h := &w.h
	*h = MessageHeaders{
		To: strings.TrimSpace(w.To), Action: strings.TrimSpace(w.Action),
		MessageID: strings.TrimSpace(w.MessageID), RelatesTo: strings.TrimSpace(w.RelatesTo),
		raws: w.RefProps,
	}
	var errs [3]error
	h.ReplyTo, errs[0] = w.ReplyTo.read("ReplyTo")
	h.FaultTo, errs[1] = w.FaultTo.read("FaultTo")
	h.From, errs[2] = w.From.read("From")
	if err := cmp.Or(errs[:]...); err != nil {
		return nil, err
	}
	return h, nil
}
