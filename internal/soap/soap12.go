package soap

import (
	"fmt"

	"wspeer/internal/xmlutil"
)

// Namespace12 is the SOAP 1.2 envelope namespace.
const Namespace12 = "http://www.w3.org/2003/05/soap-envelope"

// ContentType12 is the SOAP 1.2 media type.
const ContentType12 = "application/soap+xml; charset=utf-8"

// Version selects the envelope serialization.
type Version int

// Supported SOAP versions.
const (
	SOAP11 Version = iota
	SOAP12
)

// Namespace returns the version's envelope namespace.
func (v Version) Namespace() string {
	if v == SOAP12 {
		return Namespace12
	}
	return Namespace
}

// ContentType returns the version's media type.
func (v Version) ContentType() string {
	if v == SOAP12 {
		return ContentType12
	}
	return ContentType
}

// String implements fmt.Stringer.
func (v Version) String() string {
	if v == SOAP12 {
		return "SOAP 1.2"
	}
	return "SOAP 1.1"
}

// Fault code mapping: the Fault struct stores the canonical (1.1
// namespace) code; SOAP 1.2 renames Client/Server to Sender/Receiver.
func faultCode12(code xmlutil.Name) xmlutil.Name {
	switch code {
	case FaultClient:
		return xmlutil.N(Namespace12, "Sender")
	case FaultServer:
		return xmlutil.N(Namespace12, "Receiver")
	default:
		return xmlutil.N(Namespace12, code.Local)
	}
}

// canonicalFaultCode is faultCode12's inverse. faultCode12 writes every
// code in the 1.2 namespace, so only the local name of a code read from a
// 1.2 fault is kept: the fault then marshals and parses back unchanged.
func canonicalFaultCode(code xmlutil.Name) xmlutil.Name {
	switch code.Local {
	case "Sender":
		return FaultClient
	case "Receiver":
		return FaultServer
	default:
		return xmlutil.N(Namespace, code.Local)
	}
}

// element12 renders a SOAP 1.2 fault.
func (f *Fault) element12() *xmlutil.Element {
	el := xmlutil.NewElement(xmlutil.N(Namespace12, "Fault"))
	code := el.NewChild(xmlutil.N(Namespace12, "Code"))
	val := code.NewChild(xmlutil.N(Namespace12, "Value"))
	val.SetText(xmlutil.QNameValue(el, faultCode12(f.Code)))
	reason := el.NewChild(xmlutil.N(Namespace12, "Reason"))
	text := reason.NewChild(xmlutil.N(Namespace12, "Text"))
	text.SetAttr(xmlutil.N("http://www.w3.org/XML/1998/namespace", "lang"), "en")
	text.SetText(f.String)
	if f.Actor != "" {
		el.NewChild(xmlutil.N(Namespace12, "Role")).SetText(f.Actor)
	}
	if f.Detail != nil {
		el.NewChild(xmlutil.N(Namespace12, "Detail")).AddChild(f.Detail.Clone())
	}
	return el
}

func faultFromElement12(el *xmlutil.Element) (*Fault, error) {
	f := &Fault{}
	if code := el.Child(xmlutil.N(Namespace12, "Code")); code != nil {
		if val := code.Child(xmlutil.N(Namespace12, "Value")); val != nil && val.TrimmedText() != "" {
			qn, err := val.ResolveQName(val.TrimmedText())
			if err != nil {
				qn = xmlutil.N(Namespace12, val.TrimmedText())
			}
			f.Code = canonicalFaultCode(qn)
		}
	}
	if reason := el.Child(xmlutil.N(Namespace12, "Reason")); reason != nil {
		if text := reason.Child(xmlutil.N(Namespace12, "Text")); text != nil {
			f.String = text.TrimmedText()
		}
	}
	if role := el.Child(xmlutil.N(Namespace12, "Role")); role != nil {
		f.Actor = role.TrimmedText()
	}
	if detail := el.Child(xmlutil.N(Namespace12, "Detail")); detail != nil {
		if kids := detail.Elements(); len(kids) > 0 {
			f.Detail = kids[0]
		}
	}
	if f.Code.IsZero() {
		return nil, fmt.Errorf("soap: 1.2 fault without a Code")
	}
	return f, nil
}
