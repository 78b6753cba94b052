package soap

import "wspeer/internal/xmlutil"

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
