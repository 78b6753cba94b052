// Package wsdl implements the WSDL 1.1 subset WSPeer uses for service
// description: document/literal messages, portTypes with request/response
// and one-way operations, SOAP bindings and service/port endpoints. It can
// generate definitions from registered Go services (via the engine) and
// parse definitions published by remote peers.
//
// Neither direction builds a tree of the document (DESIGN.md §9). Marshal
// drives the pooled xmlutil writer by hand, indented, with the prefixes a
// tree of the document would have had; Parse decodes the document's tokens
// through the compiled plans of package xsd, into tagged types, and keeps
// the schemas of a parsed document as their bytes, which Marshal writes
// back; RawSchemas builds them as trees for whoever asks.
package wsdl

import (
	"fmt"
	"sync"

	"wspeer/internal/xmlutil"
	"wspeer/internal/xsd"
)

// Namespaces used by WSDL 1.1 documents.
const (
	Namespace     = "http://schemas.xmlsoap.org/wsdl/"
	SOAPNamespace = "http://schemas.xmlsoap.org/wsdl/soap/"

	// TransportHTTP is the standard SOAP-over-HTTP transport URI.
	TransportHTTP = "http://schemas.xmlsoap.org/soap/http"
	// TransportHTTPG marks the authenticated HTTP profile (Globus HTTPG
	// substitute).
	TransportHTTPG = "http://wspeer.dev/transport/httpg"
	// TransportP2PS marks SOAP carried over P2PS pipes.
	TransportP2PS = "http://wspeer.dev/transport/p2ps"
	// TransportInMem marks SOAP carried over the process-local in-memory
	// network (the inmem binding).
	TransportInMem = "http://wspeer.dev/transport/inmem"
)

// Definitions is the root of a WSDL document.
type Definitions struct {
	Name            string
	TargetNamespace string

	// Schema holds generated type definitions; schemas holds those of a
	// parsed document, as bytes. Exactly one side is typically populated.
	Schema  *xsd.Schema
	schemas []xmlutil.Raw

	Messages  []*Message
	PortTypes []*PortType
	Bindings  []*Binding
	Services  []*Service

	// Imports lists wsdl:import references found while parsing, which
	// Marshal writes back; resolve them with ResolveImports.
	Imports []Import

	// detailCache memoizes Detail lookups (operation name → immutable
	// *OperationDetail) so the per-invocation WSDL walk happens once per
	// operation per Definitions. Concurrency-safe; see Detail. Definitions
	// must not be copied by value once Detail has been called.
	detailCache sync.Map
}

// Import is a wsdl:import reference to another definitions document.
type Import struct {
	Namespace string `xml:"namespace,attr"`
	Location  string `xml:"location,attr"`
}

// Message names a set of parts.
type Message struct {
	Name  string `xml:"name,attr"`
	Parts []Part `xml:"http://schemas.xmlsoap.org/wsdl/ part"`
}

// Part references a schema element (document/literal style).
type Part struct {
	Name    string       `xml:"name,attr"`
	Element xmlutil.Name `xml:"element,attr"` // a QName: an undeclared prefix is an error
}

// PortType groups abstract operations.
type PortType struct {
	Name       string
	Operations []*Operation
}

// Operation is an abstract operation. Output is empty for one-way
// operations.
type Operation struct {
	Name   string
	Input  string // message name
	Output string // message name, "" for one-way
	Doc    string // optional documentation
}

// OneWay reports whether the operation has no output message.
func (o *Operation) OneWay() bool { return o.Output == "" }

// Binding binds a portType to a concrete protocol.
type Binding struct {
	Name       string
	PortType   string
	Transport  string // transport URI, e.g. TransportHTTP
	Operations []BindingOperation
}

// BindingOperation carries per-operation binding detail.
type BindingOperation struct {
	Name       string
	SOAPAction string
}

// Service groups ports.
type Service struct {
	Name  string
	Ports []Port
}

// Port is one network endpoint for a binding.
type Port struct {
	Name    string
	Binding string
	Address string
}

// ---------------------------------------------------------------------------
// Lookups

// RawSchemas returns the schemas of a parsed document, built as trees at
// each call.
func (d *Definitions) RawSchemas() []*xmlutil.Element {
	out := make([]*xmlutil.Element, 0, len(d.schemas))
	for _, r := range d.schemas {
		if el, err := r.Element(); err == nil { // what was read whole builds
			out = append(out, el)
		}
	}
	return out
}

// PortType returns the named portType, or nil.
func (d *Definitions) PortType(name string) *PortType {
	for _, pt := range d.PortTypes {
		if pt.Name == name {
			return pt
		}
	}
	return nil
}

// Message returns the named message, or nil.
func (d *Definitions) Message(name string) *Message {
	for _, m := range d.Messages {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Binding returns the named binding, or nil.
func (d *Definitions) Binding(name string) *Binding {
	for _, b := range d.Bindings {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Service returns the named service, or nil.
func (d *Definitions) Service(name string) *Service {
	for _, s := range d.Services {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Operation finds an operation by name across all portTypes.
func (d *Definitions) Operation(name string) *Operation {
	for _, pt := range d.PortTypes {
		for _, op := range pt.Operations {
			if op.Name == name {
				return op
			}
		}
	}
	return nil
}

// OperationDetail is everything a dynamic client needs to invoke an
// operation: the request/response wrapper element names, the SOAPAction,
// the transport and the endpoint address.
type OperationDetail struct {
	Operation  *Operation
	Input      xmlutil.Name // request wrapper element
	Output     xmlutil.Name // response wrapper element (zero for one-way)
	SOAPAction string
	Transport  string
	Address    string
}

// Detail resolves the invocation detail for an operation using the first
// service port whose binding covers it.
//
// Results are memoized per operation name in a concurrency-safe cache: the
// dynamic stub calls Detail on every invocation, and the walk over
// messages, bindings and ports is pure per-Definitions state. The returned
// OperationDetail is shared by all callers and MUST be treated as
// immutable. Mutating the Definitions after the first Detail call requires
// InvalidateDetails to flush stale entries.
func (d *Definitions) Detail(opName string) (*OperationDetail, error) {
	if v, ok := d.detailCache.Load(opName); ok {
		return v.(*OperationDetail), nil
	}
	det, err := d.computeDetail(opName)
	if err != nil {
		return nil, err // misses are not cached; failed lookups are cold paths
	}
	actual, _ := d.detailCache.LoadOrStore(opName, det)
	return actual.(*OperationDetail), nil
}

// InvalidateDetails flushes the Detail cache. Call it after structurally
// mutating Definitions (messages, bindings, services) that have already
// served Detail lookups.
func (d *Definitions) InvalidateDetails() {
	d.detailCache.Range(func(k, _ interface{}) bool {
		d.detailCache.Delete(k)
		return true
	})
}

func (d *Definitions) computeDetail(opName string) (*OperationDetail, error) {
	op := d.Operation(opName)
	if op == nil {
		return nil, fmt.Errorf("wsdl: no operation %q", opName)
	}
	det := &OperationDetail{Operation: op}

	in := d.Message(op.Input)
	if in == nil || len(in.Parts) == 0 {
		return nil, fmt.Errorf("wsdl: operation %q has no resolvable input message", opName)
	}
	det.Input = in.Parts[0].Element
	if !op.OneWay() {
		out := d.Message(op.Output)
		if out == nil || len(out.Parts) == 0 {
			return nil, fmt.Errorf("wsdl: operation %q has no resolvable output message", opName)
		}
		det.Output = out.Parts[0].Element
	}

	for _, svc := range d.Services {
		for _, port := range svc.Ports {
			b := d.Binding(port.Binding)
			if b == nil {
				continue
			}
			for _, bo := range b.Operations {
				if bo.Name == opName {
					det.SOAPAction = bo.SOAPAction
					det.Transport = b.Transport
					det.Address = port.Address
					return det, nil
				}
			}
		}
	}
	return nil, fmt.Errorf("wsdl: operation %q is not exposed by any service port", opName)
}

// ---------------------------------------------------------------------------
// Validation

// Validate checks the referential integrity of the definitions: every
// operation references existing messages, every binding an existing
// portType and its operations, every port an existing binding, and (when a
// generated schema is present) every part an existing schema element.
func (d *Definitions) Validate() error {
	if d.TargetNamespace == "" {
		return fmt.Errorf("wsdl: empty targetNamespace")
	}
	msgSeen := map[string]bool{}
	for _, m := range d.Messages {
		if msgSeen[m.Name] {
			return fmt.Errorf("wsdl: duplicate message %q", m.Name)
		}
		msgSeen[m.Name] = true
		for _, p := range m.Parts {
			if p.Element.IsZero() {
				return fmt.Errorf("wsdl: message %q part %q has no element", m.Name, p.Name)
			}
			if d.Schema != nil && p.Element.Space == d.TargetNamespace && !d.Schema.HasElement(p.Element.Local) {
				return fmt.Errorf("wsdl: message %q references undeclared schema element %q", m.Name, p.Element.Local)
			}
		}
	}
	ptSeen := map[string]bool{}
	opSeen := map[string]bool{}
	for _, pt := range d.PortTypes {
		if ptSeen[pt.Name] {
			return fmt.Errorf("wsdl: duplicate portType %q", pt.Name)
		}
		ptSeen[pt.Name] = true
		for _, op := range pt.Operations {
			if opSeen[op.Name] {
				return fmt.Errorf("wsdl: duplicate operation %q", op.Name)
			}
			opSeen[op.Name] = true
			if !msgSeen[op.Input] {
				return fmt.Errorf("wsdl: operation %q input message %q undefined", op.Name, op.Input)
			}
			if op.Output != "" && !msgSeen[op.Output] {
				return fmt.Errorf("wsdl: operation %q output message %q undefined", op.Name, op.Output)
			}
		}
	}
	bindSeen := map[string]bool{}
	for _, b := range d.Bindings {
		if bindSeen[b.Name] {
			return fmt.Errorf("wsdl: duplicate binding %q", b.Name)
		}
		bindSeen[b.Name] = true
		pt := d.PortType(b.PortType)
		if pt == nil {
			return fmt.Errorf("wsdl: binding %q references undefined portType %q", b.Name, b.PortType)
		}
		for _, bo := range b.Operations {
			found := false
			for _, op := range pt.Operations {
				if op.Name == bo.Name {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("wsdl: binding %q operation %q not in portType %q", b.Name, bo.Name, b.PortType)
			}
		}
	}
	for _, s := range d.Services {
		for _, p := range s.Ports {
			if !bindSeen[p.Binding] {
				return fmt.Errorf("wsdl: service %q port %q references undefined binding %q", s.Name, p.Name, p.Binding)
			}
			if p.Address == "" {
				return fmt.Errorf("wsdl: service %q port %q has no address", s.Name, p.Name)
			}
		}
	}
	return nil
}
