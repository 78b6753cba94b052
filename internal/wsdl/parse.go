package wsdl

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"wspeer/internal/xmlutil"
	"wspeer/internal/xsd"
)

// Parse reads a WSDL 1.1 document. Its content decodes straight from the
// document's tokens through the compiled plans of package xsd: into the
// types Definitions holds where their shape is the document's (Message,
// Part, Import), into the wire structs below where it is not, and the
// schemas into a copy of their bytes (RawSchemas builds them as trees).
func Parse(data []byte) (*Definitions, error) {
	t := xmlutil.AcquireTokenizer(data)
	defer t.Release()
	d, err := parse(t)
	if err != nil {
		return nil, fmt.Errorf("wsdl: %w", err)
	}
	return d, nil
}

// The children of wsdl:definitions, as the plans read them. A field names
// its element in the WSDL namespace, or in the SOAP binding's, and matches
// nothing else; a child nothing names is skipped, as are all but the first
// match of a field that does not repeat.
type wireDefinitions struct {
	Imports []Import `xml:"http://schemas.xmlsoap.org/wsdl/ import"`
	Types   struct {
		Schemas []xmlutil.Raw `xml:",any"`
	} `xml:"http://schemas.xmlsoap.org/wsdl/ types"`
	Messages  []Message      `xml:"http://schemas.xmlsoap.org/wsdl/ message"`
	PortTypes []wirePortType `xml:"http://schemas.xmlsoap.org/wsdl/ portType"`
	Bindings  []wireBinding  `xml:"http://schemas.xmlsoap.org/wsdl/ binding"`
	Services  []wireService  `xml:"http://schemas.xmlsoap.org/wsdl/ service"`
}

type wirePortType struct {
	Name       string `xml:"name,attr"`
	Operations []struct {
		Name   string  `xml:"name,attr"`
		Doc    string  `xml:"http://schemas.xmlsoap.org/wsdl/ documentation"`
		Input  wireRef `xml:"http://schemas.xmlsoap.org/wsdl/ input"`
		Output wireRef `xml:"http://schemas.xmlsoap.org/wsdl/ output"`
	} `xml:"http://schemas.xmlsoap.org/wsdl/ operation"`
}

type wireRef struct {
	Message string `xml:"message,attr"`
}

type wireBinding struct {
	Name string `xml:"name,attr"`
	Type string `xml:"type,attr"`
	SOAP struct {
		Transport string `xml:"transport,attr"`
	} `xml:"http://schemas.xmlsoap.org/wsdl/soap/ binding"`
	Operations []struct {
		Name string `xml:"name,attr"`
		SOAP struct {
			Action string `xml:"soapAction,attr"`
		} `xml:"http://schemas.xmlsoap.org/wsdl/soap/ operation"`
	} `xml:"http://schemas.xmlsoap.org/wsdl/ operation"`
}

type wireService struct {
	Name  string `xml:"name,attr"`
	Ports []struct {
		Name    string `xml:"name,attr"`
		Binding string `xml:"binding,attr"`
		Address struct {
			Location string `xml:"location,attr"`
		} `xml:"http://schemas.xmlsoap.org/wsdl/soap/ address"`
	} `xml:"http://schemas.xmlsoap.org/wsdl/ port"`
}

var schemaName = xmlutil.N(xsd.Namespace, "schema")

func parse(t *xmlutil.Tokenizer) (*Definitions, error) {
	if _, err := t.Next(); err != nil {
		return nil, err
	}
	if t.Space != Namespace || string(t.Local) != "definitions" {
		return nil, fmt.Errorf("document element is %v, not wsdl:definitions", t.Name())
	}
	d := &Definitions{}
	d.Name, _ = t.Attr(attr("name"))
	tns, ok := t.Attr(attr("targetNamespace"))
	if !ok {
		return nil, fmt.Errorf("definitions has no targetNamespace")
	}
	d.TargetNamespace = tns
	var wire wireDefinitions
	if err := xsd.DecodeValue(t, Namespace, reflect.ValueOf(&wire).Elem()); err != nil {
		return nil, err
	}
	for kind := xmlutil.TokenEnd; kind != xmlutil.TokenEOF; { // what follows is checked
		var err error
		if kind, err = t.Next(); err != nil {
			return nil, err
		}
	}

	d.Imports = slices.DeleteFunc(wire.Imports, func(i Import) bool { return i.Location == "" })
	d.schemas = slices.DeleteFunc(wire.Types.Schemas, func(r xmlutil.Raw) bool { return r.Name != schemaName })
	xmlutil.Detach(d.schemas) // data is the caller's
	d.Messages = pointers(wire.Messages)
	portTypes := make([]PortType, len(wire.PortTypes))
	for i, wpt := range wire.PortTypes {
		ops := make([]Operation, len(wpt.Operations))
		for j, op := range wpt.Operations {
			ops[j] = Operation{Name: op.Name, Input: localOf(op.Input.Message), Output: localOf(op.Output.Message), Doc: strings.TrimSpace(op.Doc)}
		}
		portTypes[i] = PortType{Name: wpt.Name, Operations: pointers(ops)}
	}
	d.PortTypes = pointers(portTypes)
	bindings := make([]Binding, len(wire.Bindings))
	for i, wb := range wire.Bindings {
		ops := make([]BindingOperation, len(wb.Operations))
		for j, bo := range wb.Operations {
			ops[j] = BindingOperation{Name: bo.Name, SOAPAction: bo.SOAP.Action}
		}
		bindings[i] = Binding{Name: wb.Name, PortType: localOf(wb.Type), Transport: wb.SOAP.Transport, Operations: ops}
	}
	d.Bindings = pointers(bindings)
	services := make([]Service, len(wire.Services))
	for i, ws := range wire.Services {
		ports := make([]Port, len(ws.Ports))
		for j, p := range ws.Ports {
			ports[j] = Port{Name: p.Name, Binding: localOf(p.Binding), Address: p.Address.Location}
		}
		services[i] = Service{Name: ws.Name, Ports: ports}
	}
	d.Services = pointers(services)
	return d, nil
}

// pointers points at each of s's items.
func pointers[T any](s []T) []*T {
	out := make([]*T, len(s))
	for i := range s {
		out[i] = &s[i]
	}
	return out
}

// localOf is the local part of a QName reference to a message, portType or
// binding, which are looked up by name whatever namespace the prefix names:
// single-document WSDLs from lenient generators leave it undeclared, or
// bind it elsewhere.
func localOf(ref string) string {
	ref = strings.TrimSpace(ref)
	return ref[strings.LastIndexByte(ref, ':')+1:]
}

// Fetcher retrieves an imported document by location.
type Fetcher func(ctx context.Context, location string) ([]byte, error)

// maxImportDepth bounds transitive import chains.
const maxImportDepth = 8

// ResolveImports fetches every wsdl:import (transitively, cycle-safe,
// depth-bounded) and merges the imported definitions' schemas, messages,
// portTypes, bindings and services into d. Real-world WSDL is frequently
// split this way (interface document imported by a service document).
func (d *Definitions) ResolveImports(ctx context.Context, fetch Fetcher) error {
	if fetch == nil {
		return fmt.Errorf("wsdl: ResolveImports needs a Fetcher")
	}
	seen := map[string]bool{}
	return d.resolveImports(ctx, fetch, seen, 0)
}

func (d *Definitions) resolveImports(ctx context.Context, fetch Fetcher, seen map[string]bool, depth int) error {
	if depth > maxImportDepth {
		return fmt.Errorf("wsdl: import chain deeper than %d documents", maxImportDepth)
	}
	imports := d.Imports
	d.Imports = nil
	for _, imp := range imports {
		if seen[imp.Location] {
			continue // cycle or diamond: already merged
		}
		seen[imp.Location] = true
		data, err := fetch(ctx, imp.Location)
		if err != nil {
			return fmt.Errorf("wsdl: importing %q: %w", imp.Location, err)
		}
		sub, err := Parse(data)
		if err != nil {
			return fmt.Errorf("wsdl: importing %q: %w", imp.Location, err)
		}
		if err := sub.resolveImports(ctx, fetch, seen, depth+1); err != nil {
			return err
		}
		d.schemas = append(d.schemas, sub.schemas...)
		d.Messages = append(d.Messages, sub.Messages...)
		d.PortTypes = append(d.PortTypes, sub.PortTypes...)
		d.Bindings = append(d.Bindings, sub.Bindings...)
		d.Services = append(d.Services, sub.Services...)
	}
	return nil
}
