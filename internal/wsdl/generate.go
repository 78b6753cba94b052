package wsdl

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"wspeer/internal/xmlutil"
)

// Marshal renders the definitions as an indented WSDL document, written
// straight into a pooled writer: the bytes a tree of the document would
// marshal to, whose root declares tns, wsdl, wsdlsoap and a prefix for
// each namespace of a part's element it does not declare already.
func (d *Definitions) Marshal() ([]byte, error) {
	w := xmlutil.AcquireIndentWriter()
	d.assign(w)
	if err := d.write(w); err != nil {
		w.Finish() // releases the writer
		return nil, fmt.Errorf("wsdl: schema: %w", err)
	}
	return w.Finish(), nil
}

// A namespace declaration of the document element.
type decl struct{ prefix, uri string }

// assign gives w its prefixes in the order a walk of the document's tree
// meets the namespaces: the document element's declarations, which a
// part's element in a namespace without one adds to as the tree renderer's
// xmlutil.QNameValue did (a preferred prefix, else q and the number of the
// declaration), then the schemas'.
func (d *Definitions) assign(w *xmlutil.Writer) {
	w.Assign(Namespace)
	var few [8]decl
	decls := append(few[:0], decl{"tns", d.TargetNamespace}, decl{"wsdl", Namespace}, decl{"wsdlsoap", SOAPNamespace})
	for _, m := range d.Messages {
		for _, p := range m.Parts {
			decls = declareFor(decls, p.Element.Space)
		}
	}
	slices.SortFunc(decls, func(a, b decl) int { return strings.Compare(a.prefix, b.prefix) })
	for _, x := range decls {
		w.Declare(x.prefix, x.uri)
	}
	if d.Schema != nil {
		d.Schema.Assign(w)
	}
	for _, raw := range d.schemas {
		w.CollectRaw(raw)
	}
}

// declareFor adds a declaration for uri to decls unless one is there.
func declareFor(decls []decl, uri string) []decl {
	if uri == "" || slices.ContainsFunc(decls, func(x decl) bool { return x.uri == uri }) {
		return decls
	}
	p := xmlutil.PreferredPrefixes[uri]
	if p == "" {
		p = "q" + strconv.Itoa(len(decls)+1)
	}
	for slices.ContainsFunc(decls, func(x decl) bool { return x.prefix == p }) {
		p += "x" // soapenv, preferred for both SOAP versions
	}
	return append(decls, decl{p, uri})
}

// attr is an unqualified attribute's name.
func attr(local string) xmlutil.Name { return xmlutil.Name{Local: local} }

// write writes the document to w, which has been through assign.
func (d *Definitions) write(w *xmlutil.Writer) error {
	x, soap := w.Prefix(Namespace), w.Prefix(SOAPNamespace)
	// open starts a WSDL element called name; ref is an attribute naming
	// a message, portType or binding of the document.
	open := func(local, name string) {
		w.Start(x, local)
		w.Attr(attr("name"), name)
	}
	ref := func(local, to string) { w.QNameAttr(attr(local), xmlutil.N(d.TargetNamespace, to)) }
	empty := func(prefix, local string) { w.Close(prefix, local, w.Enter()) }
	// soapEmpty writes a SOAP binding element holding only the attributes
	// given as name, value pairs.
	soapEmpty := func(local string, attrs ...string) {
		w.Start(soap, local)
		for i := 0; i < len(attrs); i += 2 {
			w.Attr(attr(attrs[i]), attrs[i+1])
		}
		empty(soap, local)
	}
	w.StartRoot(x, "definitions")
	if d.Name != "" {
		w.Attr(attr("name"), d.Name)
	}
	w.Attr(attr("targetNamespace"), d.TargetNamespace)
	root := w.Enter()
	for _, imp := range d.Imports {
		w.Start(x, "import")
		if imp.Namespace != "" {
			w.Attr(attr("namespace"), imp.Namespace)
		}
		w.Attr(attr("location"), imp.Location)
		empty(x, "import")
	}
	if d.Schema != nil || len(d.schemas) > 0 {
		types := w.Open(x, "types")
		if d.Schema != nil {
			if err := d.Schema.WriteXML(w); err != nil {
				return err
			}
		}
		for _, raw := range d.schemas {
			w.Raw(raw)
		}
		w.Close(x, "types", types)
	}
	for _, m := range d.Messages {
		open("message", m.Name)
		mel := w.Enter()
		for _, p := range m.Parts {
			open("part", p.Name)
			if !p.Element.IsZero() {
				w.QNameAttr(attr("element"), p.Element)
			}
			empty(x, "part")
		}
		w.Close(x, "message", mel)
	}
	for _, pt := range d.PortTypes {
		open("portType", pt.Name)
		ptel := w.Enter()
		for _, op := range pt.Operations {
			open("operation", op.Name)
			opel := w.Enter()
			if op.Doc != "" {
				w.Leaf(x, "documentation", op.Doc)
			}
			w.Start(x, "input")
			ref("message", op.Input)
			empty(x, "input")
			if !op.OneWay() {
				w.Start(x, "output")
				ref("message", op.Output)
				empty(x, "output")
			}
			w.Close(x, "operation", opel)
		}
		w.Close(x, "portType", ptel)
	}
	for _, b := range d.Bindings {
		open("binding", b.Name)
		ref("type", b.PortType)
		bel := w.Enter()
		soapEmpty("binding", "style", "document", "transport", b.Transport)
		for _, bo := range b.Operations {
			open("operation", bo.Name)
			boel := w.Enter()
			soapEmpty("operation", "soapAction", bo.SOAPAction)
			body := func(local string) {
				io := w.Open(x, local)
				soapEmpty("body", "use", "literal")
				w.Close(x, local, io)
			}
			body("input")
			if op := d.Operation(bo.Name); op != nil && !op.OneWay() {
				body("output")
			}
			w.Close(x, "operation", boel)
		}
		w.Close(x, "binding", bel)
	}
	for _, s := range d.Services {
		open("service", s.Name)
		sel := w.Enter()
		for _, p := range s.Ports {
			open("port", p.Name)
			ref("binding", p.Binding)
			pel := w.Enter()
			soapEmpty("address", "location", p.Address)
			w.Close(x, "port", pel)
		}
		w.Close(x, "service", sel)
	}
	w.Close(x, "definitions", root)
	return nil
}
