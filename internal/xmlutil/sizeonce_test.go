package xmlutil

import (
	"fmt"
	"strings"
	"testing"
)

// checkBuilt reports the first element of a built tree whose child nodes
// are not held the way the builder promises: a sole text run inline, any
// other children in a slice of exactly their number, each child element
// pointing back at its parent.
func checkBuilt(e *Element) error {
	if len(e.children) != cap(e.children) {
		return fmt.Errorf("<%s>: %d children in a slice of %d", e.Name, len(e.children), cap(e.children))
	}
	if len(e.children) > 0 && e.text != "" {
		return fmt.Errorf("<%s>: inline text %q beside %d children", e.Name, e.text, len(e.children))
	}
	if len(e.children) == 1 {
		if _, ok := e.children[0].(Text); ok {
			return fmt.Errorf("<%s>: a sole text run not inline", e.Name)
		}
	}
	for _, n := range e.children {
		if el, ok := n.(*Element); ok {
			if el.parent != e {
				return fmt.Errorf("<%s>: parent of <%s> is not it", e.Name, el.Name)
			}
			if err := checkBuilt(el); err != nil {
				return err
			}
		}
	}
	return nil
}

// wsdlDoc is an indented WSDL document of ops operations, each with a
// request and a response message of one part, over SOAP 1.1.
func wsdlDoc(ops int) []byte {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>
<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/" xmlns:soap="http://schemas.xmlsoap.org/wsdl/soap/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:tns="urn:svc" targetNamespace="urn:svc" name="Svc">
  <wsdl:types>
    <xsd:schema targetNamespace="urn:svc" elementFormDefault="qualified">
`)
	for i := 0; i < ops; i++ {
		fmt.Fprintf(&b, `      <xsd:element name="op%d"><xsd:complexType><xsd:sequence><xsd:element name="msg" type="xsd:string"/></xsd:sequence></xsd:complexType></xsd:element>
      <xsd:element name="op%dResponse"><xsd:complexType><xsd:sequence><xsd:element name="return" type="xsd:string"/></xsd:sequence></xsd:complexType></xsd:element>
`, i, i)
	}
	b.WriteString("    </xsd:schema>\n  </wsdl:types>\n")
	for i := 0; i < ops; i++ {
		fmt.Fprintf(&b, `  <wsdl:message name="op%dRequest"><wsdl:part name="parameters" element="tns:op%d"/></wsdl:message>
  <wsdl:message name="op%dResponse"><wsdl:part name="parameters" element="tns:op%dResponse"/></wsdl:message>
`, i, i, i, i)
	}
	b.WriteString("  <wsdl:portType name=\"SvcPortType\">\n")
	for i := 0; i < ops; i++ {
		fmt.Fprintf(&b, "    <wsdl:operation name=\"op%d\">\n      <wsdl:input message=\"tns:op%dRequest\"/>\n      <wsdl:output message=\"tns:op%dResponse\"/>\n    </wsdl:operation>\n", i, i, i)
	}
	b.WriteString("  </wsdl:portType>\n  <wsdl:binding name=\"SvcBinding\" type=\"tns:SvcPortType\">\n    <soap:binding style=\"document\" transport=\"http://schemas.xmlsoap.org/soap/http\"/>\n")
	for i := 0; i < ops; i++ {
		fmt.Fprintf(&b, "    <wsdl:operation name=\"op%d\">\n      <soap:operation soapAction=\"urn:svc#op%d\"/>\n      <wsdl:input><soap:body use=\"literal\"/></wsdl:input>\n      <wsdl:output><soap:body use=\"literal\"/></wsdl:output>\n    </wsdl:operation>\n", i, i)
	}
	b.WriteString(`  </wsdl:binding>
  <wsdl:service name="Svc">
    <wsdl:documentation>A generated service</wsdl:documentation>
    <wsdl:port name="SvcPort" binding="tns:SvcBinding"><soap:address location="http://127.0.0.1:8080/services/Svc"/></wsdl:port>
  </wsdl:service>
</wsdl:definitions>
`)
	return []byte(b.String())
}

// TestBuiltChildrenSizedOnce: every element the builder makes holds its
// child nodes in a slice of exactly their number — whatever the mix of
// elements, text runs and CDATA, and past a size class (17 children) —
// or a sole text run inline, in document order.
func TestBuiltChildrenSizedOnce(t *testing.T) {
	var wide strings.Builder
	wide.WriteString("<r>")
	for i := 0; i < 17; i++ {
		fmt.Fprintf(&wide, "<c>%d</c>", i)
	}
	wide.WriteString("</r>")
	for _, doc := range []string{
		`<a/>`,
		`<a>text</a>`,
		`<a>one<!-- c -->two</a>`,
		`<a>sole<!-- c --></a>`,
		`<a><?pi?>sole</a>`,
		`<a><![CDATA[x]]>y<b/>z</a>`,
		`<a>  <b>v</b>  <c><d/></c>  </a>`,
		wide.String(),
		string(wsdlDoc(8)),
	} {
		root, err := ParseBytes([]byte(doc))
		if err != nil {
			t.Fatalf("%.40s: %v", doc, err)
		}
		if err := checkBuilt(root); err != nil {
			t.Errorf("%.40s: %v", doc, err)
		}
		if got, want := dumpString(root), mustDumpTokens(t, doc); got != want {
			t.Errorf("tree %s, tokens %s", got, want)
		}
	}
	root, _ := ParseString(`<a>one<!-- c -->two<b/></a>`)
	if got := len(root.children); got != 3 || root.Text() != "onetwo" {
		t.Errorf("two text runs and an element: %d nodes, text %q", got, root.Text())
	}
}

func mustDumpTokens(t *testing.T, doc string) string {
	t.Helper()
	s, err := dumpTokens([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFragmentSizedOnce: Fragment, built in the middle of a scan, takes the
// same shape and leaves the node stack as it found it.
func TestFragmentSizedOnce(t *testing.T) {
	p := AcquireTokenizer([]byte(`<env><hdr><ref xmlns="urn:r"><k>v</k><k>w</k>tail</ref></hdr><after/></env>`))
	defer p.Release()
	for p.Local == nil || string(p.Local) != "ref" {
		if _, err := p.Next(); err != nil {
			t.Fatal(err)
		}
	}
	frag, err := p.Fragment()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBuilt(frag); err != nil || len(frag.children) != 3 {
		t.Fatalf("%v; %d children", err, len(frag.children))
	}
	if len(p.nodes) != 0 {
		t.Fatalf("%d nodes left on the stack", len(p.nodes))
	}
}

// TestReleaseClearsNodeStack: a pooled scanner holds no tree it built, nor
// one it was building when the document turned out malformed.
func TestReleaseClearsNodeStack(t *testing.T) {
	for _, doc := range []string{string(wsdlDoc(2)), `<a><b>x</b><c><d/>`} {
		p := AcquireTokenizer([]byte(doc))
		if _, err := p.Next(); err != nil {
			t.Fatal(err)
		}
		p.Element() // the second does not parse
		if cap(p.nodes) == 0 {
			t.Fatalf("%.20s: nothing went through the node stack", doc)
		}
		nodes := p.nodes[:cap(p.nodes)]
		p.Release()
		for i, n := range nodes {
			if n != nil {
				t.Fatalf("%.20s: node %d survives Release: %+v", doc, i, n)
			}
		}
	}
}

// TestParseWSDLAllocs pins what parsing a generated 8-operation WSDL costs
// (≈ 358 allocations): each element's children are one slice of their
// number, where appending them one at a time made it 433.
func TestParseWSDLAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	doc := wsdlDoc(8)
	if _, err := ParseBytes(doc); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { ParseBytes(doc) }); got > 376 {
		t.Errorf("parsing an 8-operation WSDL: %v allocations, want at most 376", got)
	} else {
		t.Logf("%v allocations", got)
	}
}
