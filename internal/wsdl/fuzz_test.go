package wsdl

import (
	"bytes"
	"encoding/xml"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"wspeer/internal/xmlutil"
)

// FuzzParseWSDL feeds Parse arbitrary bytes, seeded with the golden
// documents and the conformance ones. Parse must never panic, and must
// refuse a part whose element names an undeclared prefix — as the element
// tree of the same document resolves it. A document it accepts marshals to
// one it accepts as the same definitions (the schemas as trees equal but
// for their prefixes), and that one marshals to the same bytes. Exempt
// are documents holding text no XML document can carry (which the writer
// does not write back), and schemas holding mixed content or an attribute
// twice (oddSchema); where a schema
// declares prefixes of its own, which the document's root declares once
// written, the second document is only required to be the same tree.
func FuzzParseWSDL(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("testdata", "*.wsdl"))
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range golden {
		doc, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	for _, doc := range []string{axisStyleWSDL, dotNetStyleWSDL, gSoapStyleWSDL, splitServiceDoc, splitInterfaceDoc, splitMessagesDoc} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		d1, err := Parse(doc)
		if undeclared := undeclaredPartPrefix(doc); undeclared != "" && err == nil {
			t.Fatalf("a part element %q with an undeclared prefix accepted", undeclared)
		}
		if err != nil || !xmlText(doc) || oddSchema(d1) {
			return
		}
		m1, err := d1.Marshal()
		if err != nil {
			t.Fatalf("an accepted document does not marshal: %v", err)
		}
		d2, err := Parse(m1)
		if err != nil {
			t.Fatalf("a marshalled document does not parse: %v\n%s", err, m1)
		}
		if !sameDefinitions(d1, d2) {
			t.Fatalf("definitions changed in a marshal/parse round trip:\n%#v\n%#v\n%s", d1, d2, m1)
		}
		m2, err := d2.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(m1, m2) {
			return
		}
		if !schemaDeclaresPrefixes(doc) {
			t.Fatalf("the second Marshal differs from the first:\n%s\n%s", m1, m2)
		}
		t1, err1 := xmlutil.ParseBytes(m1)
		t2, err2 := xmlutil.ParseBytes(m2)
		if err1 != nil || err2 != nil || !xmlutil.Equal(t1, t2) {
			t.Fatalf("the second Marshal is another document:\n%s\n%s", m1, m2)
		}
	})
}

// undeclaredPartPrefix is the element reference of the first part, of a
// message of the document, that the element tree cannot resolve.
func undeclaredPartPrefix(doc []byte) string {
	root, err := xmlutil.ParseBytes(doc)
	if err != nil || root.Name != xmlutil.N(Namespace, "definitions") {
		return ""
	}
	for _, m := range root.Children(xmlutil.N(Namespace, "message")) {
		for _, p := range m.Children(xmlutil.N(Namespace, "part")) {
			if ref, ok := p.Attr(xmlutil.N("", "element")); ok {
				if _, err := p.ResolveQName(ref); err != nil {
					return ref
				}
			}
		}
	}
	return ""
}

// sameDefinitions: equal, the schemas as trees.
func sameDefinitions(a, b *Definitions) bool {
	sa, sb := a.RawSchemas(), b.RawSchemas()
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		if !xmlutil.Equal(sa[i], sb[i]) {
			return false
		}
	}
	ra, rb := a.schemas, b.schemas
	a.schemas, b.schemas = nil, nil
	defer func() { a.schemas, b.schemas = ra, rb }()
	return reflect.DeepEqual(a, b)
}

// oddSchema reports whether an element of a schema holds both text and
// elements, or an attribute twice (which the scanner lets pass and
// xmlutil.Equal does not compare).
func oddSchema(d *Definitions) bool {
	var odd func(el *xmlutil.Element) bool
	odd = func(el *xmlutil.Element) bool {
		kids := el.Elements()
		if len(kids) > 0 && strings.TrimSpace(el.Text()) != "" {
			return true
		}
		for i, a := range el.Attrs {
			for _, b := range el.Attrs[:i] {
				if a.Name == b.Name {
					return true
				}
			}
		}
		return slices.ContainsFunc(kids, odd)
	}
	return slices.ContainsFunc(d.RawSchemas(), odd)
}

// schemaDeclaresPrefixes reports whether an element inside wsdl:types
// declares a prefix, or whether encoding/xml cannot tell.
func schemaDeclaresPrefixes(doc []byte) bool {
	dec := xml.NewDecoder(bytes.NewReader(doc))
	depth, typesAt := 0, 0
	for {
		tok, err := dec.RawToken()
		if err != nil {
			return err != io.EOF
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			depth++
			if typesAt > 0 {
				for _, a := range tok.Attr {
					if a.Name.Space == "xmlns" && a.Value != "" {
						return true
					}
				}
			} else if depth == 2 && tok.Name.Local == "types" {
				typesAt = depth
			}
		case xml.EndElement:
			if depth == typesAt {
				typesAt = 0
			}
			depth--
		}
	}
}

// xmlText reports whether b holds only characters XML 1.0 allows.
func xmlText(b []byte) bool {
	for _, r := range string(b) {
		if r == utf8.RuneError || r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r == 0xFFFE || r == 0xFFFF {
			return false
		}
	}
	return true
}
