package xmlutil

import (
	"strings"
	"testing"
)

func TestParseEntitiesAndCharRefs(t *testing.T) {
	el, err := ParseString(`<a x="1 &amp; 2">&lt;b&gt; &apos;c&apos; &quot;d&quot; &#65;&#x42;</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := el.Attr(N("", "x")); got != "1 & 2" {
		t.Errorf("attr = %q", got)
	}
	if got := el.Text(); got != `<b> 'c' "d" AB` {
		t.Errorf("text = %q", got)
	}
}

func TestParseCDATAAndComments(t *testing.T) {
	el, err := ParseString(`<?xml version="1.0"?><!-- head --><a><!-- in --><![CDATA[<raw & unescaped>]]></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := el.Text(); got != "<raw & unescaped>" {
		t.Errorf("text = %q", got)
	}
}

func TestParseDoctypeSkipped(t *testing.T) {
	el, err := ParseString(`<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]><a>hi</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if el.Name.Local != "a" || el.Text() != "hi" {
		t.Errorf("got %s %q", el.Name, el.Text())
	}
}

func TestParseNamespaceScoping(t *testing.T) {
	el, err := ParseString(`<a xmlns="urn:d" xmlns:p="urn:p"><p:b q:r="v" xmlns:q="urn:q" plain="w"/><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if el.Name != N("urn:d", "a") {
		t.Errorf("root = %s", el.Name)
	}
	b := el.Find(N("urn:p", "b"))
	if b.Name != N("urn:p", "b") {
		t.Errorf("b = %s", b.Name)
	}
	// Prefixed attributes resolve through decls on the same element;
	// unprefixed attributes never take the default namespace.
	if v, ok := b.Attr(N("urn:q", "r")); !ok || v != "v" {
		t.Errorf("q:r = %q, %v", v, ok)
	}
	if v, ok := b.Attr(N("", "plain")); !ok || v != "w" {
		t.Errorf("plain = %q, %v", v, ok)
	}
	if c := el.Elements()[1]; c.Name != N("urn:d", "c") {
		t.Errorf("c = %s (default namespace should apply)", c.Name)
	}
}

func TestParseCarriageReturnNormalized(t *testing.T) {
	el, err := ParseString("<a>x\r\ny\rz</a>")
	if err != nil {
		t.Fatal(err)
	}
	if got := el.Text(); got != "x\ny\nz" {
		t.Errorf("text = %q", got)
	}
}

func TestParseMalformed(t *testing.T) {
	cases := []string{
		"plain text",
		"<p:a></q:a>",
		"<a><b></a></b>",
		"<a/><b/>",
		"<a attr></a>",
		`<a x="unterminated></a>`,
		"<a>&bogus;</a>",
		"<a>&#xZZ;</a>",
		"<a>& loose</a>",
		"<!-- only a comment -->",
		"<a><![CDATA[unterminated</a>",
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q): expected error", src)
		}
	}
}

func TestParseUndeclaredPrefixKeptVerbatim(t *testing.T) {
	// encoding/xml resolved unknown prefixes to the prefix itself; the
	// replacement parser preserves that so lenient peers interoperate.
	el, err := ParseString(`<u:a xmlns:u="urn:u"><w:b>x</w:b></u:a>`)
	if err != nil {
		t.Fatal(err)
	}
	if b := el.Elements()[0]; b.Name.Space != "w" {
		t.Errorf("undeclared prefix resolved to %q, want \"w\"", b.Name.Space)
	}
}

// TestParseMarshalRoundTripDeep pushes a deep, attribute-heavy tree
// through marshal+parse and requires semantic equality.
func TestParseMarshalRoundTripDeep(t *testing.T) {
	root := NewElement(N("urn:root", "root"))
	cur := root
	for i := 0; i < 40; i++ {
		cur = cur.NewChild(N("urn:root", "nest"))
		cur.SetAttr(N("", "depth"), strings.Repeat("d", i%7))
		cur.AddText("text & <markup> 'quoted'")
	}
	out := Marshal(root)
	back, err := ParseBytes(out)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(root, back) {
		t.Fatal("round trip not equal")
	}
	if string(Marshal(back)) != string(out) {
		t.Fatal("re-marshal differs")
	}
}
