package xmlutil

import (
	"strings"
	"testing"
	"testing/quick"
)

const nsA = "http://example.org/a"
const nsB = "http://example.org/b"

func TestBuildAndQuery(t *testing.T) {
	root := NewElement(N(nsA, "root"))
	c1 := root.NewChild(N(nsA, "child")).SetText("one")
	c2 := root.NewChild(N(nsB, "child"))
	c2.SetText("two")
	root.NewChild(N(nsA, "other"))

	if got := root.Children(N(nsA, "child")); len(got) != 1 || got[0] != c1 {
		t.Fatalf("Children(a:child) = %v, want c1", got)
	}
	if got := root.Children(N(nsB, "child")); len(got) != 1 || got[0] != c2 {
		t.Fatalf("Children(b:child) = %v, want c2", got)
	}
	if got := c1.Text(); got != "one" {
		t.Fatalf("Text = %q, want one", got)
	}
	if c1.Parent() != root {
		t.Fatal("parent not set")
	}
	if got := len(root.Elements()); got != 3 {
		t.Fatalf("Elements len = %d, want 3", got)
	}
}

func TestAttrs(t *testing.T) {
	e := NewElement(N("", "e"))
	e.SetAttr(N("", "a"), "1")
	e.SetAttr(N(nsA, "a"), "2")
	e.SetAttr(N("", "a"), "3") // replace

	if v, ok := e.Attr(N("", "a")); !ok || v != "3" {
		t.Fatalf("Attr(a) = %q,%v want 3,true", v, ok)
	}
	if v, ok := e.Attr(N(nsA, "a")); !ok || v != "2" {
		t.Fatalf("Attr({a}a) = %q,%v want 2,true", v, ok)
	}
	if _, ok := e.Attr(N(nsB, "a")); ok {
		t.Fatal("Attr on missing namespace should miss")
	}
	if a := e.Attrs[0]; a.Name.Local != "a" || a.Value != "3" {
		t.Fatalf("first attribute %v = %q, want the first declared, replaced", a.Name, a.Value)
	}
	if len(e.Attrs) != 2 {
		t.Fatalf("attr count = %d, want 2", len(e.Attrs))
	}
}

func TestRemoveChildAndReparent(t *testing.T) {
	a := NewElement(N("", "a"))
	b := NewElement(N("", "b"))
	kid := a.NewChild(N("", "kid"))
	if !a.RemoveChild(kid) {
		t.Fatal("RemoveChild failed")
	}
	if kid.Parent() != nil || len(a.Elements()) != 0 {
		t.Fatal("detach incomplete")
	}
	// AddChild must detach from previous parent automatically.
	a.AddChild(kid)
	b.AddChild(kid)
	if len(a.Elements()) != 0 || kid.Parent() != b {
		t.Fatal("reparenting did not detach from old parent")
	}
	if a.RemoveChild(kid) {
		t.Fatal("RemoveChild of non-child should report false")
	}
}

func TestParseRoundTrip(t *testing.T) {
	doc := `<a:root xmlns:a="http://example.org/a" xmlns:b="http://example.org/b">
	  <a:item id="1">hello &amp; goodbye</a:item>
	  <b:item>two</b:item>
	</a:root>`
	root, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if root.Name != N(nsA, "root") {
		t.Fatalf("root name = %v", root.Name)
	}
	item := root.Find(N(nsA, "item"))
	if item == nil {
		t.Fatal("missing a:item")
	}
	if got := item.Text(); got != "hello & goodbye" {
		t.Fatalf("entity decode: %q", got)
	}
	if v, _ := item.Attr(N("", "id")); v != "1" {
		t.Fatalf("id attr = %q", v)
	}

	// Serialize and reparse; trees must be semantically equal.
	out := Marshal(root)
	back, err := ParseBytes(out)
	if err != nil {
		t.Fatalf("reparse %s: %v", out, err)
	}
	if !Equal(root, back) {
		t.Fatalf("round trip not equal:\n%s\nvs\n%s", Marshal(root), Marshal(back))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"<a>",
		"<a></b>",
		"<a/><b/>",
		"not xml at all <",
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): expected error", c)
		}
	}
}

func TestDefaultNamespace(t *testing.T) {
	doc := `<root xmlns="http://example.org/a"><kid/></root>`
	root, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if root.Name.Space != nsA {
		t.Fatalf("default ns not applied: %v", root.Name)
	}
	if root.Find(N(nsA, "kid")) == nil {
		t.Fatal("kid should inherit default namespace")
	}
}

func TestResolveQName(t *testing.T) {
	doc := `<r xmlns:p="http://example.org/a" xmlns="http://example.org/b">
	  <inner xmlns:p="http://example.org/b"/>
	</r>`
	root, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	n, err := root.ResolveQName("p:thing")
	if err != nil || n != N(nsA, "thing") {
		t.Fatalf("p:thing = %v, %v", n, err)
	}
	// Unprefixed resolves against default namespace.
	n, err = root.ResolveQName("plain")
	if err != nil || n != N(nsB, "plain") {
		t.Fatalf("plain = %v, %v", n, err)
	}
	// Inner scope shadows p.
	inner := root.Find(N(nsB, "inner"))
	n, err = inner.ResolveQName("p:thing")
	if err != nil || n != N(nsB, "thing") {
		t.Fatalf("shadowed p:thing = %v, %v", n, err)
	}
	if _, err := root.ResolveQName("nope:thing"); err == nil {
		t.Fatal("undeclared prefix must error")
	}
	if _, err := root.ResolveQName(""); err == nil {
		t.Fatal("empty qname must error")
	}
	if _, err := root.ResolveQName(":x"); err == nil {
		t.Fatal("malformed qname must error")
	}
}

func TestResolveQNameXMLBuiltin(t *testing.T) {
	e := NewElement(N("", "e"))
	n, err := e.ResolveQName("xml:lang")
	if err != nil || n.Space != "http://www.w3.org/XML/1998/namespace" {
		t.Fatalf("xml builtin: %v %v", n, err)
	}
}

func TestQNameValue(t *testing.T) {
	scope := NewElement(N(nsA, "root"))
	scope.DeclarePrefix("tns", nsA)
	if got := QNameValue(scope, N(nsA, "Echo")); got != "tns:Echo" {
		t.Fatalf("QNameValue existing prefix = %q", got)
	}
	v := QNameValue(scope, N(nsB, "Other"))
	if !strings.HasSuffix(v, ":Other") {
		t.Fatalf("QNameValue new = %q", v)
	}
	// The declared prefix must resolve back.
	n, err := scope.ResolveQName(v)
	if err != nil || n != N(nsB, "Other") {
		t.Fatalf("resolve back = %v, %v", n, err)
	}
	if got := QNameValue(scope, N("", "bare")); got != "bare" {
		t.Fatalf("unqualified = %q", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	root := NewElement(N(nsA, "r"))
	root.SetAttr(N("", "x"), "1")
	root.DeclarePrefix("a", nsA)
	kid := root.NewChild(N(nsA, "kid")).SetText("v")
	c := root.Clone()
	if !Equal(root, c) {
		t.Fatal("clone not equal")
	}
	kid.SetText("changed")
	root.SetAttr(N("", "x"), "2")
	if c.Elements()[0].Text() != "v" {
		t.Fatal("clone shares child text")
	}
	if v, _ := c.Attr(N("", "x")); v != "1" {
		t.Fatal("clone shares attrs")
	}
	if c.Elements()[0].Parent() != c {
		t.Fatal("clone parent pointers wrong")
	}
	if uri, ok := c.LookupPrefix("a"); !ok || uri != nsA {
		t.Fatal("clone lost nsDecls")
	}
}

func TestEqualDifferences(t *testing.T) {
	base := func() *Element {
		e := NewElement(N(nsA, "r"))
		e.SetAttr(N("", "k"), "v")
		e.NewChild(N(nsA, "c")).SetText("t")
		return e
	}
	if !Equal(base(), base()) {
		t.Fatal("identical trees must be equal")
	}
	b := base()
	b.Name.Local = "other"
	if Equal(base(), b) {
		t.Fatal("name diff")
	}
	b = base()
	b.SetAttr(N("", "k"), "w")
	if Equal(base(), b) {
		t.Fatal("attr diff")
	}
	b = base()
	b.Elements()[0].SetText("u")
	if Equal(base(), b) {
		t.Fatal("text diff")
	}
	b = base()
	b.NewChild(N(nsA, "extra"))
	if Equal(base(), b) {
		t.Fatal("extra child")
	}
	if !Equal(nil, nil) || Equal(base(), nil) {
		t.Fatal("nil handling")
	}
}

func TestEqualIgnoresWhitespaceNodes(t *testing.T) {
	a, _ := ParseString("<r><c>x</c></r>")
	b, _ := ParseString("<r>\n  <c>x</c>\n</r>")
	if !Equal(a, b) {
		t.Fatal("indentation must not affect equality")
	}
}

func TestMarshalEscaping(t *testing.T) {
	e := NewElement(N("", "e"))
	e.SetAttr(N("", "a"), `<&">`)
	e.SetText(`a < b & c > d`)
	out := string(Marshal(e))
	if strings.ContainsAny(strings.ReplaceAll(out, "&amp;", ""), "&") == false {
		// expected: escapes present
	}
	back, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse escaped: %v\n%s", err, out)
	}
	if back.Text() != `a < b & c > d` {
		t.Fatalf("text round trip: %q", back.Text())
	}
	if v, _ := back.Attr(N("", "a")); v != `<&">` {
		t.Fatalf("attr round trip: %q", v)
	}
}

func TestMarshalPrefixConflict(t *testing.T) {
	// Two explicit declarations of the same prefix for different URIs.
	root := NewElement(N(nsA, "r"))
	root.DeclarePrefix("p", nsA)
	inner := root.NewChild(N(nsB, "i"))
	inner.DeclarePrefix("p", nsB)
	out := Marshal(root)
	back, err := ParseBytes(out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if !Equal(root, back) {
		t.Fatalf("conflicting prefixes broke round trip:\n%s", out)
	}
}

func TestFindAndFindAll(t *testing.T) {
	root, _ := ParseString(`<r xmlns="` + nsA + `"><a><b/><b/></a><b/></r>`)
	if got := len(root.FindAll(N(nsA, "b"))); got != 3 {
		t.Fatalf("FindAll = %d, want 3", got)
	}
	if root.Find(N(nsA, "b")) == nil {
		t.Fatal("Find missed")
	}
	if root.Find(N(nsB, "zz")) != nil {
		t.Fatal("Find false positive")
	}
}

// Property: any tree built from sanitized random strings survives
// marshal/parse round-tripping.
func TestQuickRoundTrip(t *testing.T) {
	sanitize := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			if r == '\r' {
				continue // XML parsers normalize \r\n; avoid asymmetry
			}
			if r >= 0x20 || r == '\t' || r == '\n' {
				b.WriteRune(r)
			}
		}
		return b.String()
	}
	ident := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9' && b.Len() > 0) {
				b.WriteRune(r)
			}
		}
		if b.Len() == 0 {
			return "x"
		}
		return b.String()
	}
	f := func(name, text, attrVal, kidName string) bool {
		root := NewElement(N(nsA, ident(name)))
		root.SetAttr(N("", "a"), sanitize(attrVal))
		root.NewChild(N(nsB, ident(kidName))).SetText(sanitize(text))
		out := Marshal(root)
		back, err := ParseBytes(out)
		if err != nil {
			t.Logf("parse error on %s: %v", out, err)
			return false
		}
		return Equal(root, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNameString(t *testing.T) {
	if N("", "x").String() != "x" {
		t.Fatal("bare name")
	}
	if N(nsA, "x").String() != "{http://example.org/a}x" {
		t.Fatal("clark notation")
	}
	if !(Name{}).IsZero() || N("", "x").IsZero() {
		t.Fatal("IsZero")
	}
}
