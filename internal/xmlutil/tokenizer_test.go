package xmlutil

import (
	"bytes"
	"testing"
)

// open scans doc up to the start tag of the first element called local.
func open(t *testing.T, doc, local string) *Tokenizer {
	t.Helper()
	p := AcquireTokenizer([]byte(doc))
	for {
		kind, err := p.Next()
		if err != nil || kind == TokenEOF {
			t.Fatalf("no <%s> in %s: %v", local, doc, err)
		}
		if kind == TokenStart && string(p.Local) == local {
			return p
		}
	}
}

// TestCharDataIsElementText: CharData gives what Element.Text gives —
// entities, CDATA and line ends decoded, pieces joined, child elements
// stepped over, whitespace kept — and leaves the scanner after the
// element's end tag.
func TestCharDataIsElementText(t *testing.T) {
	for _, leaf := range []string{
		`<v>plain</v>`,
		`<v/>`,
		`<v></v>`,
		`<v>  kept  </v>`,
		`<v>a &amp; b &#x3c; c</v>`,
		`<v><![CDATA[<raw> & ]]></v>`,
		`<v>one<![CDATA[two]]>three</v>`,
		`<v>a&amp;<!-- no -->b<?pi no?>c</v>`,
		`<v>before<k>inside<k>deeper</k></k>after</v>`,
		"<v>line\r\nend\rs</v>",
	} {
		doc := `<r xmlns="urn:r"><first/>` + leaf + `<last>end</last></r>`
		root, err := ParseString(doc)
		if err != nil {
			t.Fatalf("%s: %v", leaf, err)
		}
		want := root.Find(N("urn:r", "v")).Text()
		p := open(t, doc, "v")
		got, err := p.CharData()
		if err != nil || string(got) != want {
			t.Errorf("%s: CharData = %q, %v; Text = %q", leaf, got, err, want)
		}
		if kind, err := p.Next(); err != nil || kind != TokenStart || string(p.Local) != "last" || p.Depth() != 2 {
			t.Errorf("%s: after CharData the scanner is at %v %q depth %d (%v), want <last>", leaf, kind, p.Local, p.Depth(), err)
		}
		p.Release()
	}
}

// TestSkipToAndSeek: SkipTo steps over what is left of an element, and a
// second scan of the same document can Seek straight to a child it noted
// the first time, with the enclosing declarations in scope.
func TestSkipToAndSeek(t *testing.T) {
	const doc = `<?xml version="1.0"?><e:r xmlns:e="urn:e" xmlns:p="urn:p"><e:skip a="1"><x><y/></x>text</e:skip><!-- c --><p:want q="p:v"><p:in/></p:want></e:r>`
	p := open(t, doc, "skip")
	if err := p.SkipTo(p.Depth() - 1); err != nil || p.Depth() != 1 {
		t.Fatalf("SkipTo: depth %d, %v", p.Depth(), err)
	}
	if kind, err := p.Next(); err != nil || kind != TokenStart || p.Name() != N("urn:p", "want") {
		t.Fatalf("after SkipTo: %v %v %v", kind, p.Name(), err)
	}
	at := p.TagOffset()
	if !bytes.HasPrefix([]byte(doc)[at:], []byte("<p:want")) {
		t.Fatalf("TagOffset %d is at %q", at, doc[at:])
	}
	p.Release()

	p = AcquireTokenizer([]byte(doc))
	defer p.Release()
	if _, err := p.Next(); err != nil { // the document element, for what it declares
		t.Fatal(err)
	}
	p.Seek(at)
	if kind, err := p.Next(); err != nil || kind != TokenStart || p.Name() != N("urn:p", "want") || p.Depth() != 2 {
		t.Fatalf("after Seek: %v %v depth %d %v", kind, p.Name(), p.Depth(), err)
	}
	// A subtree cut loose from the document declares what was in scope
	// around it: QNames in its content still resolve.
	el, err := p.Element()
	if err != nil {
		t.Fatal(err)
	}
	if el.Parent() != nil || len(el.Elements()) != 1 || el.Elements()[0].Parent() != el {
		t.Fatalf("subtree: %s", Marshal(el))
	}
	v, _ := el.Attr(N("", "q"))
	if qn, err := el.ResolveQName(v); err != nil || qn != N("urn:p", "v") {
		t.Fatalf("QName %q in the cut-out subtree resolves to %v, %v", v, qn, err)
	}
	if kind, err := p.Next(); err != nil || kind != TokenEnd || p.Depth() != 0 {
		t.Fatalf("after Element: %v depth %d %v", kind, p.Depth(), err)
	}
}

// TestWriterByHandMatchesMarshal: a document written through the Writer's
// own methods is byte for byte what Marshal writes for the tree — prefixes
// numbered in Collect/Assign order, an element nothing was written into and
// a whitespace-only leaf self-closed, text escaped.
func TestWriterByHandMatchesMarshal(t *testing.T) {
	root := NewElement(N("urn:a", "root"))
	shared := NewElement(N("urn:h", "block")).SetText("h")
	shared.SetAttr(N("urn:attr", "k"), "v")
	root.NewChild(N("urn:a", "head")).AppendShared(shared)
	body := root.NewChild(N("urn:a", "body"))
	item := body.NewChild(N("urn:b", "item"))
	item.NewChild(N("urn:b", "s")).SetText(`a<b & "c"`)
	item.NewChild(N("urn:b", "blank")).SetText(" \n\t")
	item.NewChild(N("urn:b", "n")).SetText("42")
	body.NewChild(N("urn:b", "hollow"))
	root.NewChild(N("urn:a", "none"))
	if shared.Parent() != nil {
		t.Fatal("AppendShared took the element over")
	}

	w := AcquireWriter()
	w.Assign("urn:a")
	w.Collect(shared)
	w.Assign("urn:b")
	a, b := w.Prefix("urn:a"), w.Prefix("urn:b")
	w.StartRoot(a, "root")
	w.Enter()
	m := w.Open(a, "head")
	w.Tree(shared)
	w.Close(a, "head", m)
	m = w.Open(a, "body")
	mi := w.Open(b, "item")
	w.Leaf(b, "s", `a<b & "c"`)
	w.Leaf(b, "blank", " \n\t")
	mn := w.Open(b, "n")
	w.Buffer().WriteString("42")
	w.Close(b, "n", mn)
	w.Close(b, "item", mi)
	w.Close(b, "hollow", w.Open(b, "hollow"))
	w.Close(a, "body", m)
	w.Close(a, "none", w.Open(a, "none"))
	w.Close(a, "root", 0)
	if w.Prefix("urn:never") != "" || w.Prefix("") != "" {
		t.Fatal("a namespace that was never assigned has a prefix")
	}
	if got, want := w.Finish(), Marshal(root); !bytes.Equal(got, want) {
		t.Fatalf("by hand:\n%s\nMarshal:\n%s", got, want)
	}
}
