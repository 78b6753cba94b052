package xmlutil

import (
	"sync"
	"testing"
)

// TestLeafTextForms: wherever an element's character data is held — inline
// as the sole child, or in the child list next to other nodes — the tree
// reads, clones, compares and marshals as it did when every text run was a
// node of its own. The expected bytes were produced by that implementation.
func TestLeafTextForms(t *testing.T) {
	cases := []struct {
		name, doc, compact, text string
	}{
		{"leaf", `<a>text</a>`, `<a>text</a>`, "text"},
		{"empty", `<a></a>`, `<a/>`, ""},
		{"self-closed", `<a/>`, `<a/>`, ""},
		{"whitespace only", `<a>   </a>`, `<a/>`, "   "},
		{"padded", `<a>  pad  </a>`, `<a>  pad  </a>`, "  pad  "},
		{"whitespace then child", "<a>\n  <b>x</b>\n</a>", `<a><b>x</b></a>`, "\n  \n"},
		{"child then text", `<a><b/>tail</a>`, `<a><b/>tail</a>`, "tail"},
		{"text then child", `<a>head<b/></a>`, `<a>head<b/></a>`, "head"},
		{"mixed", `<a>one<b>two</b>three</a>`, `<a>one<b>two</b>three</a>`, "onethree"},
		{"CDATA only", `<a><![CDATA[<raw & data>]]></a>`, `<a>&lt;raw &amp; data&gt;</a>`, "<raw & data>"},
		{"empty CDATA", `<a><![CDATA[]]></a>`, `<a/>`, ""},
		{"text CDATA text", `<a>x<![CDATA[y]]>z</a>`, `<a>xyz</a>`, "xyz"},
		{"text comment text", `<a>x<!-- c -->y</a>`, `<a>xy</a>`, "xy"},
		{"entities", `<a>1 &lt; 2 &amp;&amp; &#65;&#x42; &quot;q&quot;</a>`, `<a>1 &lt; 2 &amp;&amp; AB &#34;q&#34;</a>`, `1 < 2 && AB "q"`},
		{"multi-byte", `<a>é—𝄞</a>`, `<a>é—𝄞</a>`, "é—𝄞"},
		{"line ends", "<a>l1\r\nl2\rl3</a>", `<a>l1&#xA;l2&#xA;l3</a>`, "l1\nl2\nl3"},
		{"namespaced leaves", `<p:a xmlns:p="urn:p" k="v &amp; w"><p:b>t</p:b><c xmlns="urn:d">u</c></p:a>`,
			`<ns1:a xmlns:ns2="urn:d" xmlns:ns1="urn:p" k="v &amp; w"><ns1:b>t</ns1:b><ns2:c>u</ns2:c></ns1:a>`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			el, err := ParseString(tc.doc)
			if err != nil {
				t.Fatal(err)
			}
			for form, tree := range map[string]*Element{"parsed": el, "clone": el.Clone()} {
				if got := string(Marshal(tree)); got != tc.compact {
					t.Errorf("%s: Marshal = %q, want %q", form, got, tc.compact)
				}
				if got := tree.Text(); got != tc.text {
					t.Errorf("%s: Text = %q, want %q", form, got, tc.text)
				}
				if !Equal(tree, el) || !Equal(el, tree) {
					t.Errorf("%s: not Equal to the parsed tree", form)
				}
			}
			if el.text != "" && len(el.children) != 0 {
				t.Errorf("inline text %q next to %d child nodes", el.text, len(el.children))
			}
			if again, err := ParseBytes(Marshal(el)); err != nil || string(Marshal(again)) != tc.compact {
				t.Errorf("output does not reparse to itself (err %v)", err)
			}
		})
	}
}

// TestEqualAcrossTextForms: the same character data compares equal whether
// it sits inline or in the child list, and different data does not.
func TestEqualAcrossTextForms(t *testing.T) {
	inline := NewElement(N("", "a")).SetText("x")
	general := NewElement(N("", "a"))
	general.AddText("x")
	b := general.NewChild(N("", "b"))
	general.RemoveChild(b)
	padded, err := ParseString("<a><!-- c -->x<b/></a>")
	if err != nil {
		t.Fatal(err)
	}
	padded.RemoveChild(padded.Elements()[0])
	for _, other := range []*Element{general, padded} {
		if !Equal(inline, other) || !Equal(other, inline) {
			t.Errorf("%q and %q should be equal", Marshal(inline), Marshal(other))
		}
	}
	if Equal(inline, NewElement(N("", "a")).SetText("y")) {
		t.Error("different leaf text compares equal")
	}
	if Equal(inline, NewElement(N("", "a"))) || Equal(NewElement(N("", "a")), inline) {
		t.Error("a leaf compares equal to an empty element")
	}
	if !Equal(NewElement(N("", "a")).SetText(" \n"), NewElement(N("", "a"))) {
		t.Error("whitespace-only text must not affect equality")
	}
}

// TestTextAndChildrenKeepDocumentOrder: adding a second node to an element
// that held only text keeps the text where it was, whichever way round the
// two arrive and whichever call adds them.
func TestTextAndChildrenKeepDocumentOrder(t *testing.T) {
	b := func() *Element { return NewElement(N("", "b")) }

	e := NewElement(N("", "a")).SetText("t")
	e.AddChild(b())
	if got := string(Marshal(e)); got != `<a>t<b/></a>` {
		t.Errorf("SetText then AddChild = %s", got)
	}

	e = NewElement(N("", "a"))
	e.AddChild(b())
	e.AddText("t")
	if got := string(Marshal(e)); got != `<a><b/>t</a>` {
		t.Errorf("AddChild then AddText = %s", got)
	}

	e = NewElement(N("", "a"))
	e.AddText("t").AddText("").AddText("u").NewChild(N("", "b"))
	e.AddText("v")
	if got := string(Marshal(e)); got != `<a>tu<b/>v</a>` {
		t.Errorf("AddText×2, NewChild, AddText = %s", got)
	}
	if got := e.Text(); got != "tuv" {
		t.Errorf("Text = %q", got)
	}

	// SetText replaces everything, children included, and detaches them.
	kid := e.Elements()[0]
	e.SetText("only")
	if kid.Parent() != nil || len(e.Elements()) != 0 || e.Text() != "only" {
		t.Errorf("SetText left %s (kid parent %v)", Marshal(e), kid.Parent())
	}
	e.SetText("")
	if got := string(Marshal(e)); got != `<a/>` {
		t.Errorf("SetText(\"\") = %s", got)
	}

	// Removing the only other node makes the text the sole child again.
	e = NewElement(N("", "a")).SetText("t")
	kid = e.AddChild(b())
	if !e.RemoveChild(kid) || e.text != "t" || len(e.children) != 0 {
		t.Errorf("after RemoveChild: text %q, %d child nodes", e.text, len(e.children))
	}

	// DetachChildren empties both forms.
	e = NewElement(N("", "a")).SetText("t")
	e.DetachChildren()
	if e.Text() != "" {
		t.Errorf("DetachChildren left text %q", e.Text())
	}
}

// TestLeafTextAllocs pins what holding a sole text child inline buys:
// reading it is free, building a leaf is the Element alone, and a parsed
// and marshalled message no longer pays a child slice and a boxed string
// per leaf.
func TestLeafTextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	doc := []byte(echoEnvelope)
	env, err := ParseBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	leaf := env.Find(N("", "msg"))
	if got := testing.AllocsPerRun(200, func() { _ = leaf.Text() }); got != 0 {
		t.Errorf("Text() on a leaf: %v allocations, want 0", got)
	}
	var sink *Element
	if got := testing.AllocsPerRun(200, func() { sink = NewElement(N("", "x")).SetText("v") }); got != 1 {
		t.Errorf("NewElement+SetText: %v allocations, want 1", got)
	}
	_ = sink
	// With a node per text run, and every short run interned, this
	// envelope (two leaves) parsed in 16 allocations. A leaf no longer
	// costs a child slice and a boxed string (-2 each), but its text, not
	// being interned, is now a string of its own (+1 each).
	const before, leaves = 16, 2
	if got := testing.AllocsPerRun(200, func() { ParseBytes(doc) }); got > before-leaves {
		t.Errorf("parsing the echo envelope: %v allocations, want at most %d", got, before-leaves)
	}
	if got := testing.AllocsPerRun(200, func() { Marshal(env) }); got > 6 {
		t.Errorf("marshalling the echo envelope: %v allocations, want at most 6", got)
	}
}

// TestPayloadTextIsNotInterned: names, attribute values and indentation
// recur from document to document and are interned; payload text does not
// and must not fill the pooled parser's map.
func TestPayloadTextIsNotInterned(t *testing.T) {
	p := &Tokenizer{intern: make(map[string]string)}
	p.data = []byte("<r k=\"attr\">\n  <v>payload-1</v>\n  <v>payload-2</v>\n</r>")
	if _, err := p.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Element(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"r", "k", "attr", "v", "\n  ", "\n"} {
		if _, ok := p.intern[s]; !ok {
			t.Errorf("%q was not interned", s)
		}
	}
	for _, s := range []string{"payload-1", "payload-2"} {
		if _, ok := p.intern[s]; ok {
			t.Errorf("payload text %q was interned", s)
		}
	}
}

// TestSharedTreeConcurrentReads: a parsed tree is cached (WSDL, adverts)
// and read from many goroutines, so no read may rewrite how an element
// holds its text. Run under -race.
func TestSharedTreeConcurrentReads(t *testing.T) {
	tree, err := ParseString("<r xmlns=\"urn:r\">\n  <leaf>value</leaf>\n  <mixed>a<k/>b</mixed>\n  <ws>  </ws>\n</r>")
	if err != nil {
		t.Fatal(err)
	}
	twin := tree.Clone()
	want := string(Marshal(tree))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := tree.Find(N("urn:r", "leaf")).Text(); got != "value" {
					t.Errorf("leaf text = %q", got)
					return
				}
				if got := tree.Find(N("urn:r", "mixed")).Text(); got != "ab" {
					t.Errorf("mixed text = %q", got)
					return
				}
				if got := string(Marshal(tree)); got != want {
					t.Errorf("marshal = %s", got)
					return
				}
				if !Equal(tree, twin) || !Equal(tree.Clone(), tree) {
					t.Error("tree no longer equal to its clone")
					return
				}
			}
		}()
	}
	wg.Wait()
}
