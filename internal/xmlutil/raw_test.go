package xmlutil

import (
	"bytes"
	"testing"
)

// rawDocs hold what a Raw must carry over: prefixes declared outside it and
// on it (twice, one shadowing the other), a default namespace, attributes
// in namespaces and in xml:, mixed content, CDATA, comments, entities,
// whitespace-only text and empty elements.
var rawDocs = []string{
	`<a:root xmlns:a="urn:a" xmlns:b="urn:b"><a:x><b:y k="v" b:q="1">t</b:y><a:z/></a:x></a:root>`,
	`<root xmlns="urn:d" xmlns:o="urn:o"><item xmlns:p="urn:p" xmlns:p="urn:p2" p:k="&lt;&amp;"><p:i> </p:i>` +
		`mixed <o:e/> text<![CDATA[ <raw> ]]><!-- c --></item><o:e xml:lang="en">&#x1F600;&#13;</o:e></root>`,
	`<s:Envelope xmlns:s="urn:s" xmlns:n="urn:n"><s:Header><n:P><n:Id>pipe-1</n:Id><n:Name/><n:Peer>
		peer </n:Peer></n:P></s:Header></s:Envelope>`,
	`<w:d xmlns:w="urn:w"><w:types><x:schema xmlns:x="urn:x" xmlns:tns="urn:t"><x:element name="e" type="tns:T"/>` +
		`</x:schema></w:types></w:d>`,
}

// TestRawIsItsTree: every element of every document, read as a Raw, names
// itself, builds the tree Fragment builds, and gives a writer the prefixes
// and bytes that tree gives it, without one.
func TestRawIsItsTree(t *testing.T) {
	for _, doc := range rawDocs {
		for depth := 1; ; depth++ {
			raws, trees := elementsAt(t, doc, depth)
			if len(raws) == 0 {
				break
			}
			for i, r := range raws {
				if r.Name != trees[i].Name {
					t.Errorf("%s: Raw named %v, tree %v", trees[i].Name, r.Name, trees[i].Name)
				}
				if el, err := r.Element(); err != nil || !Equal(el, trees[i]) || !bytes.Equal(Marshal(el), Marshal(trees[i])) {
					t.Errorf("%v: Raw builds %s, %v; Fragment %s", r.Name, Marshal(el), err, Marshal(trees[i]))
				}
				fromTree := writeUnder(func(w *Writer) { w.Collect(trees[i]) }, func(w *Writer) { w.Tree(trees[i]) })
				fromRaw := writeUnder(func(w *Writer) { w.CollectRaw(r) }, func(w *Writer) { w.Raw(r) })
				if fromRaw != fromTree {
					t.Errorf("%v written from its bytes:\n%s\nfrom its tree:\n%s", r.Name, fromRaw, fromTree)
				}
			}
		}
	}
}

// TestRawDetachAndWrite: detached Raws hold no view of what they were read
// from, and one written by hand reads back and is written again as its
// tree is.
func TestRawDetachAndWrite(t *testing.T) {
	doc := []byte(rawDocs[0])
	raws, _ := elementsAt(t, string(doc), 3)
	Detach(raws)
	copy(doc, bytes.Repeat([]byte("#"), len(doc)))
	if el, err := raws[0].Element(); err != nil || el.Name != N("urn:b", "y") || el.Text() != "t" {
		t.Fatalf("a detached Raw reads %v, %v", el, err)
	}

	w := AcquireWriter()
	w.Assign("urn:n")
	mark := w.Open(w.Prefix("urn:n"), "P")
	w.Leaf(w.Prefix("urn:n"), "Id", "a&b")
	w.Close(w.Prefix("urn:n"), "P", mark)
	r := w.FinishRaw(N("urn:n", "P"))
	el, err := r.Element()
	if err != nil || el.Child(N("urn:n", "Id")).Text() != "a&b" || r.Attributed() {
		t.Fatalf("a written Raw reads %v, %v", el, err)
	}
	// Written again, as it is where its namespace keeps its prefix and
	// from its tokens where it does not, it is its tree.
	for _, first := range []string{"urn:n", "urn:other"} {
		collect := func(w *Writer) { w.Assign(first) }
		fromTree := writeUnder(func(w *Writer) { collect(w); w.Collect(el) }, func(w *Writer) { w.Tree(el) })
		fromRaw := writeUnder(func(w *Writer) { collect(w); w.CollectRaw(r) }, func(w *Writer) { w.Raw(r) })
		if fromRaw != fromTree {
			t.Errorf("after %s written from its bytes:\n%s\nfrom its tree:\n%s", first, fromRaw, fromTree)
		}
	}
}

// elementsAt reads every element depth levels deep in doc as a Raw, and as
// the tree Fragment builds from a second scan.
func elementsAt(t *testing.T, doc string, depth int) (raws []Raw, trees []*Element) {
	t.Helper()
	for _, tree := range []bool{false, true} {
		tk := AcquireTokenizer([]byte(doc))
		for kind, err := tk.Next(); kind != TokenEOF; kind, err = tk.Next() {
			if err != nil {
				t.Fatal(err)
			}
			if kind != TokenStart || tk.Depth() != depth {
				continue
			}
			if tree {
				el, err := tk.Fragment()
				if err != nil {
					t.Fatal(err)
				}
				trees = append(trees, el)
			} else {
				r, err := tk.Raw()
				if err != nil {
					t.Fatal(err)
				}
				raws = append(raws, r)
			}
		}
		tk.Release()
	}
	return raws, trees
}

// writeUnder writes a document whose root, in a namespace with a prefix of
// its own, holds what write writes, after collect has given the writer its
// prefixes.
func writeUnder(collect, write func(*Writer)) string {
	const root = "http://schemas.xmlsoap.org/soap/envelope/"
	w := AcquireWriter()
	w.Assign(root)
	collect(w)
	w.StartRoot(w.Prefix(root), "root")
	mark := w.Enter()
	write(w)
	w.Close(w.Prefix(root), "root", mark)
	return string(w.Finish())
}
