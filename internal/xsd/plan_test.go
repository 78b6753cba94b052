package xsd

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"wspeer/internal/xmlutil"
)

// TestPlanCacheConcurrentFirstTouch hammers the compiled-codec caches
// from many goroutines with the same fresh types, under the race
// detector: compilation must happen observably once and every caller
// must get a working codec (the placeholder pattern must not deadlock or
// return a half-built plan).
func TestPlanCacheConcurrentFirstTouch(t *testing.T) {
	type leaf struct {
		S string
		N int64
	}
	type node struct {
		L    leaf
		Tags []string
		Next *node // self-referential: compiles through the placeholder
	}
	in := node{
		L:    leaf{S: "hello", N: 42},
		Tags: []string{"a", "b"},
		Next: &node{L: leaf{S: "inner", N: 7}},
	}
	const ns = "urn:t"
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parent := xmlutil.NewElement(xmlutil.N(ns, "wrap"))
			if err := AppendValue(parent, ns, "v", reflect.ValueOf(in)); err != nil {
				t.Error(err)
				return
			}
			got, err := ExtractValue(parent, ns, "v", reflect.TypeOf(in))
			if err != nil {
				t.Error(err)
				return
			}
			out := got.Interface().(node)
			if out.L.S != "hello" || out.Next == nil || out.Next.L.N != 7 || len(out.Tags) != 2 {
				t.Errorf("round trip mangled: %+v", out)
			}
		}()
	}
	wg.Wait()
}

// TestPlanCacheDistinctTypesConcurrent compiles many distinct types at
// once so first-touch compilation itself races against other builds.
func TestPlanCacheDistinctTypesConcurrent(t *testing.T) {
	types := []interface{}{
		struct{ A string }{"x"},
		struct{ B int32 }{5},
		struct{ C []bool }{[]bool{true}},
		struct{ D *string }{},
		struct {
			E float64
			F struct{ G string }
		}{},
	}
	const ns = "urn:t"
	var wg sync.WaitGroup
	for _, v := range types {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(v interface{}) {
				defer wg.Done()
				parent := xmlutil.NewElement(xmlutil.N(ns, "wrap"))
				if err := AppendValue(parent, ns, "v", reflect.ValueOf(v)); err != nil {
					t.Error(err)
					return
				}
				if _, err := ExtractValue(parent, ns, "v", reflect.TypeOf(v)); err != nil {
					t.Error(err)
				}
			}(v)
		}
	}
	wg.Wait()
}

// TestAttributes: a `,attr` field reads its attribute from either reader —
// a string as it is, a number trimmed, a QName resolved in the element's
// scope, an absent one left zero; written, they read back; a QName with an
// undeclared prefix is an error; and a service type may not hold one.
func TestAttributes(t *testing.T) {
	doc := []byte(`<s:op xmlns:s="urn:svc" xmlns:o="urn:other"><s:r id=" a " n=" 7 " ref="o:x" o:q="qq">` +
		`<s:Inner xmlns="urn:dflt" ref="plain"/></s:r></s:op>`)
	root, err := xmlutil.ParseBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := fuzzAttrs{ID: " a ", N: 7, Ref: xmlutil.N("urn:other", "x"), Q: "qq", Inner: &fuzzAttrs{Ref: xmlutil.N("urn:dflt", "plain")}}
	stream, tree, streamErr, treeErr := decodeBothWays(t, doc, root, Field{"r", reflect.TypeOf(fuzzAttrs{})})
	if streamErr != nil || treeErr != nil || !reflect.DeepEqual(stream.Interface(), want) || !reflect.DeepEqual(tree.Interface(), want) {
		t.Fatalf("tokens %+v %v, tree %+v %v", stream, streamErr, tree, treeErr)
	}

	// Written as a document and as a tree, they read back.
	written, err := Marshal(tns, "r", reflect.ValueOf(want))
	if err != nil {
		t.Fatal(err)
	}
	tk := xmlutil.AcquireTokenizer(written)
	var back fuzzAttrs
	if _, err := tk.Next(); err != nil {
		t.Fatal(err)
	}
	err = DecodeValue(tk, tns, reflect.ValueOf(&back).Elem())
	tk.Release()
	if err != nil || !reflect.DeepEqual(back, want) {
		t.Errorf("%s read back as %+v, %v", written, back, err)
	}
	parent := xmlutil.NewElement(xmlutil.N(tns, "op"))
	if err := AppendValue(parent, tns, "r", reflect.ValueOf(want)); err != nil {
		t.Fatal(err)
	}
	if v, err := ExtractValue(parent, tns, "r", reflect.TypeOf(want)); err != nil || !reflect.DeepEqual(v.Interface(), want) {
		t.Errorf("the tree read back as %+v, %v", v, err)
	}

	bad := []byte(`<s:op xmlns:s="urn:svc"><s:r ref="nope:x"/></s:op>`)
	root, err = xmlutil.ParseBytes(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, streamErr, treeErr := decodeBothWays(t, bad, root, Field{"r", reflect.TypeOf(fuzzAttrs{})}); streamErr == nil || treeErr == nil ||
		!strings.Contains(streamErr.Error(), "undeclared prefix") || !strings.Contains(streamErr.Error(), "fuzzAttrs.Ref") {
		t.Errorf("an undeclared prefix: %v from tokens, %v from the tree", streamErr, treeErr)
	}

	err = NewSchema(tns).AddElement("op", []Field{{"r", reflect.TypeOf(fuzzAttrs{})}})
	if err == nil || !strings.Contains(err.Error(), "field ID") || !strings.Contains(err.Error(), ",attr") {
		t.Errorf("a service type with an attribute: %v", err)
	}
}

type textWithAttr struct {
	Name  string `xml:"name,attr"`
	Value int32  `xml:",chardata"`
}

type textAndElements struct {
	Text string `xml:",chardata"`
	E    string
}

type onlyText struct {
	V string `xml:",chardata"`
}

type withRaws struct {
	A    string
	Rest []xmlutil.Raw `xml:",any"`
}

// TestCharDataAndRaws: a `,chardata` field is its element's text, read
// from either reader and written after the attributes; a struct that holds
// elements beside it is refused both ways, and a schema refuses one in a
// service type; a `,any` []xmlutil.Raw
// field holds the children nothing else names as their bytes, written
// back as they were, and is read from a message's bytes only.
func TestCharDataAndRaws(t *testing.T) {
	doc := []byte(`<s:op xmlns:s="` + fuzzNS + `"><s:r name="k"> 42 </s:r></s:op>`)
	root, err := xmlutil.ParseBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := textWithAttr{"k", 42}
	stream, tree, streamErr, treeErr := decodeBothWays(t, doc, root, Field{"r", reflect.TypeOf(want)})
	if streamErr != nil || treeErr != nil || stream.Interface() != want || tree.Interface() != want {
		t.Fatalf("tokens %+v %v, tree %+v %v", stream, streamErr, tree, treeErr)
	}
	if b, err := Marshal(fuzzNS, "r", reflect.ValueOf(want)); err != nil || string(b) != `<ns1:r xmlns:ns1="`+fuzzNS+`" name="k">42</ns1:r>` {
		t.Errorf("written as %s, %v", b, err)
	}
	if _, err := Marshal(fuzzNS, "r", reflect.ValueOf(textAndElements{})); err == nil {
		t.Error("text beside elements written")
	}
	if _, _, streamErr, treeErr := decodeBothWays(t, doc, root, Field{"r", reflect.TypeOf(textAndElements{})}); streamErr == nil || treeErr == nil {
		t.Error("text beside elements read")
	}
	if err := NewSchema(tns).AddElement("op", []Field{{"r", reflect.TypeOf(onlyText{})}}); err == nil || !strings.Contains(err.Error(), ",chardata") {
		t.Errorf("a service type with text: %v", err)
	}

	doc = []byte(`<s:op xmlns:s="` + fuzzNS + `" xmlns:o="urn:o"><s:w><s:A>a</s:A><o:x k="1"><o:y>&amp;</o:y></o:x><s:B/></s:w></s:op>`)
	if root, err = xmlutil.ParseBytes(doc); err != nil {
		t.Fatal(err)
	}
	stream, _, streamErr, treeErr = decodeBothWays(t, doc, root, Field{"w", reflect.TypeOf(withRaws{})})
	got := stream.Interface().(withRaws)
	if streamErr != nil || got.A != "a" || len(got.Rest) != 2 || got.Rest[0].Name != xmlutil.N("urn:o", "x") || got.Rest[1].Name != xmlutil.N(fuzzNS, "B") {
		t.Fatalf("read %+v, %v", got, streamErr)
	}
	if treeErr == nil || !strings.Contains(treeErr.Error(), "read from a message's bytes only") {
		t.Errorf("from a tree: %v", treeErr)
	}
	want2 := `<ns1:w xmlns:ns2="urn:o" xmlns:ns1="` + fuzzNS + `"><ns1:A>a</ns1:A><ns2:x k="1"><ns2:y>&amp;</ns2:y></ns2:x><ns1:B/></ns1:w>`
	if b, err := Marshal(fuzzNS, "w", stream); err != nil || string(b) != want2 {
		t.Errorf("written back as %s, %v", b, err)
	}
}
