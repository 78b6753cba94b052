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
// scope, an absent one left zero; a QName with an undeclared prefix is an
// error; a struct holding one is refused on encode, and a service type may
// not hold one.
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

	for _, v := range []interface{}{want, []fuzzAttrs{{}}, struct{ R *fuzzAttrs }{&want}} {
		if err := NewWrapper(xmlutil.N(tns, "op")).Add("r", reflect.ValueOf(v)); err == nil || !strings.Contains(err.Error(), "fuzzAttrs.ID: xsd: a ,attr field is decoded only") {
			t.Errorf("encoding %T: %v", v, err)
		}
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
