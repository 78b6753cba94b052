package xsd

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wspeer/internal/xmlutil"
)

// The shapes a slice is sized once in: nested repeated structs, a pointer
// to a slice, trees kept by `,any`, and slices as a wrapper's parts.
type soItem struct {
	Name string
	Tags []string
	N    []int32
}

type soDoc struct {
	Items []soItem
	Opt   *[]string
	Rest  []*xmlutil.Element `xml:",any"`
}

// checkSized reports the first slice in v with room past its length.
func checkSized(path string, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Ptr, reflect.Interface:
		if !v.IsNil() {
			return checkSized(path, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				if err := checkSized(path+"."+v.Type().Field(i).Name, v.Field(i)); err != nil {
					return err
				}
			}
		}
	case reflect.Slice:
		if v.Len() != v.Cap() {
			return fmt.Errorf("%s: %d items in a slice of %d", path, v.Len(), v.Cap())
		}
		if _, tree := v.Interface().([]*xmlutil.Element); !tree {
			for i := 0; i < v.Len(); i++ {
				if err := checkSized(fmt.Sprintf("%s[%d]", path, i), v.Index(i)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// backing collects the first item's address of every non-empty slice in v.
func backing(v reflect.Value, into map[uintptr]string, path string) {
	switch v.Kind() {
	case reflect.Ptr:
		if !v.IsNil() {
			backing(v.Elem(), into, path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				backing(v.Field(i), into, path+"."+v.Type().Field(i).Name)
			}
		}
	case reflect.Slice:
		if v.Len() > 0 && v.Type().Elem().Kind() != reflect.Uint8 {
			into[v.Pointer()] = path
			for i := 0; i < v.Len(); i++ {
				backing(v.Index(i), into, fmt.Sprintf("%s[%d]", path, i))
			}
		}
	}
}

// soBody has 17 items and 5 numbers (each one past a size class), the
// first item's tags interleaved with its name, an optional slice and three
// children nothing names between the items.
func soBody() string {
	var b strings.Builder
	b.WriteString(`<s:doc><s:Items><s:Tags>a</s:Tags><s:Name>first</s:Name><s:Tags>b</s:Tags><s:N>1</s:N><s:Tags>c</s:Tags></s:Items>`)
	b.WriteString(`<x:keep xmlns:x="urn:x">1</x:keep><s:Opt>o1</s:Opt>`)
	for i := 1; i < 17; i++ {
		fmt.Fprintf(&b, `<s:Items><s:Name>n%d</s:Name><s:N>%d</s:N><s:N>%d</s:N></s:Items>`, i, i, -i)
		if i == 8 {
			b.WriteString(`<x:keep xmlns:x="urn:x">2</x:keep><s:Opt>o2</s:Opt><x:keep xmlns:x="urn:x">3</x:keep>`)
		}
	}
	b.WriteString(`</s:doc><s:a>1</s:a><s:a>2</s:a><s:a>3</s:a><s:a>4</s:a><s:a>5</s:a>`)
	return b.String()
}

var soParts = []Field{{"doc", reflect.TypeOf(soDoc{})}, {"a", reflect.TypeOf([]float64(nil))}}

// decodeSoParts decodes parts from body, inside a wrapper, from the tokens
// (tree false) or from the parsed tree.
func decodeSoParts(body string, parts []Field, tree bool) ([]reflect.Value, int, error) {
	doc := []byte(`<s:op xmlns:s="urn:svc" xmlns:o="urn:other">` + body + `</s:op>`)
	dst := make([]reflect.Value, len(parts))
	for i, p := range parts {
		dst[i] = reflect.New(p.Type).Elem()
	}
	if tree {
		root, err := xmlutil.ParseBytes(doc)
		if err != nil {
			return nil, -1, err
		}
		i, err := DecodeElement(root, fuzzNS, parts, dst)
		return dst, i, err
	}
	tok := xmlutil.AcquireTokenizer(doc)
	defer tok.Release()
	if _, err := tok.Next(); err != nil {
		return nil, -1, err
	}
	i, err := DecodeTokens(tok, fuzzNS, parts, dst)
	return dst, i, err
}

var readers = []struct {
	name string
	tree bool
}{{"tokens", false}, {"tree", true}}

// TestDecodedSlicesSizedOnce: on both readers every slice decoded — nested
// in repeated structs, behind a pointer, of trees, as a part — has exactly
// the room its items take, and items keep document order however their
// elements interleave with others.
func TestDecodedSlicesSizedOnce(t *testing.T) {
	for _, rd := range readers {
		got, _, err := decodeSoParts(soBody(), soParts, rd.tree)
		if err != nil {
			t.Fatalf("%s: %v", rd.name, err)
		}
		for i, v := range got {
			if err := checkSized(soParts[i].Name, v); err != nil {
				t.Errorf("%s: %v", rd.name, err)
			}
		}
		doc := got[0].Interface().(soDoc)
		if len(doc.Items) != 17 || !reflect.DeepEqual(doc.Items[0], soItem{Name: "first", Tags: []string{"a", "b", "c"}, N: []int32{1}}) ||
			!reflect.DeepEqual(doc.Items[16].N, []int32{16, -16}) || doc.Items[5].Tags == nil || len(doc.Items[5].Tags) != 0 {
			t.Errorf("%s: items %+v", rd.name, doc.Items)
		}
		if doc.Opt == nil || !reflect.DeepEqual(*doc.Opt, []string{"o1", "o2"}) || len(doc.Rest) != 3 ||
			doc.Rest[0].Text() != "1" || doc.Rest[2].Text() != "3" {
			t.Errorf("%s: opt %v, rest %d", rd.name, doc.Opt, len(doc.Rest))
		}
		if a := got[1].Interface().([]float64); !reflect.DeepEqual(a, []float64{1, 2, 3, 4, 5}) {
			t.Errorf("%s: a = %v", rd.name, a)
		}
	}
}

// TestDecodesShareNoBacking: two decodes of one message hand out slices of
// their own — nothing of the pooled scratch they were gathered in — so
// changing one leaves the other as it was.
func TestDecodesShareNoBacking(t *testing.T) {
	for _, rd := range readers {
		first, _, err1 := decodeSoParts(soBody(), soParts, rd.tree)
		second, _, err2 := decodeSoParts(soBody(), soParts, rd.tree)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v, %v", rd.name, err1, err2)
		}
		seen := map[uintptr]string{}
		for i := range first {
			backing(first[i], seen, "first")
		}
		again := map[uintptr]string{}
		for i := range second {
			backing(second[i], again, "second")
		}
		for p, path := range again {
			if other, ok := seen[p]; ok {
				t.Errorf("%s: %s shares its items with %s", rd.name, path, other)
			}
		}
		want := second[0].Interface().(soDoc).Items[0].Name
		doc := first[0].Interface().(soDoc)
		doc.Items[0].Name, doc.Items[0].Tags[0], (*doc.Opt)[0] = "changed", "changed", "changed"
		first[1].Index(0).SetFloat(-1)
		if d := second[0].Interface().(soDoc); d.Items[0].Name != want || d.Items[0].Tags[0] != "a" || (*d.Opt)[0] != "o1" ||
			second[1].Index(0).Float() != 1 {
			t.Errorf("%s: changing one decode changed the other: %+v", rd.name, d.Items[0])
		}
	}
}

// TestTentativeItemsDropped: items taken from local-only matches are
// dropped at the first exact match, at the top and nested, and the slice
// is sized for what stands.
func TestTentativeItemsDropped(t *testing.T) {
	body := `<o:a>9</o:a><a>8</a><s:a>1</s:a><o:a>7</o:a><s:a>2</s:a>` +
		`<s:doc><o:Items><o:Name>l</o:Name></o:Items><Items/><s:Items><s:Tags>e1</s:Tags><o:Tags>l2</o:Tags></s:Items>` +
		`<s:Items><o:Tags>l3</o:Tags><o:Tags>l4</o:Tags><s:Tags>e</s:Tags></s:Items></s:doc>`
	for _, rd := range readers {
		got, _, err := decodeSoParts(body, soParts, rd.tree)
		if err != nil {
			t.Fatalf("%s: %v", rd.name, err)
		}
		if a := got[1].Interface().([]float64); !reflect.DeepEqual(a, []float64{1, 2}) || cap(a) != 2 {
			t.Errorf("%s: a = %v (cap %d)", rd.name, a, cap(a))
		}
		items := got[0].Interface().(soDoc).Items
		if len(items) != 2 || !reflect.DeepEqual(items[0].Tags, []string{"e1"}) || !reflect.DeepEqual(items[1].Tags, []string{"e"}) {
			t.Errorf("%s: items %+v", rd.name, items)
		}
		if err := checkSized("doc", got[0]); err != nil {
			t.Errorf("%s: %v", rd.name, err)
		}
	}
}

// TestFailedDecodeLeavesNoItems: a decode that fails part-way through a
// slice — at the top, or in an item's own slice — names the field and the
// item, and the next decode of the same types gathers from nothing.
func TestFailedDecodeLeavesNoItems(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{`<s:a>1</s:a><s:a>2</s:a><s:a>x</s:a>`, "element 2 of a"},
		{`<s:doc><s:Items><s:N>1</s:N></s:Items><s:Items><s:Tags>t</s:Tags><s:N>2</s:N><s:N>y</s:N></s:Items></s:doc>`,
			"field soDoc.Items: xsd: element 1 of Items: xsd: field soItem.N: xsd: element 1 of N"},
	} {
		for _, rd := range readers {
			if _, i, err := decodeSoParts(tc.body, soParts, rd.tree); err == nil || i < 0 || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: part %d, %v; want %q", rd.name, i, err, tc.want)
			}
			got, _, err := decodeSoParts(`<s:a>5</s:a><s:doc><s:Items><s:N>6</s:N></s:Items></s:doc>`, soParts, rd.tree)
			if err != nil {
				t.Fatalf("%s: %v", rd.name, err)
			}
			items := got[0].Interface().(soDoc).Items
			if a := got[1].Interface().([]float64); !reflect.DeepEqual(a, []float64{5}) || len(items) != 1 ||
				!reflect.DeepEqual(items[0], soItem{Tags: []string{}, N: []int32{6}}) {
				t.Errorf("%s: after a failed decode: a %v, items %+v", rd.name, a, items)
			}
		}
	}
}

// TestConcurrentDecodes: eight goroutines decoding at once draw on the same
// pools; each gets the value a decode alone gets. Run under -race.
func TestConcurrentDecodes(t *testing.T) {
	for _, rd := range readers {
		want, _, err := decodeSoParts(soBody(), soParts, rd.tree)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					got, _, err := decodeSoParts(soBody(), soParts, rd.tree)
					if err != nil {
						t.Error(err)
						return
					}
					a, b := got[0].Interface().(soDoc), want[0].Interface().(soDoc)
					if a.Rest, b.Rest = nil, nil; !reflect.DeepEqual(a, b) || !reflect.DeepEqual(got[1].Interface(), want[1].Interface()) {
						t.Errorf("%s: a concurrent decode differs", rd.name)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
