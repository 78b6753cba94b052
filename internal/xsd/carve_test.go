package xsd

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wspeer/internal/xmlutil"
)

// The strings a decode sets are carved from shared chunks once it has made
// enough of them (xmlutil.Tokenizer.Carve): these tests hold each carved
// string to the value it was decoded as, whatever happens afterwards to the
// message, the scanner or the other strings of its chunk.

var recsPart = []Field{{"msg", reflect.TypeOf([]fuzzRec(nil))}}

// recordsDoc is n records as a wrapper holds them, and what they decode to.
// Every record's name mixes an entity, character references and a CDATA
// section into text of a length that varies from record to record, so
// escaped text lands at the start, the middle and the end of chunks; every
// 50th name is longer than a chunk ever carves.
func recordsDoc(n int, tag string) ([]byte, []fuzzRec) {
	var b strings.Builder
	want := make([]fuzzRec, n)
	b.WriteString(`<s:op xmlns:s="urn:svc">`)
	for i := range want {
		pad := strings.Repeat(tag, i%41)
		if i%50 == 7 {
			pad = strings.Repeat(tag, 300)
		}
		want[i] = fuzzRec{
			ID:   int64(i),
			Name: fmt.Sprintf("%s%d & AA <c>&amp;\n %s", tag, i, pad),
			Tags: []string{tag + "-x", fmt.Sprintf("%s\r\n%d", pad, i)},
		}
		fmt.Fprintf(&b, `<s:msg><s:ID>%d</s:ID><s:Name>%s%d &amp; &#x41;&#65; <![CDATA[<c>&amp;]]>`+"\r\n"+` %s</s:Name>`, i, tag, i, pad)
		fmt.Fprintf(&b, `<s:Tags>%s-x</s:Tags><s:Tags>%s&#xD;&#10;%d</s:Tags></s:msg>`, tag, pad, i)
	}
	b.WriteString(`</s:op>`)
	return []byte(b.String()), want
}

// decodeRecs decodes the records of doc from its tokens, on a pooled
// scanner it releases.
func decodeRecs(doc []byte) ([]fuzzRec, error) {
	tok := xmlutil.AcquireTokenizer(doc)
	defer tok.Release()
	if _, err := tok.Next(); err != nil {
		return nil, err
	}
	var got []fuzzRec
	_, err := DecodeTokens(tok, fuzzNS, recsPart, []reflect.Value{reflect.ValueOf(&got).Elem()})
	return got, err
}

// TestCarvedStringsOutliveTheirMessage: what a decode set keeps its value
// after the scanner is released and decodes another message, and after the
// message's bytes are overwritten.
func TestCarvedStringsOutliveTheirMessage(t *testing.T) {
	doc, want := recordsDoc(256, "a")
	got, err := decodeRecs(doc)
	if err != nil {
		t.Fatal(err)
	}
	other, otherWant := recordsDoc(256, "b")
	if again, err := decodeRecs(other); err != nil || !reflect.DeepEqual(again, otherWant) {
		t.Fatalf("the second message decoded to %d records, %v", len(again), err)
	}
	for _, b := range [][]byte{doc, other} {
		for i := range b {
			b[i] = '#'
		}
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("record %d: %+v, want %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
}

// TestEscapedTextAcrossChunks: text that comes decoded — entities,
// character references, CDATA, line ends — reads the same from the tokens,
// where it is carved, as from the tree, where it is not, for bodies whose
// string text starts below, at and past a chunk's length.
func TestEscapedTextAcrossChunks(t *testing.T) {
	for _, n := range []int{1, 8, 9, 16, 40, 256} {
		doc, want := recordsDoc(n, "é")
		root, err := xmlutil.ParseBytes(doc)
		if err != nil {
			t.Fatal(err)
		}
		stream, tree, streamErr, treeErr := decodeBothWays(t, doc, root, recsPart[0])
		if streamErr != nil || treeErr != nil {
			t.Fatalf("%d records: %v from tokens, %v from the tree", n, streamErr, treeErr)
		}
		if !reflect.DeepEqual(stream.Interface(), want) || !reflect.DeepEqual(tree.Interface(), want) {
			t.Fatalf("%d records: tokens and tree decode differently from what was written", n)
		}
	}
}

// TestConcurrentCarving: decodes at once, on scanners of their own, share
// nothing through their chunks.
func TestConcurrentCarving(t *testing.T) {
	var wg sync.WaitGroup
	for _, tag := range []string{"p", "q"} {
		doc, want := recordsDoc(256, tag)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if got, err := decodeRecs(doc); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%s: pass %d decoded differently, %v", tag, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSmallDecodeStringAllocs: a decode that makes less than 512 bytes of
// string text allocates each string alone, one allocation apiece; one that
// makes more carves the rest from chunks.
func TestSmallDecodeStringAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	type eight struct{ A, B, C, D, E, F, G, H string }
	fields := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	body := func(size int) []byte {
		var b strings.Builder
		b.WriteString(`<s:op xmlns:s="urn:svc"><s:v>`)
		for _, f := range fields {
			fmt.Fprintf(&b, `<s:%s>%s</s:%s>`, f, strings.Repeat(f, size), f)
		}
		b.WriteString(`</s:v></s:op>`)
		return []byte(b.String())
	}
	var v eight
	part, dst := []Field{{"v", reflect.TypeOf(v)}}, []reflect.Value{reflect.ValueOf(&v).Elem()}
	decode := func(doc []byte) func() {
		return func() {
			tok := xmlutil.AcquireTokenizer(doc)
			defer tok.Release()
			if _, err := tok.Next(); err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeTokens(tok, fuzzNS, part, dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	small := body(63) // 8 × 63 = 504 bytes of text
	decode(small)()
	if got := testing.AllocsPerRun(200, decode(small)); got != 8 {
		t.Errorf("eight strings, 504 bytes in all: %v allocations, want 8", got)
	}
	if v.H != strings.Repeat("H", 63) {
		t.Fatalf("decoded %+v", v)
	}
	// 8 × 120 = 960 bytes: the first four are alone (480 bytes), the other
	// four share a chunk.
	if got := testing.AllocsPerRun(200, decode(body(120))); got != 5 {
		t.Errorf("eight strings, 960 bytes in all: %v allocations, want 5", got)
	}
}
