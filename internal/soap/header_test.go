package soap

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"wspeer/internal/xmlutil"
)

// TestHeaderIndex: Parse notes each block's name, mustUnderstand and
// actor/role in either version's vocabulary, and HeaderIndex and HeaderText
// answer from that and the message's bytes, building no tree.
func TestHeaderIndex(t *testing.T) {
	for _, doc := range []string{
		`<S:Envelope xmlns:S="` + Namespace + `"><S:Header><m:A xmlns:m="urn:m" S:mustUnderstand="1" S:actor="urn:r"> a &amp; b </m:A>` +
			`<m:B xmlns:m="urn:m" S:mustUnderstand="0">b</m:B><C xmlns:T="` + Namespace12 + `" T:mustUnderstand="true" T:role="urn:r2"/></S:Header><S:Body/></S:Envelope>`,
		`<S:Envelope xmlns:S="` + Namespace12 + `"><S:Header><m:A xmlns:m="urn:m" S:mustUnderstand="true" S:role="urn:r"> a <![CDATA[&]]> b </m:A>` +
			`<m:B xmlns:m="urn:m">b</m:B><C xmlns:O="` + Namespace + `" O:mustUnderstand="1" O:actor="urn:r2"/></S:Header><S:Body/></S:Envelope>`,
	} {
		env, err := Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		before := HeaderTreesBuilt()
		want := []HeaderInfo{
			{Name: xmlutil.N("urn:m", "A"), MustUnderstand: true, Role: "urn:r"},
			{Name: xmlutil.N("urn:m", "B")},
			{Name: xmlutil.N("", "C"), MustUnderstand: true, Role: "urn:r2"},
		}
		index := append([]HeaderInfo(nil), env.HeaderIndex()...)
		for i := range index {
			index[i].at = 0
		}
		if fmt.Sprint(index) != fmt.Sprint(want) {
			t.Errorf("HeaderIndex = %+v, want %+v", index, want)
		}
		if text, ok := env.HeaderText(xmlutil.N("urn:m", "A")); !ok || text != "a & b" {
			t.Errorf("HeaderText(A) = %q, %v", text, ok)
		}
		if _, ok := env.HeaderText(xmlutil.N("urn:m", "Z")); ok {
			t.Error("HeaderText of a block that is not there")
		}
		if n := HeaderTreesBuilt() - before; n != 0 {
			t.Errorf("%d header trees built", n)
		}
	}
}

// TestLazyHeader: a parsed message's header trees are built once, at the
// first call, and shared by concurrent callers: the blocks a whole-document
// parse gave, parents and in-scope prefixes included. Run under -race.
func TestLazyHeader(t *testing.T) {
	env, err := Parse([]byte(foreign))
	if err != nil {
		t.Fatal(err)
	}
	before := HeaderTreesBuilt()
	var wg sync.WaitGroup
	blocks := make([][]*xmlutil.Element, 8)
	for g := range blocks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			blocks[g] = env.Headers()
			if h := env.Header(xmlutil.N("urn:m", "Trace")); h == nil || h != blocks[g][0] || h.Parent() == nil || h.Text() != "id-1" {
				t.Errorf("Header = %v", h)
			}
		}()
	}
	wg.Wait()
	for _, b := range blocks {
		if len(b) != 1 || b[0] != blocks[0][0] {
			t.Fatalf("goroutines saw different blocks: %v", blocks)
		}
	}
	if n := HeaderTreesBuilt() - before; n != 1 {
		t.Fatalf("%d header trees built for one message", n)
	}
	// A block added to a parsed message goes after the ones it came with.
	env.AddHeaderValue(&TextHeader{Name: xmlutil.N("urn:m", "Next"), Text: "n"})
	if h := env.Headers(); len(h) != 2 || h[0].Text() != "id-1" || !MustUnderstand(h[0]) || h[1].Text() != "n" {
		t.Fatalf("after AddHeaderValue: %v", h)
	}
}

// TestValueBlocksWriteAsTrees: a block held as a value is written byte for
// byte as the tree it stands for, mustUnderstand in the envelope version's
// vocabulary, and Headers of a built envelope answers with the trees its
// bytes parse to.
func TestValueBlocksWriteAsTrees(t *testing.T) {
	for _, v := range []Version{SOAP11, SOAP12} {
		name := xmlutil.N("urn:deadline", "Deadline")
		tree := xmlutil.NewElement(name).SetText("1700 & <1>")
		SetMustUnderstand(tree)
		values := NewEnvelopeV(v).AddHeaderValue(&TextHeader{Name: name, Text: "1700 & <1>", MustUnderstand: true}).
			AddHeaderValue(&TextHeader{Name: xmlutil.N("urn:o", "Empty"), Text: " "})
		trees := NewEnvelopeV(v).AddHeader(tree).AddHeader(xmlutil.NewElement(xmlutil.N("urn:o", "Empty")))
		if got, want := string(values.Marshal()), string(trees.Marshal()); got != want {
			t.Errorf("%v: values write\n%s\nthe trees\n%s", v, got, want)
		}
		if h := values.Headers(); len(h) != 2 || h[0].Name != name || h[0].Text() != tree.Text() || !MustUnderstand(h[0]) {
			t.Errorf("%v: Headers of a built envelope = %v", v, h)
		}
	}
}

// TestHeaderBlockCap: MaxHeaderBlocks blocks parse, one more is refused,
// whatever the rest of the message holds.
func TestHeaderBlockCap(t *testing.T) {
	doc := func(n int) []byte {
		return []byte(`<S:Envelope xmlns:S="` + Namespace + `"><S:Header>` + strings.Repeat("<a/>", n) + `</S:Header><S:Body/></S:Envelope>`)
	}
	if env, err := Parse(doc(MaxHeaderBlocks)); err != nil || len(env.HeaderIndex()) != MaxHeaderBlocks {
		t.Fatalf("%d blocks: %v", MaxHeaderBlocks, err)
	}
	if _, err := Parse(doc(MaxHeaderBlocks + 1)); err == nil || !strings.Contains(err.Error(), "more than 256 blocks") {
		t.Fatalf("%d blocks: %v", MaxHeaderBlocks+1, err)
	}
}
