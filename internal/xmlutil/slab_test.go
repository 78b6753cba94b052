package xmlutil

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// padded returns doc followed by enough whitespace to reach the length at
// which the parser stops sizing its first slab from the input: the same
// document, parsed the way every document was before slabs were sized.
func padded(doc string) []byte {
	return []byte(doc + strings.Repeat(" ", slabSizedBelow))
}

// countElements walks a parsed tree.
func countElements(el *Element) int {
	n := 1
	for _, c := range el.Elements() {
		n += countElements(c)
	}
	return n
}

const echoEnvelope = `<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/">` +
	`<soapenv:Header><wsa:MessageID xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/08/addressing">urn:uuid:1</wsa:MessageID></soapenv:Header>` +
	`<soapenv:Body><ns1:echo xmlns:ns1="urn:echo"><msg>0123456789abcdef</msg></ns1:echo></soapenv:Body></soapenv:Envelope>`

// TestFirstSlabSizedFromInput: a '<' that opens no element — in a comment,
// a CDATA section, a processing instruction, a DOCTYPE — only makes the
// first slab larger than needed, never too small, and whatever its size the
// tree is the one the full slab gives.
func TestFirstSlabSizedFromInput(t *testing.T) {
	var wide strings.Builder // 33 elements: one more than a slab
	wide.WriteString("<r>")
	for i := 0; i < elementSlab; i++ {
		fmt.Fprintf(&wide, "<c%d>v</c%d>", i, i)
	}
	wide.WriteString("</r>")
	docs := []struct {
		doc      string
		elements int
	}{
		{echoEnvelope, 6},
		{`<a/>`, 1},
		{`<a><b/><c></c></a>`, 3},
		{`<?xml version="1.0"?><!-- <x> <y> --><a><!-- <z/> </z> --><b/></a>`, 2},
		{`<a><![CDATA[<b><c></c></b> </ </]]><d/></a>`, 2},
		{`<?pi <a> <b> ?><a><?pi </a> ?><b/></a>`, 2},
		{`<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]><a>hi</a>`, 1},
		{`<a x="&lt;"><b y="1"/>text &lt; more</a>`, 2},
		{wide.String(), elementSlab + 1},
	}
	for _, d := range docs {
		small, err := ParseBytes([]byte(d.doc))
		if err != nil {
			t.Fatalf("%s: %v", d.doc, err)
		}
		full, err := ParseBytes(padded(d.doc))
		if err != nil {
			t.Fatalf("%s (padded): %v", d.doc, err)
		}
		if n := countElements(small); n != d.elements {
			t.Errorf("%s: %d elements, want %d", d.doc, n, d.elements)
		}
		if !bytes.Equal(Marshal(small), Marshal(full)) {
			t.Errorf("%s: tree depends on the slab size:\n%s\nvs\n%s", d.doc, Marshal(small), Marshal(full))
		}
		estimate := bytes.Count([]byte(d.doc), ltMark) - bytes.Count([]byte(d.doc), endTagMark)
		if estimate < d.elements {
			t.Errorf("%s: estimate %d under-counts %d elements", d.doc, estimate, d.elements)
		}
	}
}

// TestFirstSlabCostsNoExtraAllocs: sizing the slab changes how large one
// allocation is, not how many there are — for the echo envelope and for a
// document one element larger than a slab.
func TestFirstSlabCostsNoExtraAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	measure := func(doc []byte) (allocs float64, bytesPerRun uint64) {
		const runs = 200
		parse := func() {
			if _, err := ParseBytes(doc); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(runs, parse)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			parse()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	sizedAllocs, sizedBytes := measure([]byte(echoEnvelope))
	fullAllocs, fullBytes := measure(padded(echoEnvelope))
	if sizedAllocs != fullAllocs {
		t.Errorf("echo envelope: %v allocations with a sized slab, %v with a full one", sizedAllocs, fullAllocs)
	}
	const fullSlabWaste = (elementSlab - 6) * 64 // at least this much of a full slab is never used
	if sizedBytes+fullSlabWaste > fullBytes {
		t.Errorf("echo envelope: %d bytes with a sized slab, %d with a full one", sizedBytes, fullBytes)
	}
	wide := "<r>" + strings.Repeat("<c/>", elementSlab) + "</r>"
	sizedAllocs, _ = measure([]byte(wide))
	fullAllocs, _ = measure(padded(wide))
	if sizedAllocs != fullAllocs {
		t.Errorf("33 elements: %v allocations with a sized slab, %v with a full one", sizedAllocs, fullAllocs)
	}
}
