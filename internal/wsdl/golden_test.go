package wsdl

import (
	"os"
	"path/filepath"
	"testing"

	"wspeer/internal/xmlutil"
	"wspeer/internal/xsd"
)

// goldenDocs are the documents other stacks wrote, as Parse and then
// Marshal render them: raw schemas, a default namespace, foreign prefixes
// and several ports. Their bytes, with those of the generated documents
// (internal/engine's TestGeneratedWSDLGolden), are pinned in testdata as
// the writer writes them, with no whitespace between tags.
var goldenDocs = []struct{ file, doc string }{
	{"axis.wsdl", axisStyleWSDL},
	{"dotnet.wsdl", dotNetStyleWSDL},
	{"oneway_multiport.wsdl", gSoapStyleWSDL},
}

func readGolden(t testing.TB, file string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestWSDLGolden(t *testing.T) {
	check := func(file string, d *Definitions) {
		t.Helper()
		got, err := d.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if want := readGolden(t, file); string(got) != string(want) {
			t.Errorf("%s:\n got %s\nwant %s", file, got, want)
		}
	}
	for _, g := range goldenDocs {
		d, err := Parse([]byte(g.doc))
		if err != nil {
			t.Fatal(err)
		}
		check(g.file, d)
	}
	check("echo_defs.wsdl", echoDefs(t))
	check("foreign_parts.wsdl", foreignPartsDefs(t))
}

// foreignPartsDefs has parts whose elements stand in namespaces the root
// does not declare up front: one with a preferred prefix, two without.
func foreignPartsDefs(t *testing.T) *Definitions {
	d := echoDefs(t)
	d.Messages[0].Parts = append(d.Messages[0].Parts,
		Part{Name: "extra", Element: xmlutil.N("urn:foreign:a", "A")},
		Part{Name: "typed", Element: xmlutil.N(xsd.Namespace, "string")})
	d.Messages[1].Parts[0].Element = xmlutil.N("urn:foreign:b", "B")
	d.Messages[2].Parts[0].Element = xmlutil.N("urn:foreign:a", "A2")
	return d
}
