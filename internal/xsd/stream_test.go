package xsd

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"wspeer/internal/xmlutil"
)

// The shapes FuzzDecodeBody decodes every input as.
type fuzzRec struct {
	ID    int64
	Name  string
	Score float64
	Tags  []string
}

type fuzzInner struct {
	K string
	N *int32
}

type fuzzDoc struct {
	Title string
	Inner fuzzInner
	Opt   *fuzzInner
	Many  []fuzzInner
	Blob  []byte
	When  time.Time
	Flag  bool
	Small uint8
	Note  *string
	Lines []*string
	Deep  [][]string // refused when present
}

// fuzzQualified names some fields in a namespace of their own — the
// call's or another, its children inheriting it — and keeps the children
// nothing names as trees.
type fuzzQualified struct {
	K     string             `xml:"urn:other K"`
	N     *int32             `xml:"urn:svc N"`
	Inner *fuzzQInner        `xml:"urn:other Inner"`
	Rest  []*xmlutil.Element `xml:",any"`
}

type fuzzQInner struct {
	V    []string
	Rest []*xmlutil.Element `xml:",any"`
}

// fuzzAttrs carries attributes: a string, a number, a QName and a string in
// a namespace of its own.
type fuzzAttrs struct {
	ID    string       `xml:"id,attr"`
	N     int32        `xml:"n,attr"`
	Ref   xmlutil.Name `xml:"ref,attr"`
	Q     string       `xml:"urn:other q,attr"`
	K     string
	Inner *fuzzAttrs
}

var fuzzTargets = []Field{
	{"msg", reflect.TypeOf([]fuzzRec(nil))},
	{"msg", reflect.TypeOf(fuzzRec{})},
	{"doc", reflect.TypeOf(fuzzDoc{})},
	{"doc", reflect.TypeOf((*fuzzDoc)(nil))},
	{"a", reflect.TypeOf(int64(0))},
	{"b", reflect.TypeOf("")},
	{"b", reflect.TypeOf((*string)(nil))},
	{"b", reflect.TypeOf([]string(nil))},
	{"a", reflect.TypeOf([]float64(nil))},
	{"Blob", reflect.TypeOf([]byte(nil))},
	{"When", reflect.TypeOf(time.Time{})},
	{"msg", reflect.TypeOf((*[]fuzzRec)(nil))},
	{"Items", reflect.TypeOf([]soItem(nil))},
	{"r", reflect.TypeOf(fuzzAttrs{})},
	{"r", reflect.TypeOf([]fuzzAttrs(nil))},
}

// fuzzTreeTargets hold trees, which the two readers come by apart — built
// from the tokens, or shared from the tree read — so they are held to each
// other by what they encode to.
var fuzzTreeTargets = []Field{
	{"q", reflect.TypeOf(fuzzQualified{})},
	{"q", reflect.TypeOf([]*fuzzQualified(nil))},
	{"doc", reflect.TypeOf(soDoc{})},
}

const fuzzNS = "urn:svc"

var fuzzSeeds = []string{
	// Three records, the benchmark's shape.
	`<s:op xmlns:s="urn:svc"><s:msg><s:ID>1</s:ID><s:Name>one</s:Name><s:Score>1.5</s:Score><s:Tags>x</s:Tags><s:Tags>y</s:Tags></s:msg>` +
		`<s:msg><s:ID>-2</s:ID><s:Name/><s:Score>1e+21</s:Score></s:msg>` +
		`<s:msg><s:ID>3</s:ID><s:Name> three </s:Name><s:Score>INF</s:Score><s:Tags/></s:msg></s:op>`,
	// A wrapper with several parameters, and fields out of order.
	`<op xmlns="urn:svc"><b>second</b><a> 42 </a><msg><Tags>t</Tags><Score>2</Score><Name>n</Name><ID>9</ID></msg></op>`,
	// A foreign-namespace twin before and after the exact match, for a
	// scalar, a slice and a struct; the first twin does not even decode.
	`<s:op xmlns:s="urn:svc" xmlns:o="urn:other"><o:a>bogus</o:a><s:a>7</s:a><o:a>8</o:a>` +
		`<o:b>twin</o:b><o:b>twin2</o:b><s:b>exact</s:b><o:b>late</o:b><s:b>exact2</s:b>` +
		`<o:msg><o:ID>zz</o:ID></o:msg><s:msg><s:ID>5</s:ID><o:Name>local</o:Name></s:msg></s:op>`,
	// Only local-name matches, some of which do not decode.
	`<op><a>1</a><a>x</a><b>unqualified</b><msg><ID>1</ID><ID>2</ID></msg></op>`,
	// Duplicates and children nobody asks for, at both levels.
	`<s:op xmlns:s="urn:svc"><s:junk><s:a>99</s:a></s:junk><s:a>1</s:a><s:a>2</s:a><s:msg><s:Name>first</s:Name><s:extra><s:Name>no</s:Name></s:extra><s:Name>second</s:Name></s:msg></s:op>`,
	// CDATA, entities, text in pieces, mixed content, whitespace-only and
	// self-closed leaves, comments and processing instructions.
	`<s:op xmlns:s="urn:svc"><!-- c --><s:b><![CDATA[<raw> & ]]>tail &amp; &#x41;<k>skipped</k> end</s:b><?pi?><s:a>
		12
	</s:a><s:msg><s:Name>   </s:Name><s:ID/><s:Score> </s:Score></s:msg></s:op>`,
	// Nested structs, an optional pointer present, absent and empty, a
	// pointer slice, []byte and time.Time.
	`<s:op xmlns:s="urn:svc"><s:doc><s:Title>t</s:Title><s:Inner><s:K>k</s:K><s:N>-3</s:N></s:Inner><s:Opt/>` +
		`<s:Many><s:K>m1</s:K></s:Many><s:Many><s:N>2</s:N><s:K>m2</s:K></s:Many><s:Blob> AQID </s:Blob>` +
		`<s:When>2004-11-06T09:00:00.5Z</s:When><s:Flag>1</s:Flag><s:Small>255</s:Small><s:Lines>l1</s:Lines><s:Lines/></s:doc>` +
		`<s:Blob>AQID</s:Blob><s:When>2004-11-06T09:00:00Z</s:When></s:op>`,
	// Lexical forms that do not parse, a nested slice, an overflow.
	`<s:op xmlns:s="urn:svc"><s:doc><s:Flag>TRUE</s:Flag></s:doc><s:a>1.5</s:a></s:op>`,
	`<s:op xmlns:s="urn:svc"><s:doc><s:Deep>x</s:Deep></s:doc><s:Blob>!!</s:Blob><s:When>yesterday</s:When></s:op>`,
	`<s:op xmlns:s="urn:svc"><s:doc><s:Small>256</s:Small><s:Many><s:N>x</s:N></s:Many></s:doc></s:op>`,
	`<op/>`,
	// Qualified names matched exactly, never by local name alone, and what
	// nothing names kept as trees, at both levels; a second q.
	`<s:op xmlns:s="urn:svc" xmlns:o="urn:other"><s:q><o:K>k</o:K><K>local only</K><s:K>wrong space</s:K><s:N>5</s:N>` +
		`<o:Inner><o:V>v</o:V><V>unqualified</V><x a="1" xmlns:z="urn:z">t<z:y/></x></o:Inner><o:Inner><o:V>late</o:V></o:Inner>` +
		`<extra xmlns="urn:z"><deep/>text</extra></s:q><s:q><N>9</N><o:N>7</o:N></s:q></s:op>`,
	// Repeated fields interleaved, nested, behind a pointer and of trees,
	// past a size class.
	`<s:op xmlns:s="urn:svc" xmlns:o="urn:other">` + soBody() + `<s:Items><o:N>1</o:N><s:N>2</s:N></s:Items></s:op>`,
	// Attributes: QNames prefixed, in the default namespace, with xml: and
	// undeclared; a padded and a bad number; one qualified, one by local
	// name only; on nested and repeated elements.
	`<s:op xmlns:s="urn:svc" xmlns:o="urn:other"><s:r id=" a b " n=" 7 " ref="o:x" o:q="qq" q="local"><s:K>k</s:K>` +
		`<s:Inner xmlns="urn:dflt" ref="plain" n="-2"/></s:r><s:r ref="xml:lang" id=""/><s:r ref="nope:x"/>` +
		`<s:r n="x"/><s:r ref=":x"/><s:r xmlns:p="urn:p" ref=" p:y " id="&amp;&#13;"/></s:op>`,
	// Records with more string text than a decode makes one by one, so
	// that most strings, escaped text among them, are carved from chunks.
	string(carveSeed()),
}

// carveSeed is 40 records of recordsDoc's, ≈ 3 KB of string text.
func carveSeed() []byte {
	doc, _ := recordsDoc(40, "z")
	return doc
}

// decodeBothWays decodes one part of the document's root element from the
// scanner's tokens and from the parsed tree.
func decodeBothWays(t *testing.T, doc []byte, root *xmlutil.Element, part Field) (stream, tree reflect.Value, streamErr, treeErr error) {
	t.Helper()
	tok := xmlutil.AcquireTokenizer(doc)
	defer tok.Release()
	if _, err := tok.Next(); err != nil {
		t.Fatalf("the scanner refuses what ParseBytes accepted: %v", err)
	}
	stream = reflect.New(part.Type).Elem()
	if _, streamErr = DecodeTokens(tok, fuzzNS, []Field{part}, []reflect.Value{stream}); streamErr == nil {
		if kind, err := tok.Next(); err != nil || kind != xmlutil.TokenEOF {
			t.Fatalf("%s %v: the stream decoder stopped short of the wrapper's end: %v, %v", part.Name, part.Type, kind, err)
		}
	}
	tree, treeErr = ExtractValue(root, fuzzNS, part.Name, part.Type)
	return
}

// FuzzDecodeBody holds the two readers of the compiled plans to each other:
// whatever the document, decoding a part from the scanner's tokens gives the
// value decoding it from the parsed tree gives, or both fail; and every
// slice either decodes has exactly the room its items take.
func FuzzDecodeBody(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		root, err := xmlutil.ParseBytes(doc)
		if err != nil {
			return
		}
		for i, part := range append(fuzzTargets, fuzzTreeTargets...) {
			stream, tree, streamErr, treeErr := decodeBothWays(t, doc, root, part)
			switch {
			case (streamErr == nil) != (treeErr == nil):
				t.Fatalf("%s as %v: from tokens %v, from the tree %v", part.Name, part.Type, streamErr, treeErr)
			case streamErr != nil:
			case checkSized("tokens", stream) != nil || checkSized("tree", tree) != nil:
				t.Fatalf("%s as %v: %v, %v", part.Name, part.Type, checkSized("tokens", stream), checkSized("tree", tree))
			case i >= len(fuzzTargets):
				if a, b := encodedTree(t, part.Name, stream), encodedTree(t, part.Name, tree); a != b {
					t.Fatalf("%s as %v:\nfrom tokens   %s\nfrom the tree %s", part.Name, part.Type, a, b)
				}
			case !reflect.DeepEqual(stream.Interface(), tree.Interface()):
				t.Fatalf("%s as %v:\nfrom tokens   %#v\nfrom the tree %#v", part.Name, part.Type, stream, tree)
			}
			// What the tokens decode to owns its strings: a copy of the
			// document, decoded and then overwritten, leaves the value
			// as the document itself decodes.
			if streamErr == nil {
				again := decodeOverwritten(t, doc, part)
				if i >= len(fuzzTargets) {
					if a, b := encodedTree(t, part.Name, stream), encodedTree(t, part.Name, again); a != b {
						t.Fatalf("%s as %v, its document overwritten:\nbefore %s\nafter  %s", part.Name, part.Type, a, b)
					}
				} else if !reflect.DeepEqual(stream.Interface(), again.Interface()) {
					t.Fatalf("%s as %v, its document overwritten:\nbefore %#v\nafter  %#v", part.Name, part.Type, stream, again)
				}
			}
		}
	})
}

// decodeOverwritten decodes part from the tokens of a copy of doc, which
// it then overwrites.
func decodeOverwritten(t *testing.T, doc []byte, part Field) reflect.Value {
	t.Helper()
	buf := append([]byte(nil), doc...)
	tok := xmlutil.AcquireTokenizer(buf)
	v := reflect.New(part.Type).Elem()
	_, err := tok.Next()
	if err == nil {
		_, err = DecodeTokens(tok, fuzzNS, []Field{part}, []reflect.Value{v})
	}
	tok.Release()
	if err != nil {
		t.Fatalf("%s as %v: a copy of the document does not decode: %v", part.Name, part.Type, err)
	}
	for i := range buf {
		buf[i] = '#'
	}
	return v
}

// encodedTree is v encoded as a tree's elements called name, marshalled.
func encodedTree(t *testing.T, name string, v reflect.Value) string {
	t.Helper()
	parent := xmlutil.NewElement(xmlutil.N(fuzzNS, "op"))
	if err := AppendValue(parent, fuzzNS, name, v); err != nil {
		t.Fatal(err)
	}
	return string(xmlutil.Marshal(parent))
}

// TestDecodeRules pins, on both readers, what the plan comment promises.
func TestDecodeRules(t *testing.T) {
	str, strs, i64 := reflect.TypeOf(""), reflect.TypeOf([]string(nil)), reflect.TypeOf(int64(0))
	for _, tc := range []struct {
		why, body string
		part      Field
		want      interface{} // nil: an error
	}{
		{"first match wins", `<s:b>1</s:b><s:b>2</s:b>`, Field{"b", str}, "1"},
		{"a slice takes every match", `<s:b>1</s:b><s:x/><s:b>2</s:b>`, Field{"b", strs}, []string{"1", "2"}},
		{"exact beats an earlier local match", `<o:b>local</o:b><s:b>exact</s:b>`, Field{"b", str}, "exact"},
		{"exact beats a later local match", `<s:b>exact</s:b><o:b>local</o:b>`, Field{"b", str}, "exact"},
		{"exact matches drop the local ones of a slice", `<o:b>l1</o:b><s:b>e1</s:b><b>l2</b><s:b>e2</s:b>`, Field{"b", strs}, []string{"e1", "e2"}},
		{"local matches stand when nothing is exact", `<o:b>l1</o:b><b>l2</b>`, Field{"b", strs}, []string{"l1", "l2"}},
		{"a local match that does not decode is dropped with the rest", `<o:a>x</o:a><s:a>5</s:a>`, Field{"a", i64}, int64(5)},
		{"and stands, as an error, when nothing is exact", `<o:a>x</o:a>`, Field{"a", i64}, nil},
		{"an exact match that does not decode is an error", `<s:a>x</s:a><s:a>5</s:a>`, Field{"a", i64}, nil},
		{"absent scalar is zero", ``, Field{"a", i64}, int64(0)},
		{"absent slice is empty, not nil", ``, Field{"b", strs}, []string{}},
		{"absent pointer is nil", ``, Field{"b", reflect.TypeOf((*string)(nil))}, (*string)(nil)},
		{"a string keeps its whitespace", `<s:b> a b </s:b>`, Field{"b", str}, " a b "},
		{"a number is trimmed", `<s:a> 7 </s:a>`, Field{"a", i64}, int64(7)},
		{"nested slices are refused", `<s:b>x</s:b>`, Field{"b", reflect.TypeOf([][]string(nil))}, nil},
		{"and only when there is one", ``, Field{"b", reflect.TypeOf([][]string(nil))}, [][]string{}},
	} {
		doc := []byte(`<s:op xmlns:s="urn:svc" xmlns:o="urn:other">` + tc.body + `</s:op>`)
		root, err := xmlutil.ParseBytes(doc)
		if err != nil {
			t.Fatalf("%s: %v", tc.why, err)
		}
		stream, tree, streamErr, treeErr := decodeBothWays(t, doc, root, tc.part)
		if tc.want == nil {
			if streamErr == nil || treeErr == nil {
				t.Errorf("%s: want an error, got %v from tokens and %v from the tree", tc.why, streamErr, treeErr)
			}
			continue
		}
		if streamErr != nil || treeErr != nil {
			t.Errorf("%s: %v from tokens, %v from the tree", tc.why, streamErr, treeErr)
			continue
		}
		if !reflect.DeepEqual(stream.Interface(), tc.want) || !reflect.DeepEqual(tree.Interface(), tc.want) {
			t.Errorf("%s: %#v from tokens, %#v from the tree, want %#v", tc.why, stream, tree, tc.want)
		}
	}
}

// streamed writes what AppendValue builds straight into a marshal writer.
func streamed(t *testing.T, name string, v interface{}) string {
	t.Helper()
	wrapper := &Wrapper{Name: xmlutil.N(tns, "w")}
	if err := wrapper.Add(name, reflect.ValueOf(v)); err != nil {
		t.Fatal(err)
	}
	w := xmlutil.AcquireWriter()
	w.Assign(tns)
	wrapper.Assign(w)
	w.StartRoot(w.Prefix(tns), "doc")
	w.Enter()
	wrapper.WriteXML(w)
	w.Close(w.Prefix(tns), "doc", 0)
	return string(w.Finish())
}

// TestStreamEncodeMatchesTree: a value written by its plan into the marshal
// writer is byte for byte the marshalled tree AppendValue builds for it.
func TestStreamEncodeMatchesTree(t *testing.T) {
	empty, blank, n := "", " \n", int32(-4)
	var iface interface{} = fuzzInner{K: "dyn"}
	tree := xmlutil.NewElement(xmlutil.N("urn:z", "kept")).SetText("as is")
	tree.NewChild(xmlutil.N("urn:y", "child"))
	for _, v := range []interface{}{
		personFixture(),
		Person{}, // zero time, nil pointers, empty slices
		[]fuzzRec{{ID: -1, Name: `<&">`, Score: math.Inf(-1), Tags: []string{"", " ", "é\t"}}, {}},
		fuzzDoc{Note: &empty, Lines: []*string{&blank, nil}, Blob: []byte{}, Small: 255},
		struct{ V interface{} }{iface},
		fuzzQualified{K: "k", N: &n, Inner: &fuzzQInner{V: []string{"a"}, Rest: []*xmlutil.Element{tree}}, Rest: []*xmlutil.Element{tree, nil}},
		[]interface{}{fuzzQualified{}, &fuzzQualified{K: "other"}},
		[]bool{true, false},
		float32(0.1),
		"",
	} {
		doc := xmlutil.NewElement(xmlutil.N(tns, "doc"))
		if err := AppendValue(doc.NewChild(xmlutil.N(tns, "w")), tns, "v", reflect.ValueOf(v)); err != nil {
			t.Fatal(err)
		}
		if got, want := streamed(t, "v", v), string(xmlutil.Marshal(doc)); got != want {
			t.Errorf("%T:\nstream %s\n  tree %s", v, got, want)
		}
	}
}

// TestInfiniteFloatLexicalForm: XML Schema spells the infinities INF and
// -INF; strconv's spellings are still read.
func TestInfiniteFloatLexicalForm(t *testing.T) {
	for _, tc := range []struct {
		v    interface{}
		want string
	}{
		{math.Inf(1), "INF"}, {math.Inf(-1), "-INF"},
		{float32(math.Inf(1)), "INF"}, {float32(math.Inf(-1)), "-INF"},
		{math.MaxFloat64, "1.7976931348623157e+308"}, {float32(1.5), "1.5"},
	} {
		got, err := EncodeSimple(reflect.ValueOf(tc.v))
		if err != nil || got != tc.want {
			t.Errorf("EncodeSimple(%v) = %q, %v; want %q", tc.v, got, err, tc.want)
		}
		back, err := decodeSimple(got, reflect.TypeOf(tc.v))
		if err != nil || !reflect.DeepEqual(back.Interface(), tc.v) {
			t.Errorf("decodeSimple(%q) = %v, %v", got, back, err)
		}
	}
	for _, s := range []string{"+Inf", "-Inf", "Inf", "INF", "-INF"} {
		v, err := decodeSimple(s, reflect.TypeOf(float64(0)))
		if err != nil || !math.IsInf(v.Float(), 0) {
			t.Errorf("decodeSimple(%q) = %v, %v", s, v, err)
		}
	}
	if nan, _ := EncodeSimple(reflect.ValueOf(math.NaN())); nan != "NaN" {
		t.Errorf("NaN encodes as %q", nan)
	}
}

// TestFixedSizeArrayRefused: an array used to encode as repeated elements
// and then fail to decode as a "nested slice"; it is refused on both sides,
// and by the schema, with a message that names the type.
func TestFixedSizeArrayRefused(t *testing.T) {
	type grid struct{ Cells [3]int32 }
	parent := xmlutil.NewElement(xmlutil.N(tns, "w"))
	for _, v := range []interface{}{[2]string{"a", "b"}, grid{}, []grid{{}}, &grid{}} {
		err := AppendValue(parent, tns, "v", reflect.ValueOf(v))
		if err == nil || !strings.Contains(err.Error(), "]") || !strings.Contains(err.Error(), "use a slice") {
			t.Errorf("AppendValue(%T) = %v", v, err)
		}
	}
	if len(parent.Elements()) != 0 {
		t.Errorf("a refused value left elements behind: %s", xmlutil.Marshal(parent))
	}
	parent.NewChild(xmlutil.N(tns, "v")).NewChild(xmlutil.N(tns, "Cells")).SetText("1")
	_, err := ExtractValue(parent, tns, "v", reflect.TypeOf(grid{}))
	if err == nil || !strings.Contains(err.Error(), "[3]int32") {
		t.Errorf("ExtractValue into a struct with an array = %v", err)
	}
	err = NewSchema(tns).AddElement("op", []Field{{"g", reflect.TypeOf(grid{})}})
	if err == nil || !strings.Contains(err.Error(), "[3]int32") {
		t.Errorf("schema of a struct with an array = %v", err)
	}
}

// TestDuplicateElementNames: two fields of a struct mapped to one element
// name encode twice and decode into the first, the same from either reader.
func TestDuplicateElementNames(t *testing.T) {
	type twice struct {
		A string
		B string `xml:"A"`
	}
	doc := []byte(`<s:op xmlns:s="urn:svc"><s:v><s:A>one</s:A><s:A>two</s:A></s:v></s:op>`)
	root, err := xmlutil.ParseBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	stream, tree, streamErr, treeErr := decodeBothWays(t, doc, root, Field{"v", reflect.TypeOf(twice{})})
	if streamErr != nil || treeErr != nil || stream.Interface() != (twice{A: "one"}) || tree.Interface() != (twice{A: "one"}) {
		t.Fatalf("tokens %+v %v, tree %+v %v", stream, streamErr, tree, treeErr)
	}
}

// TestQualifiedAndRest: a qualified field is matched in its namespace and
// nowhere else, and its children are named in the same one; what no field
// names is kept, in order, as trees — on both readers.
func TestQualifiedAndRest(t *testing.T) {
	doc := []byte(`<s:op xmlns:s="urn:svc" xmlns:o="urn:other"><s:q><K>local</K><s:K>call's</s:K><o:K>exact</o:K>` +
		`<o:Inner><V>local only</V><o:V>v</o:V><o:W/></o:Inner><o:K>second</o:K></s:q></s:op>`)
	root, err := xmlutil.ParseBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	stream, tree, streamErr, treeErr := decodeBothWays(t, doc, root, Field{"q", reflect.TypeOf(fuzzQualified{})})
	if streamErr != nil || treeErr != nil {
		t.Fatalf("%v from tokens, %v from the tree", streamErr, treeErr)
	}
	for _, v := range []fuzzQualified{stream.Interface().(fuzzQualified), tree.Interface().(fuzzQualified)} {
		if v.K != "exact" || v.N != nil || v.Inner == nil || !reflect.DeepEqual(v.Inner.V, []string{"v"}) || len(v.Inner.Rest) != 1 {
			t.Errorf("decoded %+v, inner %+v", v, v.Inner)
		}
		var rest []string
		for _, el := range v.Rest {
			rest = append(rest, el.Name.String()+"="+el.Text())
		}
		if want := []string{"K=local", "{urn:svc}K=call's"}; !reflect.DeepEqual(rest, want) {
			t.Errorf("rest %q, want %q", rest, want)
		}
	}
}
