package xsd

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"wspeer/internal/xmlutil"
)

const tns = "http://example.org/service"

type Address struct {
	Street string
	City   string
	Zip    *string
}

type Person struct {
	Name    string
	Age     int32
	Emails  []string
	Home    Address
	Work    *Address
	Tags    []Address
	Joined  time.Time
	Photo   []byte
	private string // must be skipped
	Skipped string `xml:"-"`
	Renamed string `xml:"alias"`
}

func marshalOne(t *testing.T, name string, v interface{}) *xmlutil.Element {
	t.Helper()
	parent := xmlutil.NewElement(xmlutil.N(tns, "wrapper"))
	if err := AppendValue(parent, tns, name, reflect.ValueOf(v)); err != nil {
		t.Fatalf("AppendValue: %v", err)
	}
	return parent
}

func TestMarshalSimpleField(t *testing.T) {
	parent := marshalOne(t, "msg", "hello")
	el := parent.Find(xmlutil.N(tns, "msg"))
	if el == nil || el.Text() != "hello" {
		t.Fatalf("bad marshal: %s", xmlutil.Marshal(parent))
	}
}

func TestMarshalSliceRepeats(t *testing.T) {
	parent := marshalOne(t, "n", []int64{1, 2, 3})
	els := parent.Children(xmlutil.N(tns, "n"))
	if len(els) != 3 || els[1].Text() != "2" {
		t.Fatalf("slice marshal: %s", xmlutil.Marshal(parent))
	}
}

func TestMarshalNilPointerOmitted(t *testing.T) {
	var p *Address
	parent := marshalOne(t, "addr", p)
	if len(parent.Elements()) != 0 {
		t.Fatalf("nil pointer must be omitted: %s", xmlutil.Marshal(parent))
	}
}

func TestMarshalUnsupported(t *testing.T) {
	parent := xmlutil.NewElement(xmlutil.N(tns, "w"))
	if err := AppendValue(parent, tns, "m", reflect.ValueOf(map[string]int{"a": 1})); err == nil {
		t.Fatal("maps must be rejected")
	}
	if err := AppendValue(parent, tns, "c", reflect.ValueOf(make(chan int))); err == nil {
		t.Fatal("channels must be rejected")
	}
}

func personFixture() Person {
	zip := "CF24"
	return Person{
		Name:    "Ada",
		Age:     36,
		Emails:  []string{"ada@example.org", "a@b.c"},
		Home:    Address{Street: "1 Queen St", City: "Cardiff", Zip: &zip},
		Work:    &Address{Street: "5 Park Pl", City: "Cardiff"},
		Tags:    []Address{{City: "x"}, {City: "y"}},
		Joined:  time.Date(2004, 11, 6, 9, 0, 0, 0, time.UTC),
		Photo:   []byte{1, 2, 3},
		Renamed: "r",
	}
}

func TestStructRoundTrip(t *testing.T) {
	in := personFixture()
	parent := marshalOne(t, "person", in)

	// Unexported and xml:"-" fields must not appear.
	out := string(xmlutil.Marshal(parent))
	if strings.Contains(out, "private") || strings.Contains(out, "Skipped") {
		t.Fatalf("excluded fields leaked: %s", out)
	}
	if !strings.Contains(out, "alias") {
		t.Fatalf("renamed field missing: %s", out)
	}

	got, err := ExtractValue(parent, tns, "person", reflect.TypeOf(Person{}))
	if err != nil {
		t.Fatalf("ExtractValue: %v", err)
	}
	gp := got.Interface().(Person)
	if gp.Name != in.Name || gp.Age != in.Age {
		t.Fatalf("scalars: %+v", gp)
	}
	if !reflect.DeepEqual(gp.Emails, in.Emails) {
		t.Fatalf("emails: %v", gp.Emails)
	}
	if gp.Home.Zip == nil || *gp.Home.Zip != "CF24" {
		t.Fatalf("nested pointer: %+v", gp.Home)
	}
	if gp.Work == nil || gp.Work.Street != "5 Park Pl" {
		t.Fatalf("pointer struct: %+v", gp.Work)
	}
	if len(gp.Tags) != 2 || gp.Tags[1].City != "y" {
		t.Fatalf("struct slice: %+v", gp.Tags)
	}
	if !gp.Joined.Equal(in.Joined) {
		t.Fatalf("time: %v", gp.Joined)
	}
	if !reflect.DeepEqual(gp.Photo, in.Photo) {
		t.Fatalf("photo: %v", gp.Photo)
	}
	if gp.Renamed != "r" {
		t.Fatalf("renamed: %q", gp.Renamed)
	}
}

func TestExtractMissingOptional(t *testing.T) {
	parent := xmlutil.NewElement(xmlutil.N(tns, "w"))
	v, err := ExtractValue(parent, tns, "x", reflect.TypeOf((*Address)(nil)))
	if err != nil || !v.IsNil() {
		t.Fatalf("missing pointer: %v %v", v, err)
	}
	sv, err := ExtractValue(parent, tns, "x", reflect.TypeOf([]string{}))
	if err != nil || sv.Len() != 0 {
		t.Fatalf("missing slice: %v %v", sv, err)
	}
	iv, err := ExtractValue(parent, tns, "x", reflect.TypeOf(0))
	if err != nil || iv.Int() != 0 {
		t.Fatalf("missing scalar should zero: %v %v", iv, err)
	}
}

func TestExtractLenientNamespace(t *testing.T) {
	// A peer that sends unqualified children should still be understood.
	parent := xmlutil.NewElement(xmlutil.N(tns, "w"))
	parent.NewChild(xmlutil.N("", "msg")).SetText("hi")
	v, err := ExtractValue(parent, tns, "msg", reflect.TypeOf(""))
	if err != nil || v.String() != "hi" {
		t.Fatalf("lenient: %v %v", v, err)
	}
}

func TestNestedSliceRejected(t *testing.T) {
	parent := xmlutil.NewElement(xmlutil.N(tns, "w"))
	parent.NewChild(xmlutil.N(tns, "x"))
	if _, err := ExtractValue(parent, tns, "x", reflect.TypeOf([][]string{})); err == nil {
		t.Fatal("nested slices must be rejected on decode")
	}
}

func TestQuickStructRoundTrip(t *testing.T) {
	type Pair struct {
		K string
		V int64
	}
	// Restrict inputs to characters XML 1.0 can represent: encoding/xml
	// drops the rest, as every SOAP stack must.
	xmlSafe := func(s string) string {
		var b strings.Builder
		for _, r := range strings.ToValidUTF8(s, "") {
			switch {
			case r == '\t' || r == '\n':
				b.WriteRune(r)
			case r < 0x20 || r == '\r':
				continue
			case r >= 0xD800 && r <= 0xDFFF:
				continue
			case r == 0xFFFE || r == 0xFFFF:
				continue
			default:
				b.WriteRune(r)
			}
		}
		return b.String()
	}
	f := func(k string, v int64) bool {
		k = xmlSafe(k)
		in := Pair{K: k, V: v}
		parent := xmlutil.NewElement(xmlutil.N(tns, "w"))
		if err := AppendValue(parent, tns, "p", reflect.ValueOf(in)); err != nil {
			return false
		}
		// Serialize through real XML bytes to catch escaping issues.
		back, err := xmlutil.ParseBytes(xmlutil.Marshal(parent))
		if err != nil {
			return false
		}
		got, err := ExtractValue(back, tns, "p", reflect.TypeOf(Pair{}))
		if err != nil {
			return false
		}
		return got.Interface().(Pair) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestStringWhitespacePreserved(t *testing.T) {
	// Whitespace inside string values is significant and must round-trip;
	// numeric values tolerate surrounding whitespace.
	parent := xmlutil.NewElement(xmlutil.N(tns, "w"))
	const msg = "  leading and trailing  \n\tkept "
	if err := AppendValue(parent, tns, "s", reflect.ValueOf(msg)); err != nil {
		t.Fatal(err)
	}
	back, err := xmlutil.ParseBytes(xmlutil.Marshal(parent))
	if err != nil {
		t.Fatal(err)
	}
	v, err := ExtractValue(back, tns, "s", reflect.TypeOf(""))
	if err != nil || v.String() != msg {
		t.Fatalf("string whitespace: %q, %v", v.String(), err)
	}

	// Numbers decode despite pretty-printed whitespace around them.
	numEl := xmlutil.NewElement(xmlutil.N(tns, "w"))
	numEl.NewChild(xmlutil.N(tns, "n")).SetText("\n    42\n  ")
	nv, err := ExtractValue(numEl, tns, "n", reflect.TypeOf(int64(0)))
	if err != nil || nv.Int() != 42 {
		t.Fatalf("number with whitespace: %v, %v", nv, err)
	}
}
