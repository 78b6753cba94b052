package xsd

import (
	"reflect"
	"strings"
	"testing"

	"wspeer/internal/xmlutil"
)

func TestSchemaGeneration(t *testing.T) {
	s := NewSchema(tns)
	err := s.AddElement("Echo", []Field{
		{Name: "msg", Type: reflect.TypeOf("")},
		{Name: "times", Type: reflect.TypeOf(int32(0))},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = s.AddElement("Register", []Field{
		{Name: "who", Type: reflect.TypeOf(Person{})},
	})
	if err != nil {
		t.Fatal(err)
	}

	el := schemaTree(t, s)
	if el.Name != xmlutil.N(Namespace, "schema") {
		t.Fatalf("root = %v", el.Name)
	}
	if v, _ := el.Attr(xmlutil.N("", "targetNamespace")); v != tns {
		t.Fatalf("targetNamespace = %q", v)
	}
	if v, _ := el.Attr(xmlutil.N("", "elementFormDefault")); v != "qualified" {
		t.Fatalf("elementFormDefault = %q", v)
	}

	// Wrapper element Echo with two sequence members.
	var echo *xmlutil.Element
	for _, e := range el.Children(xmlutil.N(Namespace, "element")) {
		if n, _ := e.Attr(xmlutil.N("", "name")); n == "Echo" {
			echo = e
		}
	}
	if echo == nil {
		t.Fatal("Echo element missing")
	}
	seq := echo.Find(xmlutil.N(Namespace, "sequence"))
	members := seq.Children(xmlutil.N(Namespace, "element"))
	if len(members) != 2 {
		t.Fatalf("Echo members = %d", len(members))
	}
	typ, _ := members[0].Attr(xmlutil.N("", "type"))
	qn, err := members[0].ResolveQName(typ)
	if err != nil || qn != String {
		t.Fatalf("msg type = %v (%v)", qn, err)
	}

	// Person (and transitively Address) must appear as named complexTypes.
	found := map[string]bool{}
	for _, ct := range el.Children(xmlutil.N(Namespace, "complexType")) {
		n, _ := ct.Attr(xmlutil.N("", "name"))
		found[n] = true
	}
	if !found["Person"] || !found["Address"] {
		t.Fatalf("complexTypes = %v", found)
	}

}

// schemaTree is the schema as WriteXML writes it, under a root declaring
// its prefixes, parsed back: the output is well-formed.
func schemaTree(t *testing.T, s *Schema) *xmlutil.Element {
	t.Helper()
	doc, err := xmlutil.ParseBytes(writeSchema(t, s))
	if err != nil {
		t.Fatalf("schema not well-formed: %v", err)
	}
	return doc.Elements()[0]
}

func writeSchema(t *testing.T, s *Schema) []byte {
	t.Helper()
	w := xmlutil.AcquireWriter()
	s.Assign(w)
	w.StartRoot("", "doc")
	w.Enter()
	if err := s.WriteXML(w); err != nil {
		t.Fatal(err)
	}
	w.Close("", "doc", 0)
	return w.Finish()
}

func TestSchemaOccursConstraints(t *testing.T) {
	type Box struct {
		Required string
		Optional *string
		Many     []int64
	}
	s := NewSchema(tns)
	if err := s.AddElement("Put", []Field{{Name: "box", Type: reflect.TypeOf(Box{})}}); err != nil {
		t.Fatal(err)
	}
	el := schemaTree(t, s)
	var box *xmlutil.Element
	for _, ct := range el.Children(xmlutil.N(Namespace, "complexType")) {
		if n, _ := ct.Attr(xmlutil.N("", "name")); n == "Box" {
			box = ct
		}
	}
	if box == nil {
		t.Fatal("Box complexType missing")
	}
	byName := map[string]*xmlutil.Element{}
	for _, m := range box.Find(xmlutil.N(Namespace, "sequence")).Children(xmlutil.N(Namespace, "element")) {
		n, _ := m.Attr(xmlutil.N("", "name"))
		byName[n] = m
	}
	if _, ok := byName["Required"].Attr(xmlutil.N("", "minOccurs")); ok {
		t.Error("Required should not carry minOccurs")
	}
	if v, _ := byName["Optional"].Attr(xmlutil.N("", "minOccurs")); v != "0" {
		t.Errorf("Optional minOccurs = %q", v)
	}
	if v, _ := byName["Many"].Attr(xmlutil.N("", "maxOccurs")); v != "unbounded" {
		t.Errorf("Many maxOccurs = %q", v)
	}
}

func TestSchemaRejectsAnonymousAndDuplicate(t *testing.T) {
	s := NewSchema(tns)
	anon := struct{ X int }{}
	if err := s.AddElement("Bad", []Field{{Name: "a", Type: reflect.TypeOf(anon)}}); err == nil {
		t.Fatal("anonymous struct must be rejected")
	}
	if err := s.AddElement("Bad2", []Field{{Name: "m", Type: reflect.TypeOf(map[int]int{})}}); err == nil {
		t.Fatal("map must be rejected")
	}
}

func TestSchemaDuplicateTypeNameCollision(t *testing.T) {
	s := NewSchema(tns)
	if err := s.AddElement("A", []Field{{Name: "p", Type: reflect.TypeOf(Person{})}}); err != nil {
		t.Fatal(err)
	}
	// Re-registering the same type is fine.
	if err := s.AddElement("B", []Field{{Name: "p", Type: reflect.TypeOf(Person{})}}); err != nil {
		t.Fatal(err)
	}
	if !s.HasElement("A") || !s.HasElement("B") || s.HasElement("C") {
		t.Fatal("HasElement bookkeeping wrong")
	}
}

func TestSchemaDeterministicOutput(t *testing.T) {
	build := func() string {
		s := NewSchema(tns)
		_ = s.AddElement("Op", []Field{{Name: "p", Type: reflect.TypeOf(Person{})}})
		return string(writeSchema(t, s))
	}
	a, b := build(), build()
	if a != b {
		t.Fatal("schema output must be deterministic")
	}
	if !strings.Contains(a, "complexType") {
		t.Fatal("unexpected schema output")
	}
}
