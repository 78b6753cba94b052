package xsd

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"

	"wspeer/internal/xmlutil"
)

// Marshalling follows document/literal conventions with
// elementFormDefault="qualified": every element representing a value or a
// struct field lives in the schema's target namespace. A nil pointer field
// is omitted (minOccurs="0"); a slice field repeats its element
// (maxOccurs="unbounded").
//
// Both directions run through compiled per-type plans (see plan.go), and
// both meet either a message's bytes — Wrapper.WriteXML, DecodeTokens,
// DecodeValue — or an element tree — AppendValue, Wrapper.Element,
// ExtractValue, DecodeElement.

// fieldName returns the element or attribute name for a struct field,
// honouring the `xml` struct tag's forms encoding/xml gives them: "name",
// "ns name" (a namespace-qualified name), ",any" (the field holds the
// children no other field names) and "name,attr" (an attribute, in no
// namespace unless qualified); opt is "any", "attr" or "". It reports
// skip=true for fields excluded from marshalling.
func fieldName(f reflect.StructField) (space, name, opt string, skip bool) {
	tag := f.Tag.Get("xml")
	if f.PkgPath != "" || tag == "-" { // unexported, or excluded
		return "", "", "", true
	}
	name, opt, _ = strings.Cut(tag, ",")
	if s, local, ok := strings.Cut(name, " "); ok {
		space, name = s, local
	}
	if name == "" {
		name = f.Name
	}
	return space, name, opt, false
}

// ---------------------------------------------------------------------------
// Encoding

// Wrapper is an operation's request or response element held as Go values:
// the element Name with, in its namespace, the elements each part added
// encodes to. It is written when the message is, straight into the marshal
// writer, or built as a tree if somebody asks. Wrapper{Name: name} is one
// without parts.
type Wrapper struct {
	Name  xmlutil.Name
	parts []part
	few   [2]part // parts' first backing array: most operations have a part or two
}

type part struct {
	name string
	plan *plan
	v    reflect.Value
}

// Add appends a part, or reports why v cannot be encoded: what Add accepts
// writes without error.
func (w *Wrapper) Add(name string, v reflect.Value) error {
	p := planFor(v.Type())
	if err := p.check(name, v); err != nil {
		return err
	}
	if w.parts == nil {
		w.parts = w.few[:0]
	}
	w.parts = append(w.parts, part{name: name, plan: p, v: v})
	return nil
}

func (w *Wrapper) encode(s sink) {
	for _, p := range w.parts {
		p.plan.encode(s, w.Name.Space, p.name, p.v)
	}
}

// Assign gives xw a prefix for every namespace the element is written in,
// in the order a walk of its tree meets them.
func (w *Wrapper) Assign(xw *xmlutil.Writer) {
	xw.Assign(w.Name.Space)
	for _, p := range w.parts {
		if p.plan.foreign { // the rest are in the wrapper's namespace
			p.plan.encode(assignSink{xw}, w.Name.Space, p.name, p.v)
		}
	}
}

// WriteXML writes the element to xw, which has been through Assign.
func (w *Wrapper) WriteXML(xw *xmlutil.Writer) {
	s := streamSink{xw}
	mark := s.open(w.Name.Space, w.Name.Local, nil, reflect.Value{})
	w.encode(s)
	s.close(w.Name.Space, w.Name.Local, mark)
}

// Element builds the element as a tree.
func (w *Wrapper) Element() *xmlutil.Element {
	el := xmlutil.NewElement(w.Name)
	w.encode(&treeSink{cur: el})
	return el
}

// AppendValue appends the XML representation of v to parent as one or more
// child elements named {ns}name, using the compiled plan for v's type.
func AppendValue(parent *xmlutil.Element, ns, name string, v reflect.Value) error {
	p := planFor(v.Type())
	if err := p.check(name, v); err != nil {
		return err
	}
	p.encode(&treeSink{cur: parent}, ns, name, v)
	return nil
}

// Marshal writes v as the document element {ns}name, which declares every
// namespace the document uses: the bytes xmlutil.Marshal gives for the
// tree AppendValue builds.
func Marshal(ns, name string, v reflect.Value) ([]byte, error) {
	w, err := write(ns, name, v, true)
	if err != nil {
		return nil, err
	}
	return w.Finish(), nil
}

// MarshalRaw writes v as the element {ns}name, held as a Raw: what Marshal
// writes, its namespaces declared in the Raw's scope and not by it.
func MarshalRaw(ns, name string, v reflect.Value) (xmlutil.Raw, error) {
	w, err := write(ns, name, v, false)
	if err != nil {
		return xmlutil.Raw{}, err
	}
	return w.FinishRaw(xmlutil.Name{Space: ns, Local: name}), nil
}

func write(ns, name string, v reflect.Value, root bool) (*xmlutil.Writer, error) {
	p := planFor(v.Type())
	if err := p.check(name, v); err != nil {
		return nil, err
	}
	w := xmlutil.AcquireWriter()
	p.encode(assignSink{w}, ns, name, v)
	if root {
		p.encode(rootSink{streamSink{w}}, ns, name, v)
	} else {
		p.encode(streamSink{w}, ns, name, v)
	}
	return w, nil
}

// streamSink writes elements into the marshal writer. It is the writer and
// nothing else, so it goes in a sink without allocating, and Marshals that
// run at once share nothing through it.
type streamSink struct{ w *xmlutil.Writer }

// rootSink is a streamSink whose first element, written into an empty
// writer, is the document element.
type rootSink struct{ streamSink }

func (s streamSink) close(ns, name string, mark int) { s.w.Close(s.w.Prefix(ns), name, mark) }
func (s streamSink) tree(el *xmlutil.Element)        { s.w.Tree(el) }
func (s streamSink) raw(r xmlutil.Raw)               { s.w.Raw(r) }

func (s streamSink) open(ns, name string, attrs []fieldPlan, v reflect.Value) int {
	s.w.Start(s.w.Prefix(ns), name)
	return s.enter(attrs, v)
}

func (s rootSink) open(ns, name string, attrs []fieldPlan, v reflect.Value) int {
	if s.w.Buffer().Len() > 0 {
		return s.streamSink.open(ns, name, attrs, v)
	}
	s.w.StartRoot(s.w.Prefix(ns), name)
	return s.enter(attrs, v)
}

// enter writes the attribute fields of the struct v and ends the start tag.
func (s streamSink) enter(attrs []fieldPlan, v reflect.Value) int {
	for i := range attrs {
		f := &attrs[i]
		name, fv := xmlutil.Name{Space: f.space, Local: f.name}, v.Field(f.index)
		switch {
		case f.plan.kind == kindQName:
			s.w.QNameAttr(name, xmlutil.Name{Space: fv.Field(0).String(), Local: fv.Field(1).String()})
		case fv.Kind() == reflect.String:
			s.w.Attr(name, fv.String())
		default:
			text, _ := EncodeSimple(fv)
			s.w.Attr(name, text)
		}
	}
	return s.w.Enter()
}

func (s streamSink) text(v reflect.Value) {
	if v.Kind() == reflect.String {
		s.w.Text(v.String())
		return
	}
	b := s.w.Buffer() // every other lexical form needs no escaping
	b.Write(appendSimple(b.AvailableBuffer(), v))
}

func (s streamSink) leaf(ns, name string, v reflect.Value) {
	if v.Kind() == reflect.String {
		s.w.Leaf(s.w.Prefix(ns), name, v.String())
		return
	}
	mark := s.w.Open(s.w.Prefix(ns), name)
	s.text(v)
	s.close(ns, name, mark)
}

// assignSink gives the namespaces an encoding walk meets prefixes.
type assignSink struct{ w *xmlutil.Writer }

func (s assignSink) close(string, string, int)          {}
func (s assignSink) text(reflect.Value)                 {}
func (s assignSink) leaf(ns, _ string, _ reflect.Value) { s.w.Assign(ns) }
func (s assignSink) tree(el *xmlutil.Element)           { s.w.Collect(el) }
func (s assignSink) raw(r xmlutil.Raw)                  { s.w.CollectRaw(r) }

func (s assignSink) open(ns, _ string, attrs []fieldPlan, v reflect.Value) int {
	s.w.Assign(ns)
	for i := range attrs {
		s.w.Assign(attrs[i].space)
		if attrs[i].plan.kind == kindQName {
			s.w.Assign(v.Field(attrs[i].index).Field(0).String())
		}
	}
	return 0
}

// treeSink appends elements under cur.
type treeSink struct{ cur *xmlutil.Element }

func (s *treeSink) open(ns, name string, attrs []fieldPlan, v reflect.Value) int {
	s.cur = s.cur.NewChild(xmlutil.N(ns, name))
	for i := range attrs {
		f, fv := &attrs[i], v.Field(attrs[i].index)
		var text string
		if f.plan.kind == kindQName {
			text = xmlutil.QNameValue(s.cur, fv.Interface().(xmlutil.Name))
		} else {
			text, _ = EncodeSimple(fv)
		}
		s.cur.SetAttr(xmlutil.N(f.space, f.name), text)
	}
	return 0
}

func (s *treeSink) close(string, string, int) { s.cur = s.cur.Parent() }
func (s *treeSink) tree(el *xmlutil.Element)  { s.cur.AppendShared(el) }

func (s *treeSink) text(v reflect.Value) {
	text, _ := EncodeSimple(v) // a plan's text is of a simple type
	s.cur.SetText(text)
}

func (s *treeSink) raw(r xmlutil.Raw) {
	if el, err := r.Element(); err == nil {
		s.cur.AppendShared(el)
	}
}

func (s *treeSink) leaf(ns, name string, v reflect.Value) {
	text, _ := EncodeSimple(v) // a plan's leaf is of a simple type
	s.cur.NewChild(xmlutil.N(ns, name)).SetText(text)
}

// ---------------------------------------------------------------------------
// Decoding

// DecodeTokens decodes named, typed parts — an operation's parameters or
// results — from the children of the element whose start tag t has just
// returned, in one pass, reading through its end tag. Elements are expected
// in the namespace ns; dst holds a settable zero value per part. On failure
// it returns the index of the part that did not decode, or -1 if the
// message itself is at fault. The strings it sets are t.Carve's, counted
// from this decode on.
func DecodeTokens(t *xmlutil.Tokenizer, ns string, parts []Field, dst []reflect.Value) (int, error) {
	t.ResetCarve()
	return decodeParts((*streamReader)(t), ns, parts, dst)
}

// DecodeElement is DecodeTokens over the children of a tree's element.
func DecodeElement(el *xmlutil.Element, ns string, parts []Field, dst []reflect.Value) (int, error) {
	return decodeParts(&treeReader{stack: []treeFrame{{el: el, kids: el.Elements()}}}, ns, parts, dst)
}

func decodeParts(r reader, ns string, parts []Field, dst []reflect.Value) (int, error) {
	var few [4]fieldPlan
	fields := few[:0]
	for _, p := range parts {
		fields = append(fields, fieldPlan{name: p.Name, plan: planFor(p.Type)})
	}
	return decodeFields(r, ns, fields, reflect.Value{}, dst)
}

// DecodeValue decodes the element whose start tag t has just returned into
// dst, settable, reading through its end tag: a struct's fields are the
// children they name in ns. Its strings are carved as DecodeTokens' are.
func DecodeValue(t *xmlutil.Tokenizer, ns string, dst reflect.Value) error {
	t.ResetCarve()
	return planFor(dst.Type()).decode((*streamReader)(t), dst, ns, "", false)
}

// ExtractValue decodes the child element(s) of parent named {ns}name into a
// new Go value of type t, using the compiled plan for t. Missing optional
// values yield zero values (nil for pointers, empty for slices).
func ExtractValue(parent *xmlutil.Element, ns, name string, t reflect.Type) (reflect.Value, error) {
	v := reflect.New(t).Elem()
	if _, err := DecodeElement(parent, ns, []Field{{name, t}}, []reflect.Value{v}); err != nil {
		return reflect.Value{}, err
	}
	return v, nil
}

// streamReader reads a message's bytes through the scanner: the scanner
// itself, so that reading from it allocates no reader.
type streamReader xmlutil.Tokenizer

func (r *streamReader) t() *xmlutil.Tokenizer { return (*xmlutil.Tokenizer)(r) }

func (r *streamReader) child() (bool, error) {
	for {
		switch kind, err := r.t().Next(); {
		case err != nil:
			return false, err
		case kind == xmlutil.TokenStart:
			return true, nil
		case kind != xmlutil.TokenText:
			return false, nil
		}
	}
}

func (r *streamReader) is(local string) bool                  { return string(r.Local) == local }
func (r *streamReader) space() string                         { return r.Space }
func (r *streamReader) depth() int                            { return r.t().Depth() }
func (r *streamReader) unwind(depth int) error                { return r.t().SkipTo(depth) }
func (r *streamReader) tree() (*xmlutil.Element, error)       { return r.t().Fragment() }
func (r *streamReader) raw() (xmlutil.Raw, error)             { return r.t().Raw() }
func (r *streamReader) attr(name xmlutil.Name) (string, bool) { return r.t().Attr(name) }
func (r *streamReader) qname(s string) (xmlutil.Name, error)  { return r.t().ResolveQName(s) }

func (r *streamReader) scalar(dst reflect.Value) error {
	b, err := r.t().CharData()
	if err != nil {
		return err
	}
	if dst.Kind() == reflect.String {
		dst.SetString(r.t().Carve(b))
		return nil
	}
	return setSimple(dst, bytes.TrimSpace(b))
}

// treeReader walks an element tree; the top of its stack is where it is.
type treeReader struct{ stack []treeFrame }

type treeFrame struct {
	el   *xmlutil.Element
	kids []*xmlutil.Element // el's child elements
	next int
}

func (r *treeReader) top() *treeFrame { return &r.stack[len(r.stack)-1] }

func (r *treeReader) child() (bool, error) {
	top := r.top()
	if top.next == len(top.kids) {
		r.stack = r.stack[:len(r.stack)-1]
		return false, nil
	}
	el := top.kids[top.next]
	top.next++
	r.stack = append(r.stack, treeFrame{el: el, kids: el.Elements()})
	return true, nil
}

func (r *treeReader) is(local string) bool                  { return r.top().el.Name.Local == local }
func (r *treeReader) space() string                         { return r.top().el.Name.Space }
func (r *treeReader) depth() int                            { return len(r.stack) }
func (r *treeReader) attr(name xmlutil.Name) (string, bool) { return r.top().el.Attr(name) }
func (r *treeReader) qname(s string) (xmlutil.Name, error)  { return r.top().el.ResolveQName(s) }

func (r *treeReader) raw() (xmlutil.Raw, error) {
	return xmlutil.Raw{}, fmt.Errorf("xsd: a []xmlutil.Raw field is read from a message's bytes only")
}

func (r *treeReader) tree() (*xmlutil.Element, error) {
	el := r.top().el
	r.stack = r.stack[:len(r.stack)-1]
	return el, nil
}

func (r *treeReader) unwind(depth int) error {
	r.stack = r.stack[:depth]
	return nil
}

func (r *treeReader) scalar(dst reflect.Value) error {
	text := r.top().el.Text()
	r.stack = r.stack[:len(r.stack)-1]
	if dst.Kind() == reflect.String {
		dst.SetString(text) // the tree's text is a string already
		return nil
	}
	return setSimple(dst, []byte(strings.TrimSpace(text)))
}
