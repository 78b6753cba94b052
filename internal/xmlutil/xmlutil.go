// Package xmlutil provides a namespace-aware XML element tree.
//
// The standard encoding/xml struct marshalling cannot express the prefix
// and QName fidelity that SOAP, WSDL and P2PS advertisements require:
// qualified names appear not only as element and attribute names but also
// inside attribute values and character data (e.g. WSDL's
// element="tns:EchoRequest"). This package keeps namespace declarations as
// first-class scope information on each element so such references can be
// resolved, and serializes trees with deterministic prefix assignment.
package xmlutil

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Name is a namespace-qualified XML name. Space is the namespace URI (empty
// for unqualified names) and Local the local part.
type Name struct {
	Space string
	Local string
}

// N is shorthand for constructing a Name.
func N(space, local string) Name { return Name{Space: space, Local: local} }

// String renders the name in Clark notation: {space}local.
func (n Name) String() string {
	if n.Space == "" {
		return n.Local
	}
	return "{" + n.Space + "}" + n.Local
}

// IsZero reports whether the name is empty.
func (n Name) IsZero() bool { return n.Space == "" && n.Local == "" }

// Attr is a single attribute. Namespace declarations are not represented as
// Attrs; they live in the element's prefix scope.
type Attr struct {
	Name  Name
	Value string
}

// Node is a child of an Element: either *Element or Text.
type Node interface{ isNode() }

// Text is character data within an element.
type Text string

func (Text) isNode()     {}
func (*Element) isNode() {}

// Element is a node in the tree.
//
// An element whose only child node is character data — every scalar in
// every message — holds it in text and has no children slice. The moment a
// second node arrives (spill) the text becomes children[0] and text is
// emptied, so document order is kept and a non-empty text always means
// "sole child". Only writes move character data between the two forms;
// reads never do, so a parsed tree may be shared by concurrent readers.
type Element struct {
	Name     Name
	Attrs    []Attr
	text     string
	children []Node
	parent   *Element
	// nsDecls maps prefix -> namespace URI declared on this element.
	// The empty prefix is the default namespace.
	nsDecls map[string]string
}

// NewElement returns a parentless element with the given name.
func NewElement(name Name) *Element {
	return &Element{Name: name}
}

// Parent returns the enclosing element, or nil at the root.
func (e *Element) Parent() *Element { return e.parent }

// Elements returns all child elements in document order.
func (e *Element) Elements() []*Element {
	var out []*Element
	for _, n := range e.children {
		if el, ok := n.(*Element); ok {
			out = append(out, el)
		}
	}
	return out
}

// Children returns all child elements with the given name.
func (e *Element) Children(name Name) []*Element {
	var out []*Element
	for _, n := range e.children {
		if el, ok := n.(*Element); ok && el.Name == name {
			out = append(out, el)
		}
	}
	return out
}

// Child returns the first child element with the given name, or nil.
func (e *Element) Child(name Name) *Element {
	for _, n := range e.children {
		if el, ok := n.(*Element); ok && el.Name == name {
			return el
		}
	}
	return nil
}

// ChildLocal returns the first child element whose local name matches,
// regardless of namespace, or nil.
func (e *Element) ChildLocal(local string) *Element {
	for _, n := range e.children {
		if el, ok := n.(*Element); ok && el.Name.Local == local {
			return el
		}
	}
	return nil
}

// Find returns the first descendant (depth-first, including e itself) with
// the given name, or nil.
func (e *Element) Find(name Name) *Element {
	if e.Name == name {
		return e
	}
	for _, n := range e.children {
		if el, ok := n.(*Element); ok {
			if found := el.Find(name); found != nil {
				return found
			}
		}
	}
	return nil
}

// FindAll returns every descendant (including e itself) with the given name.
func (e *Element) FindAll(name Name) []*Element {
	var out []*Element
	e.walk(func(el *Element) {
		if el.Name == name {
			out = append(out, el)
		}
	})
	return out
}

func (e *Element) walk(f func(*Element)) {
	f(e)
	for _, n := range e.children {
		if el, ok := n.(*Element); ok {
			el.walk(f)
		}
	}
}

// AddChild appends child to e, detaching it from any previous parent.
func (e *Element) AddChild(child *Element) *Element {
	if child.parent != nil {
		child.parent.RemoveChild(child)
	}
	child.parent = e
	e.spill()
	e.children = append(e.children, child)
	return child
}

// AppendShared appends child to e without taking it over: child keeps the
// parent it has, or none, so one element (an endpoint reference's property)
// can stand in any number of trees at once. Such a tree is for reading —
// marshalling, cloning, walking; neither it nor child is edited again.
func (e *Element) AppendShared(child *Element) {
	e.spill()
	e.children = append(e.children, child)
}

// spill moves a sole text child into the general form, ahead of whatever
// the caller appends next.
func (e *Element) spill() {
	if e.text != "" {
		e.children = append(e.children, Text(e.text))
		e.text = ""
	}
}

// NewChild creates, appends and returns a new child element.
func (e *Element) NewChild(name Name) *Element {
	return e.AddChild(NewElement(name))
}

// DetachChildren removes every child node from e, clearing the parent link
// of child elements. It is the bulk counterpart of RemoveChild.
func (e *Element) DetachChildren() {
	for _, n := range e.children {
		if el, ok := n.(*Element); ok {
			el.parent = nil
		}
	}
	e.children = e.children[:0]
	e.text = ""
}

// RemoveChild removes the first occurrence of child from e's children.
// It reports whether the child was found.
func (e *Element) RemoveChild(child *Element) bool {
	for i, n := range e.children {
		if n == child {
			e.children = append(e.children[:i], e.children[i+1:]...)
			child.parent = nil
			if len(e.children) == 1 {
				if t, ok := e.children[0].(Text); ok { // sole text child again
					e.text, e.children = string(t), e.children[:0]
				}
			}
			return true
		}
	}
	return false
}

// AddText appends character data to e and returns e.
func (e *Element) AddText(s string) *Element {
	switch {
	case s == "":
	case e.text == "" && len(e.children) == 0:
		e.text = s
	default:
		e.spill()
		e.children = append(e.children, Text(s))
	}
	return e
}

// SetText replaces all children with a single text node.
func (e *Element) SetText(s string) *Element {
	e.DetachChildren()
	e.text = s
	return e
}

// Text returns the concatenation of all direct character-data children.
func (e *Element) Text() string {
	if len(e.children) == 0 {
		return e.text
	}
	var b strings.Builder
	for _, n := range e.children {
		if t, ok := n.(Text); ok {
			b.WriteString(string(t))
		}
	}
	return b.String()
}

// TrimmedText returns Text with surrounding whitespace removed.
func (e *Element) TrimmedText() string { return strings.TrimSpace(e.Text()) }

// Attr returns the value of the named attribute.
func (e *Element) Attr(name Name) (string, bool) {
	for _, a := range e.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SetAttr sets (or replaces) an attribute and returns e.
func (e *Element) SetAttr(name Name, value string) *Element {
	for i, a := range e.Attrs {
		if a.Name == name {
			e.Attrs[i].Value = value
			return e
		}
	}
	e.Attrs = append(e.Attrs, Attr{Name: name, Value: value})
	return e
}

// DeclarePrefix binds prefix to the namespace URI in this element's scope.
// An empty prefix declares the default namespace.
func (e *Element) DeclarePrefix(prefix, uri string) *Element {
	if e.nsDecls == nil {
		e.nsDecls = make(map[string]string)
	}
	e.nsDecls[prefix] = uri
	return e
}

// LookupPrefix resolves a prefix to a namespace URI using this element's
// scope and its ancestors. The "xml" prefix is built in.
func (e *Element) LookupPrefix(prefix string) (string, bool) {
	if prefix == "xml" {
		return "http://www.w3.org/XML/1998/namespace", true
	}
	for el := e; el != nil; el = el.parent {
		if uri, ok := el.nsDecls[prefix]; ok {
			return uri, ok
		}
	}
	return "", false
}

// PrefixFor searches the in-scope declarations for a prefix bound to uri.
func (e *Element) PrefixFor(uri string) (string, bool) {
	seen := map[string]bool{}
	for el := e; el != nil; el = el.parent {
		// Iterate deterministically for stable results.
		prefixes := make([]string, 0, len(el.nsDecls))
		for p := range el.nsDecls {
			prefixes = append(prefixes, p)
		}
		sort.Strings(prefixes)
		for _, p := range prefixes {
			if seen[p] {
				continue // shadowed by a nearer declaration
			}
			seen[p] = true
			if el.nsDecls[p] == uri {
				return p, true
			}
		}
	}
	return "", false
}

// ResolveQName resolves a lexical QName ("pfx:local" or "local") appearing
// in content or attribute values, using the element's in-scope namespace
// declarations. An unprefixed QName resolves to the default namespace if one
// is declared, otherwise to no namespace.
func (e *Element) ResolveQName(s string) (Name, error) { return resolveQName(s, e.LookupPrefix) }

// resolveQName is ResolveQName with the prefixes in scope looked up by
// lookup.
func resolveQName(s string, lookup func(prefix string) (string, bool)) (Name, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Name{}, fmt.Errorf("xmlutil: empty qname")
	}
	if i := strings.IndexByte(s, ':'); i >= 0 {
		prefix, local := s[:i], s[i+1:]
		if prefix == "" || local == "" {
			return Name{}, fmt.Errorf("xmlutil: malformed qname %q", s)
		}
		uri, ok := lookup(prefix)
		if !ok {
			return Name{}, fmt.Errorf("xmlutil: undeclared prefix %q in qname %q", prefix, s)
		}
		return Name{Space: uri, Local: local}, nil
	}
	uri, _ := lookup("")
	return Name{Space: uri, Local: s}, nil
}

// Clone returns a deep copy of the element (detached from any parent).
func (e *Element) Clone() *Element {
	c := &Element{Name: e.Name, text: e.text}
	if len(e.Attrs) > 0 {
		c.Attrs = append([]Attr(nil), e.Attrs...)
	}
	if len(e.nsDecls) > 0 {
		c.nsDecls = make(map[string]string, len(e.nsDecls))
		for k, v := range e.nsDecls {
			c.nsDecls[k] = v
		}
	}
	for _, n := range e.children {
		switch n := n.(type) {
		case Text:
			c.children = append(c.children, n)
		case *Element:
			cc := n.Clone()
			cc.parent = c
			c.children = append(c.children, cc)
		}
	}
	return c
}

// Equal reports whether two trees are semantically equal: same names,
// same attributes (order-insensitive), same child sequence, with character
// data compared after trimming surrounding whitespace on mixed content
// boundaries. Prefix choices and namespace declarations are ignored.
func Equal(a, b *Element) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Name != b.Name {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for _, attr := range a.Attrs {
		v, ok := b.Attr(attr.Name)
		if !ok || v != attr.Value {
			return false
		}
	}
	ac, bc := significantChildren(a), significantChildren(b)
	if len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		switch an := ac[i].(type) {
		case Text:
			bn, ok := bc[i].(Text)
			if !ok || an != bn {
				return false
			}
		case *Element:
			bn, ok := bc[i].(*Element)
			if !ok || !Equal(an, bn) {
				return false
			}
		}
	}
	return true
}

// significantChildren drops whitespace-only text nodes (indentation).
func significantChildren(e *Element) []Node {
	if e.text != "" && !isInsignificantWS(e.text) {
		return []Node{Text(e.text)}
	}
	var out []Node
	for _, n := range e.children {
		if t, ok := n.(Text); ok {
			if strings.TrimSpace(string(t)) == "" {
				continue
			}
		}
		out = append(out, n)
	}
	return out
}

// ---------------------------------------------------------------------------
// Parsing

// ParseString parses an XML document held in s.
func ParseString(s string) (*Element, error) { return ParseBytes([]byte(s)) }

// ---------------------------------------------------------------------------
// Serialization

// PreferredPrefixes maps namespace URIs to the prefixes a Writer should use
// for them. Well-known SOAP-stack namespaces get conventional prefixes.
var PreferredPrefixes = map[string]string{
	"http://schemas.xmlsoap.org/soap/envelope/":        "soapenv",
	"http://www.w3.org/2003/05/soap-envelope":          "soapenv",
	"http://schemas.xmlsoap.org/wsdl/":                 "wsdl",
	"http://schemas.xmlsoap.org/wsdl/soap/":            "wsdlsoap",
	"http://www.w3.org/2001/XMLSchema":                 "xsd",
	"http://www.w3.org/2001/XMLSchema-instance":        "xsi",
	"http://schemas.xmlsoap.org/ws/2004/08/addressing": "wsa",
}

// Writer serializes into a pooled buffer. Marshal drives it over a tree; a
// caller that knows its document's shape without building it (a SOAP
// envelope around a body written from Go values, a WSDL document) drives it
// by hand: Assign, Declare and Collect in the order a walk of the whole
// tree would meet the namespaces, then StartRoot / Attr / Enter, Open (or
// Start, Attr / QNameAttr, Enter) / Leaf / Tree / Close, then Finish or
// FinishTo — and gets the bytes Marshal gives for the tree.
type Writer struct {
	b        bytes.Buffer
	prefixes map[string]string // uri -> prefix, global assignment
	next     int
	scratch  []byte   // conversion buffer for the slow escape path
	uris     []string // declarations' sort buffer
	// The scope the last FinishRaw handed out, which no Raw writes to.
	rawScope []binding
	last     binding // the namespace Prefix last read, and its prefix; Assign forgets it
}

// writerPool recycles marshal writers — their byte buffers and prefix maps —
// so steady-state serialization performs no per-call buffer growth or map
// allocation. A writer obtained from the pool MUST be returned with Finish
// or FinishTo on every path; the bytes are copied out of (or flushed from)
// the pooled buffer before release, so callers never alias pooled memory.
var writerPool = sync.Pool{
	New: func() interface{} {
		return &Writer{prefixes: make(map[string]string, 8)}
	},
}

// maxPooledWriterCap bounds how much buffer capacity a pooled writer may
// retain. Writers that served an unusually large document are dropped
// instead of pinning their memory in the pool.
const maxPooledWriterCap = 1 << 20

// AcquireWriter returns an empty writer from the pool.
func AcquireWriter() *Writer { return writerPool.Get().(*Writer) }

func (w *Writer) release() {
	if w.b.Cap() > maxPooledWriterCap || len(w.prefixes) > 64 {
		return // oversized; let the GC have it
	}
	w.b.Reset()
	clear(w.prefixes)
	w.next, w.last = 0, binding{}
	writerPool.Put(w)
}

// Finish returns what was written, freshly allocated, and releases the
// writer.
func (w *Writer) Finish() []byte {
	out := make([]byte, w.b.Len())
	copy(out, w.b.Bytes())
	w.release()
	return out
}

// FinishTo writes what was written to dst with no retained copy, for
// callers that stream to a socket, and releases the writer.
func (w *Writer) FinishTo(dst io.Writer) error {
	_, err := dst.Write(w.b.Bytes())
	w.release()
	return err
}

// Marshal serializes the tree to a byte slice (no XML declaration, no
// whitespace between tags). The returned slice is freshly allocated and
// never aliases pooled memory.
func Marshal(e *Element) []byte { return AcquireWriter().run(e).Finish() }

// MarshalTo serializes the tree directly to dst, using a pooled
// intermediate buffer: the bytes are written once, with no retained copies.
func MarshalTo(dst io.Writer, e *Element) error { return AcquireWriter().run(e).FinishTo(dst) }

func (w *Writer) run(e *Element) *Writer {
	w.Collect(e)
	w.element(e, true)
	return w
}

// Collect assigns a prefix to every namespace URI used in the tree.
func (w *Writer) Collect(e *Element) {
	e.walk(func(el *Element) {
		w.Assign(el.Name.Space)
		for _, a := range el.Attrs {
			w.Assign(a.Name.Space)
		}
		// Honor explicit declarations so QNames in content keep resolving.
		prefixes := make([]string, 0, len(el.nsDecls))
		for p := range el.nsDecls {
			prefixes = append(prefixes, p)
		}
		sort.Strings(prefixes)
		for _, p := range prefixes {
			w.Declare(p, el.nsDecls[p])
		}
	})
}

// Declare honours a declaration of prefix for uri: uri gets prefix if it has
// none yet and prefix is free, the one Assign picks if it has none and
// prefix is taken. A default namespace declaration is not honoured.
func (w *Writer) Declare(prefix, uri string) {
	if prefix == "" || uri == "" {
		return
	}
	if _, ok := w.prefixes[uri]; !ok && !w.prefixUsed(prefix) {
		w.prefixes[uri] = prefix
	}
	w.Assign(uri)
}

// Assign gives uri a prefix if it has none: its preferred one if that is
// free, the next unused nsN otherwise.
func (w *Writer) Assign(uri string) {
	w.last = binding{} // Declare assigns through here too
	if uri == "" || uri == "http://www.w3.org/XML/1998/namespace" {
		return
	}
	if _, ok := w.prefixes[uri]; ok {
		return
	}
	if p, ok := PreferredPrefixes[uri]; ok && !w.prefixUsed(p) {
		w.prefixes[uri] = p
		return
	}
	for {
		w.next++
		if p := nsPrefix(w.next); !w.prefixUsed(p) {
			w.prefixes[uri] = p
			return
		}
	}
}

// nsPrefixes are the nsN a document commonly uses, made without allocating.
var nsPrefixes = [...]string{1: "ns1", "ns2", "ns3", "ns4", "ns5", "ns6", "ns7", "ns8"}

func nsPrefix(n int) string {
	if n < len(nsPrefixes) {
		return nsPrefixes[n]
	}
	return "ns" + strconv.Itoa(n)
}

func (w *Writer) prefixUsed(p string) bool {
	for _, used := range w.prefixes {
		if used == p {
			return true
		}
	}
	return false
}

// writeName writes the qualified lexical name for n straight into the
// buffer, avoiding the per-element string concatenation a qname() helper
// would cost.
func (w *Writer) writeName(n Name) {
	switch {
	case n.Space == "":
	case n.Space == "http://www.w3.org/XML/1998/namespace":
		w.b.WriteString("xml:")
	default:
		w.b.WriteString(w.prefixes[n.Space])
		w.b.WriteByte(':')
	}
	w.b.WriteString(n.Local)
}

// isInsignificantWS reports whether a text node is whitespace-only
// (indentation) and therefore skipped by serialization.
func isInsignificantWS(s string) bool { return strings.TrimSpace(s) == "" }

// declarations declares every assigned prefix: on the root, for a
// self-contained document.
func (w *Writer) declarations() {
	uris := w.uris[:0]
	for uri := range w.prefixes {
		uris = append(uris, uri)
	}
	sort.Strings(uris)
	for _, uri := range uris {
		w.b.WriteString(" xmlns:")
		w.b.WriteString(w.prefixes[uri])
		w.b.WriteString(`="`)
		w.escapeAttr(uri)
		w.b.WriteByte('"')
	}
	clear(uris) // a pooled writer does not pin a document's strings
	w.uris = uris
}

// Prefix is the prefix assigned to uri, "" for no namespace.
func (w *Writer) Prefix(uri string) string {
	if uri != w.last.uri { // elements run in one namespace: one lookup for them all
		w.last = binding{prefix: w.prefixes[uri], uri: uri}
	}
	return w.last.prefix
}

// Buffer is where the writer writes, for content formatted in place
// between an Open and its Close.
func (w *Writer) Buffer() *bytes.Buffer { return &w.b }

func (w *Writer) tag(open, prefix, local string) {
	w.b.WriteString(open)
	if prefix != "" {
		w.b.WriteString(prefix)
		w.b.WriteByte(':')
	}
	w.b.WriteString(local)
}

// StartRoot starts the document element's start tag, declaring every
// prefix assigned so far; attributes come after the declarations, as in a
// marshalled tree, and Enter ends it.
func (w *Writer) StartRoot(prefix, local string) {
	w.tag("<", prefix, local)
	w.declarations()
}

// Open writes a start tag and returns the mark its Close wants.
func (w *Writer) Open(prefix, local string) (mark int) {
	w.tag("<", prefix, local)
	return w.Enter()
}

// Start is Open for a start tag that goes on with attributes, up to its
// Enter.
func (w *Writer) Start(prefix, local string) {
	w.tag("<", prefix, local)
}

// Attr writes an attribute of the start tag being written.
func (w *Writer) Attr(name Name, value string) {
	w.b.WriteByte(' ')
	w.writeName(name)
	w.b.WriteString(`="`)
	w.escapeAttr(value)
	w.b.WriteByte('"')
}

// QNameAttr writes an attribute whose value is the lexical QName of value,
// with the prefix assigned to its namespace (none for no namespace).
func (w *Writer) QNameAttr(name Name, value Name) {
	w.b.WriteByte(' ')
	w.writeName(name)
	w.b.WriteString(`="`)
	if value.Space != "" {
		w.escapeAttr(w.prefixes[value.Space])
		w.b.WriteByte(':')
	}
	w.escapeAttr(value.Local)
	w.b.WriteByte('"')
}

// Enter ends the start tag being written and returns the mark its Close
// wants.
func (w *Writer) Enter() (mark int) {
	w.b.WriteByte('>')
	return w.b.Len()
}

// Close writes the end tag of the element Open returned mark for or, if
// nothing was written since, makes its start tag an empty-element tag: the
// form a tree's element without significant content takes.
func (w *Writer) Close(prefix, local string, mark int) {
	if w.b.Len() == mark {
		w.b.Truncate(mark - 1)
		w.b.WriteString("/>")
		return
	}
	w.tag("</", prefix, local)
	w.b.WriteByte('>')
}

// Leaf writes an element holding text.
func (w *Writer) Leaf(prefix, local, text string) {
	mark := w.Open(prefix, local)
	w.Text(text)
	w.Close(prefix, local, mark)
}

// Text writes character data, escaped; as in a tree, whitespace-only text
// is not significant.
func (w *Writer) Text(s string) {
	if !isInsignificantWS(s) {
		w.escapeText(s)
	}
}

// Tree writes e and everything under it, as a descendant of the root.
func (w *Writer) Tree(e *Element) { w.element(e, false) }

// element writes e and everything under it; the document element declares
// every prefix.
func (w *Writer) element(e *Element, root bool) {
	w.b.WriteByte('<')
	w.writeName(e.Name)
	if root {
		w.declarations()
	}
	for _, a := range e.Attrs {
		w.b.WriteByte(' ')
		w.writeName(a.Name)
		w.b.WriteString(`="`)
		w.escapeAttr(a.Value)
		w.b.WriteByte('"')
	}
	// Look for significant content without materializing the
	// significant-child slice: whitespace-only text nodes (indentation) are
	// not significant.
	hasSig := !isInsignificantWS(e.text)
	for _, n := range e.children {
		if t, ok := n.(Text); !ok || !isInsignificantWS(string(t)) {
			hasSig = true
			break
		}
	}
	if !hasSig {
		w.b.WriteString("/>")
		return
	}
	w.b.WriteByte('>')
	if len(e.children) == 0 {
		w.escapeText(e.text)
	}
	for _, n := range e.children {
		switch n := n.(type) {
		case Text:
			if !isInsignificantWS(string(n)) {
				w.escapeText(string(n))
			}
		case *Element:
			w.element(n, false)
		}
	}
	w.b.WriteString("</")
	w.writeName(e.Name)
	w.b.WriteByte('>')
}

// plainTextByte reports whether byte c can be emitted in character data
// verbatim: printable ASCII with no markup significance. Anything else
// (escapable characters, control bytes, multi-byte runes) takes the slow
// path through encoding/xml's escaper so output stays byte-identical with
// the standard library's rules.
func plainTextByte(c byte) bool {
	return c >= 0x20 && c < 0x80 && c != '&' && c != '<' && c != '>' && c != '"' && c != '\''
}

// escapeText writes character data into the buffer, escaping exactly as
// encoding/xml.EscapeText does. The common all-plain-ASCII case is written
// directly with no allocation.
func (w *Writer) escapeText(s string) {
	plain := true
	for i := 0; i < len(s); i++ {
		if !plainTextByte(s[i]) {
			plain = false
			break
		}
	}
	if plain {
		w.b.WriteString(s)
		return
	}
	w.scratch = append(w.scratch[:0], s...)
	if err := xml.EscapeText(&w.b, w.scratch); err != nil {
		w.b.WriteString(s)
	}
}

// escapeAttr writes an attribute value, escaping &, <, > and the quote
// character (the historical output format of this package), and a carriage
// return, which a parser would read back as a line feed. The common clean
// case is written directly with no allocation.
func (w *Writer) escapeAttr(s string) {
	start := 0
	for i := 0; i < len(s); i++ {
		var repl string
		switch s[i] {
		case '&':
			repl = "&amp;"
		case '<':
			repl = "&lt;"
		case '>':
			repl = "&gt;"
		case '"':
			repl = "&quot;"
		case '\r':
			repl = "&#xD;"
		default:
			continue
		}
		w.b.WriteString(s[start:i])
		w.b.WriteString(repl)
		start = i + 1
	}
	w.b.WriteString(s[start:])
}

// QNameValue renders name as a lexical QName for use in content, declaring
// the needed prefix on scope if it is not already in scope. It returns the
// lexical form ("pfx:local").
func QNameValue(scope *Element, name Name) string {
	if name.Space == "" {
		return name.Local
	}
	if p, ok := scope.PrefixFor(name.Space); ok && p != "" {
		return p + ":" + name.Local
	}
	p := PreferredPrefixes[name.Space]
	if p == "" {
		p = "q" + strconv.Itoa(len(scope.nsDecls)+1)
	}
	for {
		if _, taken := scope.LookupPrefix(p); !taken {
			break
		}
		p += "x"
	}
	scope.DeclarePrefix(p, name.Space)
	return p + ":" + name.Local
}
