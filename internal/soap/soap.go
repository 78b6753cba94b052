// Package soap implements the SOAP 1.1 envelope model used for every
// message exchanged by WSPeer: envelope construction and parsing, header
// blocks with mustUnderstand/actor semantics, and faults that round-trip as
// Go errors.
//
// Faults are element trees; a header or a body on a call path never is.
// Going out, the body is an xsd.Wrapper and the header blocks are values
// (HeaderValue: the addressing headers, a TextHeader), and Marshal writes the
// Envelope/Header/Body shell, the blocks and the body's values into one
// pooled writer. Coming in, Parse scans the whole message, notes one
// HeaderInfo per header block — enough for mustUnderstand processing — and
// leaves Header and Body in the message's bytes, which the envelope aliases
// from then on (every transport hands a message over in a buffer of its
// own); DecodeHeader, HeaderText and DecodeBody read them again, straight
// into Go values. Headers, Header, Body and FirstBodyElement still answer
// with trees, built at the first call, for whoever wants one.
package soap

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sync"
	"sync/atomic"

	"wspeer/internal/xmlutil"
	"wspeer/internal/xsd"
)

// Namespace is the SOAP 1.1 envelope namespace.
const Namespace = "http://schemas.xmlsoap.org/soap/envelope/"

// ContentType is the media type of SOAP 1.1 messages over HTTP.
const ContentType = "text/xml; charset=utf-8"

// ActorNext is the well-known actor URI addressing the first node that
// processes the message.
const ActorNext = "http://schemas.xmlsoap.org/soap/actor/next"

// MaxHeaderBlocks is how many header blocks Parse accepts in one message: a
// stranger's header costs an index entry per block, and no more of them.
const MaxHeaderBlocks = 256

// Standard SOAP 1.1 fault codes.
var (
	FaultVersionMismatch = xmlutil.N(Namespace, "VersionMismatch")
	FaultMustUnderstand  = xmlutil.N(Namespace, "MustUnderstand")
	FaultClient          = xmlutil.N(Namespace, "Client")
	FaultServer          = xmlutil.N(Namespace, "Server")
)

// Envelope is a SOAP message: an ordered list of header blocks and either a
// body or a fault. Envelopes carry their SOAP version (1.1 by default);
// responses should be built with the request's version. Header and body are
// held the way they came: values, trees or a parsed message's bytes.
type Envelope struct {
	version Version
	fault   *Fault
	raw     []byte // the parsed message

	blocks []HeaderValue // a built envelope's header blocks, in order
	header *parsedHeader // a parsed message's Header, if it has one

	wrapper *xsd.Wrapper // the body as Go values
	bodyAt  int          // where the Body's start tag begins in raw; 0: the body is not raw's
	first   xmlutil.Name // the first element in raw's Body; zero if it is empty
	trees   sync.Once    // body has been built from wrapper or raw
	body    []*xmlutil.Element
}

// parsedHeader is where a parsed message's Header starts, what Parse noted
// of each block, and the trees built from them on demand.
type parsedHeader struct {
	at    int
	index []HeaderInfo
	few   [6]HeaderInfo // index's backing array, for the headers the bindings send
	once  sync.Once
	trees []*xmlutil.Element
}

var bodyTrees, headerTrees atomic.Int64

// BodyTreesBuilt counts the parsed message bodies built as trees so far: a
// call path builds none.
func BodyTreesBuilt() int64 { return bodyTrees.Load() }

// HeaderTreesBuilt counts the parsed message headers built as trees so far:
// a call path builds none.
func HeaderTreesBuilt() int64 { return headerTrees.Load() }

// NewEnvelope returns an empty SOAP 1.1 envelope.
func NewEnvelope() *Envelope { return &Envelope{} }

// NewEnvelopeV returns an empty envelope of the given version.
func NewEnvelopeV(v Version) *Envelope { return &Envelope{version: v} }

// NewBodyEnvelope returns an envelope of version v whose only body element is
// the wrapper it returns, called name: one allocation, kept out of Envelope.
func NewBodyEnvelope(v Version, name xmlutil.Name) (*Envelope, *xsd.Wrapper) {
	b := &struct {
		env  Envelope
		body xsd.Wrapper
	}{Envelope{version: v}, xsd.Wrapper{Name: name}}
	b.env.wrapper = &b.body
	return &b.env, &b.body
}

// Version returns the envelope's SOAP version.
func (e *Envelope) Version() Version { return e.version }

// AddHeader appends a header block, which the envelope only ever reads: a
// block may stand in any number of envelopes at once.
func (e *Envelope) AddHeader(block *xmlutil.Element) *Envelope {
	return e.AddHeaderValue(treeBlock{block})
}

// AddHeaderValue appends header blocks held as a value, which the envelope
// reads whenever it is marshalled: it must not change meanwhile.
func (e *Envelope) AddHeaderValue(v HeaderValue) *Envelope {
	if e.header != nil { // a parsed message's blocks become trees to add to
		for _, h := range e.Headers() {
			e.blocks = append(e.blocks, treeBlock{h})
		}
		e.header = nil
	}
	e.blocks = append(e.blocks, v)
	return e
}

// parsed is the envelope the header is read from: this one if it was
// parsed, or what Parse reads back from a built one's bytes.
func (e *Envelope) parsed() *Envelope {
	if e.header == nil && len(e.blocks) > 0 {
		if p, err := Parse(e.Marshal()); err == nil {
			return p
		}
	}
	return e
}

// Headers returns the header blocks in order, built from the message at
// the first call; concurrent callers share them.
func (e *Envelope) Headers() []*xmlutil.Element {
	p := e.parsed()
	h := p.header
	if h == nil {
		return nil
	}
	h.once.Do(func() {
		headerTrees.Add(1)
		t := p.scan(h.at)
		defer t.Release()
		hdr, _ := t.Element()
		h.trees = hdr.Elements()
	})
	return h.trees
}

// Header returns the first header block with the given name, or nil.
func (e *Envelope) Header(name xmlutil.Name) *xmlutil.Element {
	for _, h := range e.Headers() {
		if h.Name == name {
			return h
		}
	}
	return nil
}

// HeaderIndex lists what mustUnderstand processing needs of each header
// block, without building the blocks, in a slice the envelope keeps (read
// it, do not change it).
func (e *Envelope) HeaderIndex() []HeaderInfo {
	if h := e.parsed().header; h != nil {
		return h.index
	}
	return nil
}

// HeaderText is the trimmed text of the first header block with the given
// name, read without building the block; ok is false if there is none.
func (e *Envelope) HeaderText(name xmlutil.Name) (text string, ok bool) {
	p := e.parsed()
	for _, h := range p.HeaderIndex() {
		if h.Name == name {
			t := p.scan(p.header.at)
			defer t.Release()
			t.Seek(h.at)
			t.Next()
			b, _ := t.CharData()
			return string(bytes.TrimSpace(b)), true
		}
	}
	return "", false
}

// DecodeHeader decodes the header blocks into dst, settable, through its xsd
// plan: a struct's fields are the blocks they name in ns.
func (e *Envelope) DecodeHeader(ns string, dst reflect.Value) error {
	p := e.parsed()
	if p.header == nil {
		return nil
	}
	t := p.scan(p.header.at)
	defer t.Release()
	return xsd.DecodeValue(t, ns, dst)
}

// AddBodyElement appends a body child. It panics if the envelope already
// carries a fault, which is a programming error.
func (e *Envelope) AddBodyElement(el *xmlutil.Element) *Envelope {
	if e.fault != nil {
		panic("soap: cannot add body elements to a fault envelope")
	}
	e.body = append(e.Body(), el)
	e.wrapper, e.bodyAt = nil, 0 // the body is its trees from here on
	return e
}

// Body returns the body elements in order (nil for fault envelopes), built
// at the first call if the body is held as values or bytes; concurrent
// callers share them.
func (e *Envelope) Body() []*xmlutil.Element {
	e.trees.Do(func() {
		switch {
		case e.wrapper != nil:
			e.body = []*xmlutil.Element{e.wrapper.Element()}
		case e.bodyAt > 0:
			bodyTrees.Add(1)
			e.body = e.bodyTree().Elements()
		}
	})
	return e.body
}

// scan returns a scanner over a parsed message that has just returned the
// start tag at offset at — the Header's or the Body's — past the
// envelope's (read again for its declarations). Parse has scanned these
// bytes: no error is met from here on.
func (e *Envelope) scan(at int) *xmlutil.Tokenizer {
	t := xmlutil.AcquireTokenizer(e.raw)
	t.Next()
	t.Seek(at)
	t.Next()
	return t
}

// bodyTree builds a parsed message's Body element.
func (e *Envelope) bodyTree() *xmlutil.Element {
	t := e.scan(e.bodyAt)
	defer t.Release()
	body, _ := t.Element()
	return body
}

// FirstBodyElement returns the first body element, or nil.
func (e *Envelope) FirstBodyElement() *xmlutil.Element {
	if body := e.Body(); len(body) > 0 {
		return body[0]
	}
	return nil
}

// FirstBodyName returns the name of the first body element, which names
// the operation, without building anything; ok is false for an empty body.
func (e *Envelope) FirstBodyName() (name xmlutil.Name, ok bool) {
	switch {
	case e.bodyAt > 0:
		name = e.first
	case e.wrapper != nil:
		name = e.wrapper.Name
	case len(e.body) > 0:
		name = e.body[0].Name
	}
	return name, name.Local != ""
}

// DecodeBody is xsd.DecodeTokens over the first body element; a parsed
// message's is decoded from its bytes, as often as asked.
func (e *Envelope) DecodeBody(ns string, parts []xsd.Field, dst []reflect.Value) (int, error) {
	if e.bodyAt == 0 {
		first := e.FirstBodyElement()
		if first == nil {
			return -1, fmt.Errorf("soap: empty Body")
		}
		return xsd.DecodeElement(first, ns, parts, dst)
	}
	t := e.scan(e.bodyAt)
	defer t.Release()
	for { // on to the first child's start tag
		switch kind, err := t.Next(); {
		case err != nil:
			return -1, err
		case kind == xmlutil.TokenStart:
			return xsd.DecodeTokens(t, ns, parts, dst)
		case kind != xmlutil.TokenText:
			return -1, fmt.Errorf("soap: empty Body")
		}
	}
}

// SetFault makes the envelope a fault message, discarding body elements.
func (e *Envelope) SetFault(f *Fault) *Envelope {
	*e = Envelope{version: e.version, raw: e.raw, blocks: e.blocks, header: e.header, fault: f}
	return e
}

// Fault returns the envelope's fault, or nil.
func (e *Envelope) Fault() *Fault { return e.fault }

// IsFault reports whether the envelope carries a fault.
func (e *Envelope) IsFault() bool { return e.fault != nil }

// Element renders the envelope as an element tree in its version's
// namespace, the caller's to edit: header blocks (their mustUnderstand and
// actor/role attributes normalized to the version) and body are cloned.
func (e *Envelope) Element() *xmlutil.Element {
	ns := e.version.Namespace()
	root := xmlutil.NewElement(xmlutil.N(ns, "Envelope"))
	root.DeclarePrefix("soapenv", ns)
	if headers := e.Headers(); len(headers) > 0 {
		hdr := root.NewChild(xmlutil.N(ns, "Header"))
		for _, h := range headers {
			hdr.AddChild(normalized(h.Clone(), e.version))
		}
	}
	body := root.NewChild(xmlutil.N(ns, "Body"))
	if e.fault != nil {
		body.AddChild(e.fault.tree(e.version))
	}
	for _, b := range e.Body() {
		body.AddChild(b.Clone())
	}
	return root
}

// write serializes the envelope into a pooled writer: the bytes
// xmlutil.Marshal gives for Element(), without the tree. Prefixes are
// assigned in the order a walk of that tree meets the namespaces — the
// envelope's, the header blocks', the body's — so ns1, ns2, … number the
// same. Nothing the envelope holds is written to: blocks and body trees
// may stand in envelopes marshalled concurrently.
func (e *Envelope) write() *xmlutil.Writer {
	w := xmlutil.AcquireWriter()
	ns := e.version.Namespace()
	w.Assign(ns)
	blocks := e.blocks
	if e.header != nil { // a parsed message's are written from their trees
		blocks = nil
		for _, h := range e.Headers() {
			blocks = append(blocks, treeBlock{h})
		}
	}
	hw := headerWriters.Get().(*HeaderWriter)
	*hw = HeaderWriter{w: w, assign: true, v: e.version}
	for _, b := range blocks {
		b.WriteHeader(hw)
	}
	var body []*xmlutil.Element
	switch {
	case e.fault != nil:
		body = []*xmlutil.Element{e.fault.tree(e.version)}
	case e.wrapper != nil:
		e.wrapper.Assign(w)
	default:
		body = e.Body()
	}
	for _, b := range body {
		w.Collect(b)
	}

	env := w.Prefix(ns)
	w.StartRoot(env, "Envelope")
	w.Enter()
	if len(blocks) > 0 {
		mark := w.Open(env, "Header")
		hw.assign = false
		for _, b := range blocks {
			b.WriteHeader(hw)
		}
		w.Close(env, "Header", mark)
	}
	*hw = HeaderWriter{}
	headerWriters.Put(hw)
	mark := w.Open(env, "Body")
	if e.wrapper != nil {
		e.wrapper.WriteXML(w)
	} else {
		for _, b := range body {
			w.Tree(b)
		}
	}
	w.Close(env, "Body", mark)
	w.Close(env, "Envelope", 0)
	return w
}

// Marshal serializes the envelope to bytes, freshly allocated.
func (e *Envelope) Marshal() []byte { return e.write().Finish() }

// MarshalTo serializes the envelope directly to dst with no intermediate
// byte-slice copy — the streaming counterpart of Marshal for response
// writers and sockets.
func (e *Envelope) MarshalTo(dst io.Writer) error { return e.write().FinishTo(dst) }

// Parse reads an envelope of either SOAP version from bytes, which it goes
// on to alias. The whole message is scanned, so malformed XML anywhere —
// after the wrapper, after the envelope — is refused here, and so is a
// Header of more than MaxHeaderBlocks blocks; a Fault is read, Header and
// any other Body stay bytes.
func Parse(data []byte) (*Envelope, error) {
	t := xmlutil.AcquireTokenizer(data)
	defer t.Release()
	malformed := func(err error) (*Envelope, error) { return nil, fmt.Errorf("soap: %w", err) }
	if _, err := t.Next(); err != nil { // the document element's start tag, or no document
		return malformed(err)
	}
	root := t.Name()
	var env *Envelope // nil if the document is no envelope: it is still scanned to its end
	var ns string
	switch root {
	case xmlutil.N(Namespace, "Envelope"):
		env, ns = NewEnvelope(), Namespace
	case xmlutil.N(Namespace12, "Envelope"):
		env, ns = NewEnvelopeV(SOAP12), Namespace12
	}
	var faulted bool
	for depth := t.Depth(); ; {
		kind, err := t.Next()
		if err != nil {
			return malformed(err)
		}
		if kind == xmlutil.TokenEOF {
			break
		}
		// Only the envelope's own children are looked at: its first Header
		// and its first Body; of their children, only the start tags.
		if kind != xmlutil.TokenStart || t.Depth() != depth+1 || env == nil || t.Space != ns {
			continue
		}
		header := env.header == nil && string(t.Local) == "Header"
		if !header && (env.bodyAt > 0 || string(t.Local) != "Body") {
			continue
		}
		env.raw = data
		if header {
			env.header = &parsedHeader{at: t.TagOffset()}
			env.header.index = env.header.few[:0]
		} else {
			env.bodyAt = t.TagOffset()
		}
		for t.Depth() > depth {
			kind, err := t.Next()
			if err != nil {
				return malformed(err)
			}
			switch {
			case kind != xmlutil.TokenStart || t.Depth() != depth+2:
			case header && len(env.header.index) == MaxHeaderBlocks:
				return nil, fmt.Errorf("soap: a Header of more than %d blocks", MaxHeaderBlocks)
			case header:
				mu, role := blockAttrs(t.Attr)
				env.header.index = append(env.header.index, HeaderInfo{Name: t.Name(), MustUnderstand: mu, Role: role, at: t.TagOffset()})
			case env.first.Local == "":
				env.first = t.Name()
				fallthrough
			default:
				faulted = faulted || (t.Space == ns && string(t.Local) == "Fault")
			}
		}
	}
	switch {
	case env == nil && root.Local == "Envelope":
		return nil, &VersionMismatchError{Got: root.Space}
	case env == nil:
		return nil, fmt.Errorf("soap: document element is %v, not Envelope", root)
	case env.bodyAt == 0:
		return nil, fmt.Errorf("soap: envelope has no Body")
	case !faulted:
		return env, nil
	}
	// A fault is a document: it is read from a tree.
	parseFault := faultFromElement
	if env.version == SOAP12 {
		parseFault = faultFromElement12
	}
	fault, err := parseFault(env.bodyTree().Child(xmlutil.N(ns, "Fault")))
	if err != nil {
		return nil, err
	}
	return env.SetFault(fault), nil
}

// VersionMismatchError reports an envelope in an unsupported SOAP version's
// namespace.
type VersionMismatchError struct{ Got string }

// Error implements the error interface.
func (e *VersionMismatchError) Error() string {
	return fmt.Sprintf("soap: unsupported envelope namespace %q (SOAP 1.1 and 1.2 are supported)", e.Got)
}

// ---------------------------------------------------------------------------
// Faults

// Fault is a SOAP 1.1 fault. It implements error so engine and application
// code can return it directly.
type Fault struct {
	Code   xmlutil.Name // e.g. FaultServer
	String string       // human-readable explanation
	Actor  string       // optional URI of the faulting node
	Detail *xmlutil.Element
}

// NewFault constructs a fault with the given code and message.
func NewFault(code xmlutil.Name, format string, args ...interface{}) *Fault {
	return &Fault{Code: code, String: fmt.Sprintf(format, args...)}
}

// ServerFault wraps an application error as a Server fault.
func ServerFault(err error) *Fault {
	if f, ok := err.(*Fault); ok {
		return f
	}
	return NewFault(FaultServer, "%s", err.Error())
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("soap fault [%s]: %s", f.Code.Local, f.String)
}

// ErrorClass classifies faults for the telemetry flight recorder.
func (f *Fault) ErrorClass() string { return "fault" }

// IsClient reports whether the fault blames the sender.
func (f *Fault) IsClient() bool { return f.Code == FaultClient }

// tree renders the fault in a SOAP version's vocabulary.
func (f *Fault) tree(v Version) *xmlutil.Element {
	if v == SOAP12 {
		return f.element12()
	}
	return f.element()
}

func (f *Fault) element() *xmlutil.Element {
	el := xmlutil.NewElement(xmlutil.N(Namespace, "Fault"))
	// Per SOAP 1.1 the fault sub-elements are unqualified; faultcode holds
	// a QName value.
	code := el.NewChild(xmlutil.N("", "faultcode"))
	code.SetText(xmlutil.QNameValue(el, f.Code))
	el.NewChild(xmlutil.N("", "faultstring")).SetText(f.String)
	if f.Actor != "" {
		el.NewChild(xmlutil.N("", "faultactor")).SetText(f.Actor)
	}
	if f.Detail != nil {
		el.NewChild(xmlutil.N("", "detail")).AddChild(f.Detail.Clone())
	}
	return el
}

func faultFromElement(el *xmlutil.Element) (*Fault, error) {
	f := &Fault{}
	if c := el.ChildLocal("faultcode"); c != nil {
		qn, err := c.ResolveQName(c.TrimmedText())
		if err != nil {
			// Tolerate unresolvable prefixes from sloppy peers: keep local.
			qn = xmlutil.N("", c.TrimmedText())
		}
		f.Code = qn
	}
	if s := el.ChildLocal("faultstring"); s != nil {
		f.String = s.TrimmedText()
	}
	if a := el.ChildLocal("faultactor"); a != nil {
		f.Actor = a.TrimmedText()
	}
	if d := el.ChildLocal("detail"); d != nil {
		if kids := d.Elements(); len(kids) > 0 {
			f.Detail = kids[0]
		}
	}
	return f, nil
}
