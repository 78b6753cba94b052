// Package soap implements the SOAP 1.1 envelope model used for every
// message exchanged by WSPeer: envelope construction and parsing, header
// blocks with mustUnderstand/actor semantics, and faults that round-trip as
// Go errors.
//
// No header, body or fault on a call path is an element tree. Going out,
// the body is an xsd.Wrapper, the header blocks are values (HeaderValue:
// the addressing headers, a TextHeader) and a fault is a struct, and
// Marshal writes the Envelope/Header/Body shell, the blocks and the body's
// values or the fault's fields into one pooled writer. Coming in, Parse
// scans the whole message, notes one HeaderInfo per header block — enough
// for mustUnderstand processing — reads a fault's fields as it passes, and
// leaves Header and Body in the message's bytes, which the envelope aliases
// from then on (every transport hands a message over in a buffer of its
// own): a fault's detail views them too. DecodeHeader, HeaderText and
// DecodeBody read them again, straight into Go values. Headers, Header,
// Body and FirstBodyElement still answer with trees, built at the first
// call, for whoever wants one.
package soap

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

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
			t := e.scan(e.bodyAt)
			defer t.Release()
			body, _ := t.Element()
			e.body = body.Elements()
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
		e.fault.assign(w, e.version)
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
	switch {
	case e.fault != nil:
		e.fault.write(w, e.version)
	case e.wrapper != nil:
		e.wrapper.WriteXML(w)
	}
	for _, b := range body {
		w.Tree(b)
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
			case env.fault == nil:
				if t.Space == ns && string(t.Local) == "Fault" { // read here, through its end tag
					if env.fault, err = readFault(t, env.version); err != nil {
						return malformed(err)
					}
				}
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
	case env.fault == nil:
		return env, nil
	case env.fault.Code.Local == "" && env.version == SOAP12:
		return nil, fmt.Errorf("soap: 1.2 fault without a Code")
	}
	return env.SetFault(env.fault), nil
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

// Fault is a SOAP fault, in 1.1's terms (a 1.2 fault maps onto them). It
// implements error so engine and application code can return it directly.
type Fault struct {
	Code   xmlutil.Name // e.g. FaultServer
	String string       // human-readable explanation
	Actor  string       // optional URI of the faulting node
	// Detail is the detail's first element; a zero Name: none. A parsed
	// fault's is a view of the message.
	Detail xmlutil.Raw
}

// RetryAfterName is an overload fault's detail: the server's backoff in whole
// seconds, the binding-neutral form of HTTP's Retry-After header.
var RetryAfterName = xmlutil.N("http://wspeer.dev/resilience", "retryAfterSeconds")

// NewFault constructs a fault with the given code and message.
func NewFault(code xmlutil.Name, format string, args ...interface{}) *Fault {
	return &Fault{Code: code, String: fmt.Sprintf(format, args...)}
}

// ServerFault is the fault that answers err: err itself if it is one, that
// of the first error in its chain with a Fault method (an overload
// refusal's, which advertises the backoff), or a Server fault with err's
// text.
func ServerFault(err error) *Fault {
	switch e := err.(type) {
	case *Fault:
		return e
	case interface{ Fault() *Fault }: // a refusal as it comes: errors.As's target costs an allocation
		return e.Fault()
	}
	var faulter interface{ Fault() *Fault }
	if errors.As(err, &faulter) {
		return faulter.Fault()
	}
	return &Fault{Code: FaultServer, String: err.Error()}
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("soap fault [%s]: %s", f.Code.Local, f.String)
}

// ErrorClass classifies faults for the telemetry flight recorder.
func (f *Fault) ErrorClass() string { return "fault" }

// IsClient reports whether the fault blames the sender.
func (f *Fault) IsClient() bool { return f.Code == FaultClient }

// RetryAfterHint is the backoff an overload fault's detail advertises, 0
// for any other fault: pipeline.Retry floors its next delay on it, on
// every binding.
func (f *Fault) RetryAfterHint() time.Duration {
	var n int
	if t, err := f.Detail.Tokenizer(); err == nil {
		if text, _ := t.CharData(); f.Detail.Name == RetryAfterName {
			n, _ = strconv.Atoi(string(bytes.TrimSpace(text)))
		}
		t.Release()
	}
	return time.Duration(max(n, 0)) * time.Second
}

// assign gives the fault's namespaces prefixes: a 1.1 code's asks for its
// preferred one or q1 (1.2's is the envelope's), then the detail's.
func (f *Fault) assign(w *xmlutil.Writer, v Version) {
	if v == SOAP11 && f.Code.Space != "" {
		p, ok := xmlutil.PreferredPrefixes[f.Code.Space]
		if !ok {
			p = "q1"
		}
		w.Declare(p, f.Code.Space)
	}
	if !f.Detail.Name.IsZero() {
		w.CollectRaw(f.Detail)
	}
}

// faultChildren name a Fault's children in each version, in the order of
// Fault's fields, and the leaf under one that holds its content ("*": any
// element): 1.1's are unqualified, 1.2's in the envelope's namespace.
var faultChildren = [2][4][2]string{
	{{"faultcode"}, {"faultstring"}, {"faultactor"}, {"detail", "*"}},
	{{"Code", "Value"}, {"Reason", "Text"}, {"Role"}, {"Detail", "*"}},
}

// write writes the fault in v's vocabulary.
func (f *Fault) write(w *xmlutil.Writer, v Version) {
	env := w.Prefix(v.Namespace())
	names, ns := faultChildren[v], ""
	mark := w.Open(env, "Fault")
	if v == SOAP12 {
		ns = env
		code := w.Open(ns, "Code")
		writeQName(w, ns, "Value", faultCode12(f.Code))
		w.Close(ns, "Code", code)
		reason := w.Open(ns, "Reason")
		w.Start(ns, "Text")
		w.Attr(xmlutil.N("http://www.w3.org/XML/1998/namespace", "lang"), "en")
		text := w.Enter()
		w.Text(f.String)
		w.Close(ns, "Text", text)
		w.Close(ns, "Reason", reason)
	} else {
		writeQName(w, ns, names[0][0], f.Code)
		w.Leaf(ns, names[1][0], f.String)
	}
	if f.Actor != "" {
		w.Leaf(ns, names[2][0], f.Actor)
	}
	if !f.Detail.Name.IsZero() {
		detail := w.Open(ns, names[3][0])
		w.Raw(f.Detail)
		w.Close(ns, names[3][0], detail)
	}
	w.Close(env, "Fault", mark)
}

// writeQName writes a leaf holding name, prefixed as the writer assigned.
func writeQName(w *xmlutil.Writer, prefix, local string, name xmlutil.Name) {
	mark := w.Open(prefix, local)
	if p := w.Prefix(name.Space); p != "" {
		w.Buffer().WriteString(p)
		w.Buffer().WriteByte(':')
	}
	w.Text(name.Local)
	w.Close(prefix, local, mark)
}

// readFault reads the Fault whose start tag t has just returned, through
// its end tag: of its children, the first of each name v gives them.
func readFault(t *xmlutil.Tokenizer, v Version) (*Fault, error) {
	f := &Fault{}
	var seen [4]bool
	for depth := t.Depth(); ; {
		if ok, err := nextChild(t, depth, "", "*"); !ok {
			return f, err
		}
		i := slices.IndexFunc(faultChildren[v][:], func(names [2]string) bool { return names[0] == string(t.Local) })
		if i < 0 || seen[i] || v == SOAP12 && t.Space != Namespace12 {
			continue
		}
		seen[i] = true
		if err := f.read(t, v, i); err != nil {
			return nil, err
		}
	}
}

// read reads the Fault's child t has just started into field i.
func (f *Fault) read(t *xmlutil.Tokenizer, v Version, i int) (err error) {
	if leaf := faultChildren[v][i][1]; leaf != "" {
		if ok, err := nextChild(t, t.Depth(), Namespace12, leaf); !ok {
			return err
		}
	}
	if i == 3 {
		f.Detail, err = t.Raw()
		return err
	}
	text, err := t.CharData()
	s := string(bytes.TrimSpace(text))
	switch i {
	case 0:
		// A code whose prefix is undeclared in its own scope (a sloppy
		// peer's), or bound to no namespace, keeps its local part: no
		// declaration elsewhere in the message re-binds it once re-sent.
		if f.Code, _ = t.ResolveQName(s); f.Code.Space == "" {
			f.Code = xmlutil.N("", string(bytes.TrimSpace(text[bytes.LastIndexByte(text, ':')+1:])))
		}
		if v == SOAP12 {
			f.Code = canonicalFaultCode(f.Code)
		}
	case 1:
		f.String = s
	case 2:
		f.Actor = s
	}
	return err
}

// nextChild reads on to the start tag of the next child {space}local ("*":
// any child) of the element open at depth; false: there is none, and t has
// read through that element's end tag.
func nextChild(t *xmlutil.Tokenizer, depth int, space, local string) (bool, error) {
	for {
		kind, err := t.Next()
		switch {
		case err != nil:
			return false, err
		case kind == xmlutil.TokenEnd && t.Depth() < depth:
			return false, nil
		case kind == xmlutil.TokenStart && t.Depth() == depth+1 && (local == "*" || t.Space == space && string(t.Local) == local):
			return true, nil
		}
	}
}
