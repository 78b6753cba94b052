// Package soap implements the SOAP 1.1 envelope model used for every
// message exchanged by WSPeer: envelope construction and parsing, header
// blocks with mustUnderstand/actor semantics, and faults that round-trip as
// Go errors.
//
// Header blocks and faults are element trees; a body on a call path never
// is. Going out it is an xsd.Wrapper — Go values — and Marshal writes the
// Envelope/Header/Body shell and the header blocks into the pooled writer
// and lets the values' plans append the rest. Coming in, Parse scans the
// whole message, builds the Header and leaves the Body in the message's
// bytes, which the envelope aliases from then on (every transport hands a
// message over in a buffer of its own); DecodeBody scans them again,
// straight into Go values. Body and FirstBodyElement still answer with
// trees, built at the first call, for whoever wants one.
package soap

import (
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

// Standard SOAP 1.1 fault codes.
var (
	FaultVersionMismatch = xmlutil.N(Namespace, "VersionMismatch")
	FaultMustUnderstand  = xmlutil.N(Namespace, "MustUnderstand")
	FaultClient          = xmlutil.N(Namespace, "Client")
	FaultServer          = xmlutil.N(Namespace, "Server")
)

// Envelope is a SOAP message: an ordered list of header blocks and either a
// body or a fault. Envelopes carry their SOAP version (1.1 by default);
// responses should be built with the request's version. The body is held
// the way it came: trees, Go values or a parsed message's bytes.
type Envelope struct {
	version Version
	headers []*xmlutil.Element
	fault   *Fault

	wrapper *xsd.Wrapper // the body as Go values
	raw     []byte       // the parsed message the body is still in
	bodyAt  int          // where the Body's start tag begins in raw
	first   xmlutil.Name // the first element in raw's Body; zero if it is empty
	trees   sync.Once    // body has been built from wrapper or raw
	body    []*xmlutil.Element
}

var bodyTrees atomic.Int64

// BodyTreesBuilt counts the parsed message bodies built as trees so far: a
// call path builds none.
func BodyTreesBuilt() int64 { return bodyTrees.Load() }

// NewEnvelope returns an empty SOAP 1.1 envelope.
func NewEnvelope() *Envelope { return &Envelope{} }

// NewEnvelopeV returns an empty envelope of the given version.
func NewEnvelopeV(v Version) *Envelope { return &Envelope{version: v} }

// Version returns the envelope's SOAP version.
func (e *Envelope) Version() Version { return e.version }

// AddHeader appends a header block, which the envelope only ever reads: a
// block may stand in any number of envelopes at once.
func (e *Envelope) AddHeader(block *xmlutil.Element) *Envelope {
	e.headers = append(e.headers, block)
	return e
}

// Headers returns the header blocks in order.
func (e *Envelope) Headers() []*xmlutil.Element { return e.headers }

// Header returns the first header block with the given name, or nil.
func (e *Envelope) Header(name xmlutil.Name) *xmlutil.Element {
	for _, h := range e.headers {
		if h.Name == name {
			return h
		}
	}
	return nil
}

// AddBodyElement appends a body child. It panics if the envelope already
// carries a fault, which is a programming error.
func (e *Envelope) AddBodyElement(el *xmlutil.Element) *Envelope {
	if e.fault != nil {
		panic("soap: cannot add body elements to a fault envelope")
	}
	e.body = append(e.Body(), el)
	e.wrapper, e.raw = nil, nil // the body is its trees from here on
	return e
}

// SetBody makes w the envelope's only body element.
func (e *Envelope) SetBody(w *xsd.Wrapper) *Envelope {
	*e = Envelope{version: e.version, headers: e.headers, wrapper: w}
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
		case e.raw != nil:
			bodyTrees.Add(1)
			e.body = e.bodyTree().Elements()
		}
	})
	return e.body
}

// scanBody returns a scanner that has just returned a parsed message's Body
// start tag, past the envelope's (read again for its declarations) and the
// Header. Parse has scanned these bytes: no error is met from here on.
func (e *Envelope) scanBody() *xmlutil.Tokenizer {
	t := xmlutil.AcquireTokenizer(e.raw)
	t.Next()
	t.Seek(e.bodyAt)
	t.Next()
	return t
}

// bodyTree builds a parsed message's Body element.
func (e *Envelope) bodyTree() *xmlutil.Element {
	t := e.scanBody()
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
	case e.raw != nil:
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
	if e.raw == nil {
		first := e.FirstBodyElement()
		if first == nil {
			return -1, fmt.Errorf("soap: empty Body")
		}
		return xsd.DecodeElement(first, ns, parts, dst)
	}
	t := e.scanBody()
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
	*e = Envelope{version: e.version, headers: e.headers, fault: f}
	return e
}

// Fault returns the envelope's fault, or nil.
func (e *Envelope) Fault() *Fault { return e.fault }

// IsFault reports whether the envelope carries a fault.
func (e *Envelope) IsFault() bool { return e.fault != nil }

// SetMustUnderstand marks a header block with soapenv:mustUnderstand="1".
// The attribute is written in the 1.1 namespace and normalized to the
// envelope's version when the envelope is marshalled.
func SetMustUnderstand(block *xmlutil.Element) {
	block.SetAttr(xmlutil.N(Namespace, "mustUnderstand"), "1")
}

// MustUnderstand reports whether a header block requires understanding,
// in either SOAP version's vocabulary.
func MustUnderstand(block *xmlutil.Element) bool {
	if v, ok := block.Attr(xmlutil.N(Namespace, "mustUnderstand")); ok {
		return v == "1" || v == "true"
	}
	v, ok := block.Attr(xmlutil.N(Namespace12, "mustUnderstand"))
	return ok && (v == "1" || v == "true")
}

// SetActor targets a header block at a specific actor URI.
func SetActor(block *xmlutil.Element, actor string) {
	block.SetAttr(xmlutil.N(Namespace, "actor"), actor)
}

// Actor returns a header block's actor URI ("" when absent).
func Actor(block *xmlutil.Element) string {
	v, _ := block.Attr(xmlutil.N(Namespace, "actor"))
	return v
}

// Element renders the envelope as an element tree in its version's
// namespace, the caller's to edit: header blocks (their mustUnderstand and
// actor/role attributes normalized to the version) and body are cloned.
func (e *Envelope) Element() *xmlutil.Element {
	ns := e.version.Namespace()
	root := xmlutil.NewElement(xmlutil.N(ns, "Envelope"))
	root.DeclarePrefix("soapenv", ns)
	if len(e.headers) > 0 {
		hdr := root.NewChild(xmlutil.N(ns, "Header"))
		for _, h := range e.headers {
			hc := h.Clone()
			normalizeHeaderAttrs(hc, e.version)
			hdr.AddChild(hc)
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

// normalizeHeaderAttrs rewrites version-scoped header attributes into the
// target version's vocabulary.
func normalizeHeaderAttrs(block *xmlutil.Element, v Version) {
	from, to := Namespace12, Namespace
	actorFrom, actorTo := "role", "actor"
	if v == SOAP12 {
		from, to = Namespace, Namespace12
		actorFrom, actorTo = "actor", "role"
	}
	if val, ok := block.Attr(xmlutil.N(from, "mustUnderstand")); ok {
		block.Attrs = removeAttr(block.Attrs, xmlutil.N(from, "mustUnderstand"))
		block.SetAttr(xmlutil.N(to, "mustUnderstand"), val)
	}
	if val, ok := block.Attr(xmlutil.N(from, actorFrom)); ok {
		block.Attrs = removeAttr(block.Attrs, xmlutil.N(from, actorFrom))
		block.SetAttr(xmlutil.N(to, actorTo), val)
	}
}

func removeAttr(attrs []xmlutil.Attr, name xmlutil.Name) []xmlutil.Attr {
	out := attrs[:0]
	for _, a := range attrs {
		if a.Name != name {
			out = append(out, a)
		}
	}
	return out
}

// block returns a header block as it is marshalled: itself, or a rewritten
// clone if it carries attributes in the other SOAP version's vocabulary.
func (e *Envelope) block(h *xmlutil.Element) *xmlutil.Element {
	from, actor := Namespace12, "role"
	if e.version == SOAP12 {
		from, actor = Namespace, "actor"
	}
	_, mustUnderstand := h.Attr(xmlutil.N(from, "mustUnderstand"))
	if _, targeted := h.Attr(xmlutil.N(from, actor)); mustUnderstand || targeted {
		h = h.Clone()
		normalizeHeaderAttrs(h, e.version)
	}
	return h
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
	for _, h := range e.headers {
		w.Collect(e.block(h))
	}
	var body []*xmlutil.Element
	switch {
	case e.fault != nil:
		body = []*xmlutil.Element{e.fault.tree(e.version)}
	case e.wrapper != nil:
		w.Assign(e.wrapper.Name.Space)
	default:
		body = e.Body()
	}
	for _, b := range body {
		w.Collect(b)
	}

	env := w.Prefix(ns)
	w.OpenRoot(env, "Envelope")
	if len(e.headers) > 0 {
		mark := w.Open(env, "Header")
		for _, h := range e.headers {
			w.Tree(e.block(h))
		}
		w.Close(env, "Header", mark)
	}
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
// after the wrapper, after the envelope — is refused here; the Header is
// built as a tree, a Fault is read, any other Body stays bytes.
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
	var header, faulted bool
	for depth := t.Depth(); ; {
		kind, err := t.Next()
		if err != nil {
			return malformed(err)
		}
		if kind == xmlutil.TokenEOF {
			break
		}
		// Only the envelope's own children are looked at: its first Header
		// and its first Body.
		if kind != xmlutil.TokenStart || t.Depth() != depth+1 || env == nil || t.Space != ns {
			continue
		}
		switch {
		case !header && string(t.Local) == "Header":
			header = true
			h, err := t.Element()
			if err != nil {
				return malformed(err)
			}
			env.headers = h.Elements()
		case env.raw == nil && string(t.Local) == "Body":
			env.raw, env.bodyAt = data, t.TagOffset()
			for t.Depth() > depth {
				kind, err := t.Next()
				if err != nil {
					return malformed(err)
				}
				if kind == xmlutil.TokenStart && t.Depth() == depth+2 {
					if env.first.Local == "" {
						env.first = t.Name()
					}
					faulted = faulted || (t.Space == ns && string(t.Local) == "Fault")
				}
			}
		}
	}
	switch {
	case env == nil && root.Local == "Envelope":
		return nil, &VersionMismatchError{Got: root.Space}
	case env == nil:
		return nil, fmt.Errorf("soap: document element is %v, not Envelope", root)
	case env.raw == nil:
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
