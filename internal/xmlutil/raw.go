package xmlutil

import (
	"bytes"
	"encoding/xml"
	"slices"
	"strings"
)

// Raw is an element kept as the bytes it was read or written as, with the
// namespace declarations in scope at its start tag: a piece of one document
// that rides in others (an endpoint reference's property, a WSDL document's
// schema). It is decoded from its bytes (Tokenizer), written into another
// document from them (Writer.CollectRaw, Writer.Raw) and built as a tree
// only for whoever asks for one (Element). Its bytes are never written to.
type Raw struct {
	Name  Name
	data  []byte    // its start tag through its end tag
	scope []binding // the declarations in scope around it, not its own
	// written: data is what a Writer wrote in scope (FinishRaw), so a
	// writer giving scope's namespaces the same prefixes writes it again
	// byte for byte.
	written bool
}

// Raw is the element whose start tag Next has just returned, read through
// its end tag: its bytes are a view of the input.
func (p *Tokenizer) Raw() (Raw, error) {
	start, outer := p.tagStart, p.tags[len(p.tags)-1].scope
	r := Raw{Name: p.Name()}
	if err := p.SkipTo(len(p.tags) - 1); err != nil {
		return Raw{}, err
	}
	r.data = p.data[start:p.pos:p.pos]
	if outer > 0 {
		// One copy serves every Raw read in the same scope — its siblings,
		// and those of the next message that declares what this one did.
		if !slices.Equal(p.rawScope, p.scope[:outer]) {
			p.rawScope = slices.Clone(p.scope[:outer])
		}
		r.scope = p.rawScope
	}
	return r, nil
}

// Detach copies the bytes of rs into one allocation of their own, so that
// they no longer view the buffer they were read from.
func Detach(rs []Raw) {
	n := 0
	for _, r := range rs {
		n += len(r.data)
	}
	buf := make([]byte, 0, n)
	for i := range rs {
		at := len(buf)
		buf = append(buf, rs[i].data...)
		rs[i].data = buf[at:len(buf):len(buf)]
	}
}

// FinishRaw returns what was written — one element, written by hand after
// the namespaces it uses, and only those, were given prefixes, and without
// StartRoot — as a Raw called name, and releases the writer.
func (w *Writer) FinishRaw(name Name) Raw {
	same := len(w.rawScope) == len(w.prefixes)
	for _, b := range w.rawScope {
		same = same && w.prefixes[b.uri] == b.prefix
	}
	if !same { // a scope is shared by every Raw written with the same prefixes
		w.rawScope = make([]binding, 0, len(w.prefixes))
		for uri, prefix := range w.prefixes {
			w.rawScope = append(w.rawScope, binding{prefix: prefix, uri: uri})
		}
	}
	r := Raw{Name: name, data: bytes.Clone(w.b.Bytes()), scope: w.rawScope, written: true}
	w.release()
	return r
}

// Attributed reports whether r's start tag holds attributes or
// declarations.
func (r Raw) Attributed() bool {
	rest := bytes.TrimLeft(r.data[bytes.IndexAny(r.data, " \t\r\n/>"):], " \t\r\n")
	return rest[0] != '>' && rest[0] != '/'
}

// Tokenizer returns a pooled scanner that has just returned r's start tag,
// in r's scope: Release it.
func (r Raw) Tokenizer() (*Tokenizer, error) {
	t := AcquireTokenizer(r.data)
	t.scope = append(t.scope, r.scope...)
	if _, err := t.Next(); err != nil {
		t.Release()
		return nil, err
	}
	return t, nil
}

// Element builds r as a tree, which declares what r's start tag declares,
// as an element of a whole-document tree does: Tokenizer.Fragment.
func (r Raw) Element() (*Element, error) {
	t, err := r.Tokenizer()
	if err != nil {
		return nil, err
	}
	defer t.Release()
	return t.Fragment()
}

// CollectRaw is Collect for the tree r builds, without the tree.
func (w *Writer) CollectRaw(r Raw) { w.raw(r, true) }

// Raw is Tree for the tree r builds, without the tree.
func (w *Writer) Raw(r Raw) { w.raw(r, false) }

// raw writes r, or with collect gives its namespaces prefixes, from its
// tokens: in the order, and with the bytes, the tree Element builds would
// be walked and written in. r was read or written whole, so it scans.
func (w *Writer) raw(r Raw, collect bool) {
	if r.written && len(r.scope) == 1 { // one namespace: nothing to order
		switch b := r.scope[0]; {
		case collect:
			w.Assign(b.uri)
			return
		case w.prefixes[b.uri] == b.prefix:
			w.b.Write(r.data)
			return
		}
	}
	t, err := r.Tokenizer()
	if err != nil {
		return
	}
	defer t.Release()
	type open struct {
		prefix, local string
		mark          int
	}
	var few [8]open
	stack := few[:0]
	for kind := TokenStart; err == nil; kind, err = t.Next() {
		switch kind {
		case TokenStart:
			name := t.Name()
			if collect {
				w.collectTag(t, name)
				stack = append(stack, open{})
				continue
			}
			prefix := w.prefixes[name.Space]
			w.Start(prefix, name.Local)
			for _, a := range t.pend {
				w.Attr(Name{Space: t.resolve(a.name.prefix, false), Local: t.str(a.name.local)}, a.value)
			}
			stack = append(stack, open{prefix, name.Local, w.Enter()})
		case TokenText:
			if !collect && len(bytes.TrimSpace(t.text)) > 0 {
				w.escapeBytes(t.text)
			}
		case TokenEnd:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !collect {
				w.Close(top.prefix, top.local, top.mark)
			}
			if len(stack) == 0 {
				return
			}
		}
	}
}

// collectTag is Collect's visit of the element whose start tag t has just
// returned: its name, its attributes, then its own declarations by prefix
// (of two of one prefix, the later).
func (w *Writer) collectTag(t *Tokenizer, name Name) {
	w.Assign(name.Space)
	for _, a := range t.pend {
		w.Assign(t.resolve(a.name.prefix, false))
	}
	var few [8]binding
	decls := append(few[:0], t.scope[t.tags[len(t.tags)-1].scope:]...)
	slices.SortStableFunc(decls, func(a, b binding) int { return strings.Compare(a.prefix, b.prefix) })
	for i, d := range decls {
		if i+1 == len(decls) || decls[i+1].prefix != d.prefix {
			w.Declare(d.prefix, d.uri)
		}
	}
}

// escapeBytes is escapeText for character data held in bytes.
func (w *Writer) escapeBytes(b []byte) {
	for _, c := range b {
		if !plainTextByte(c) {
			xml.EscapeText(&w.b, b)
			return
		}
	}
	w.b.Write(b)
}
