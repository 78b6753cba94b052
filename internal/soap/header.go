package soap

import (
	"slices"
	"sync"

	"wspeer/internal/xmlutil"
)

// HeaderValue is header blocks held as a Go value, written with the
// envelope straight into its marshal writer.
type HeaderValue interface{ WriteHeader(hw *HeaderWriter) }

// HeaderInfo is what Parse notes of a header block without building it.
type HeaderInfo struct {
	Name           xmlutil.Name
	MustUnderstand bool   // in either version's vocabulary
	Role           string // its actor (1.1) or role (1.2); "" if it has none
	at             int    // where its start tag begins in the message
}

// TextHeader is a header block of text held as a value.
type TextHeader struct {
	Name           xmlutil.Name
	Text           string
	MustUnderstand bool
}

// WriteHeader implements HeaderValue.
func (h *TextHeader) WriteHeader(hw *HeaderWriter) { hw.Text(h.Name, h.Text, h.MustUnderstand) }

// treeBlock is a header block added as a tree.
type treeBlock struct{ el *xmlutil.Element }

func (b treeBlock) WriteHeader(hw *HeaderWriter) { hw.Tree(b.el) }

// HeaderWriter is what a HeaderValue writes its blocks through, into an
// envelope's marshal writer, twice: a first pass only gives the namespaces
// prefixes, in the order a walk of the blocks' trees would. An element holds
// text (Text), elements (Open, Close) or is a tree (Tree) or its bytes
// (Raw); those at the top are the blocks.
type HeaderWriter struct {
	w      *xmlutil.Writer
	assign bool // the first pass
	v      Version
	depth  int // elements open
}

var headerWriters = sync.Pool{New: func() any { return new(HeaderWriter) }}

// Text writes an element holding text; a block may be marked
// mustUnderstand, which is written in the envelope version's vocabulary.
func (hw *HeaderWriter) Text(name xmlutil.Name, text string, mustUnderstand bool) {
	if hw.assign {
		hw.w.Assign(name.Space)
		return
	}
	prefix := hw.w.Prefix(name.Space)
	hw.w.Start(prefix, name.Local)
	if mustUnderstand {
		hw.w.Attr(xmlutil.N(hw.v.Namespace(), "mustUnderstand"), "1")
	}
	mark := hw.w.Enter()
	hw.w.Text(text)
	hw.w.Close(prefix, name.Local, mark)
}

// Open starts an element holding elements and returns the mark its Close
// wants.
func (hw *HeaderWriter) Open(name xmlutil.Name) (mark int) {
	hw.depth++
	if hw.assign {
		hw.w.Assign(name.Space)
		return 0
	}
	return hw.w.Open(hw.w.Prefix(name.Space), name.Local)
}

// Close ends the element Open returned mark for.
func (hw *HeaderWriter) Close(name xmlutil.Name, mark int) {
	if hw.depth--; !hw.assign {
		hw.w.Close(hw.w.Prefix(name.Space), name.Local, mark)
	}
}

// Tree writes el as it is, shared, not copied. A block's mustUnderstand and
// actor/role attributes are written in the envelope version's vocabulary.
func (hw *HeaderWriter) Tree(el *xmlutil.Element) {
	if hw.depth == 0 {
		el = normalized(el, hw.v)
	}
	if hw.assign {
		hw.w.Collect(el)
	} else {
		hw.w.Tree(el)
	}
}

// Raw writes r as it is, shared, not copied; a block carrying
// mustUnderstand or actor/role attributes in the other version's
// vocabulary is built as a tree to be written in v's.
func (hw *HeaderWriter) Raw(r xmlutil.Raw) {
	if hw.depth == 0 && r.Attributed() {
		t, err := r.Tokenizer()
		if err != nil {
			return
		}
		from, actorFrom, _, _ := vocabulary(hw.v)
		_, mu := t.Attr(xmlutil.N(from, "mustUnderstand"))
		_, actor := t.Attr(xmlutil.N(from, actorFrom))
		t.Release()
		if mu || actor {
			if el, err := r.Element(); err == nil {
				hw.Tree(el)
			}
			return
		}
	}
	if hw.assign {
		hw.w.CollectRaw(r)
	} else {
		hw.w.Raw(r)
	}
}

// SetMustUnderstand marks a header block with soapenv:mustUnderstand="1".
// The attribute is written in the 1.1 namespace and normalized to the
// envelope's version when the envelope is marshalled.
func SetMustUnderstand(block *xmlutil.Element) {
	block.SetAttr(xmlutil.N(Namespace, "mustUnderstand"), "1")
}

// MustUnderstand reports whether a header block requires understanding,
// in either SOAP version's vocabulary.
func MustUnderstand(block *xmlutil.Element) bool {
	mu, _ := blockAttrs(block.Attr)
	return mu
}

// SetActor targets a header block at a specific actor URI.
func SetActor(block *xmlutil.Element, actor string) {
	block.SetAttr(xmlutil.N(Namespace, "actor"), actor)
}

// Actor returns a header block's actor (1.1) or role (1.2) URI, "" when it
// has none.
func Actor(block *xmlutil.Element) string {
	_, role := blockAttrs(block.Attr)
	return role
}

// blockAttrs reads a header block's mustUnderstand and actor/role, in
// either version's vocabulary, through attr: a tree's or a scanner's.
func blockAttrs(attr func(xmlutil.Name) (string, bool)) (mustUnderstand bool, role string) {
	v, ok := attr(xmlutil.N(Namespace, "mustUnderstand"))
	if !ok {
		v, ok = attr(xmlutil.N(Namespace12, "mustUnderstand"))
	}
	role, found := attr(xmlutil.N(Namespace, "actor"))
	if !found {
		role, _ = attr(xmlutil.N(Namespace12, "role"))
	}
	return ok && (v == "1" || v == "true"), role
}

// vocabulary is the namespace and actor attribute of the other version
// than v, and then of v.
func vocabulary(v Version) (from, actorFrom, to, actorTo string) {
	if v == SOAP12 {
		return Namespace, "actor", Namespace12, "role"
	}
	return Namespace12, "role", Namespace, "actor"
}

// normalized returns a header block as it is marshalled: itself, or a
// clone with the attributes it carries in the other SOAP version's
// vocabulary rewritten into v's.
func normalized(h *xmlutil.Element, v Version) *xmlutil.Element {
	from, actorFrom, to, actorTo := vocabulary(v)
	block := h
	for _, local := range [2][2]string{{"mustUnderstand", "mustUnderstand"}, {actorFrom, actorTo}} {
		name := xmlutil.N(from, local[0])
		if val, ok := block.Attr(name); ok {
			if block == h {
				block = h.Clone()
			}
			block.Attrs = slices.DeleteFunc(block.Attrs, func(a xmlutil.Attr) bool { return a.Name == name })
			block.SetAttr(xmlutil.N(to, local[1]), val)
		}
	}
	return block
}
