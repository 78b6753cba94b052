package xmlutil

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
)

// A hand-rolled, namespace-aware XML scanner with two consumers.
//
// encoding/xml's Decoder allocates per token — name strings, attribute
// slices, stack nodes — which made parsing the dominant allocation source
// on the SOAP path. The scanner is a pull Tokenizer over a byte slice:
// start tags (prefixes resolved on its own scope stack), end tags and
// character data (entities, CDATA, line ends decoded), nothing allocated
// per token; comments, PIs and directives are skipped. Only the predefined
// entities and character references are expanded, as encoding/xml does
// with no Entity map. The tree builder (Element, and ParseBytes on it)
// reads adverts and faults, interning recurring names and allocating
// Elements in slabs, and builds the one element Fragment asks for (an
// addressing header's reference property, a WSDL document's schema);
// internal/soap and the plans of internal/xsd call Next themselves and
// decode a message's header and body, or a WSDL document, straight from
// its bytes (CharData is a leaf's text, Attr a start tag's attribute,
// ResolveQName a QName in it).
//
// FuzzParseBytes holds scanner and builder to each other and both to
// encoding/xml: "same tree or both reject". Where the scanner is knowingly
// more lenient — it does not validate name characters, UTF-8 or control
// characters, lets "]]>" in text, '<' in attribute values and "--" in
// comments pass, and skips the XML declaration unread — the fuzz target
// lists the leniency by encoding/xml's error message.

// xmlNamespace is the URI the reserved "xml" prefix is bound to.
const xmlNamespace = "http://www.w3.org/XML/1998/namespace"

const (
	internMapMax   = 1024     // entries kept in a pooled intern map
	internTextMax  = 64       // longest string worth interning
	elementSlab    = 32       // Elements allocated per batch
	slabSizedBelow = 8 << 10  // inputs this long or longer start with a full slab
	ScratchMax     = 64 << 10 // largest decoding buffer, in bytes, worth pooling
	carveAfter     = 512      // bytes of strings a decode makes one by one before Carve cuts chunks
	carveChunk     = 1 << 10  // the most a chunk Carve cuts strings from holds
	carveMax       = 256      // longest string Carve cuts from a chunk (DESIGN.md §9)
)

var (
	ltMark      = []byte("<")
	endTagMark  = []byte("</")
	commentOpen = []byte("!--") // after the '<'
)

// TokenKind is what Next found; an empty-element tag is a start, then an
// end, and TokenEOF ends a well-formed document.
type TokenKind uint8

const (
	TokenEOF TokenKind = iota
	TokenStart
	TokenEnd
	TokenText
)

// binding is one namespace declaration; prefix "" is the default namespace.
type binding struct{ prefix, uri string }

type rawName struct {
	prefix, local []byte
}

// openTag is an element the scanner is inside: its lexical name and where
// its own declarations start on the scope stack.
type openTag struct {
	name  rawName
	scope int
}

// Tokenizer scans one document. It comes from a pool: Release it.
type Tokenizer struct {
	// The element whose start tag Next last returned: the namespace its
	// prefix resolves to and its local name, a slice of the input.
	Space string
	Local []byte

	data     []byte
	pos      int
	tagStart int    // where the last start tag's '<' stands
	text     []byte // the decoded character data of a TokenText
	empty    bool   // the last start tag was self-closed: its end tag is the next token
	rooted   bool   // the document element has been seen
	intern   map[string]string
	slab     []Element
	nodes    []Node // build's open elements, each followed by its child nodes so far
	tags     []openTag
	scope    []binding // in-scope declarations, innermost last
	named    int       // len(scope) in the element ResolveQName resolves in
	pend     []pendingAttr
	scratch  []byte    // entity-decoding buffer
	chars    []byte    // CharData's buffer for text that comes in pieces
	rawScope []binding // the scope the last Raw was handed, which Raws in the same one share

	made  int             // bytes of text Carve has made into strings since ResetCarve
	chunk strings.Builder // what Carve cuts strings from; dropped, never reused, once one does not fit
}

var parserPool = sync.Pool{
	New: func() interface{} {
		return &Tokenizer{intern: make(map[string]string)}
	},
}

// AcquireTokenizer returns a scanner at the start of the document b.
func AcquireTokenizer(b []byte) *Tokenizer {
	p := parserPool.Get().(*Tokenizer)
	p.data = b
	return p
}

// Release returns the scanner to its pool; Local and CharData die with it.
func (p *Tokenizer) Release() {
	*p = Tokenizer{intern: p.intern, nodes: p.nodes, tags: p.tags, scope: p.scope, pend: p.pend, scratch: p.scratch, chars: p.chars, rawScope: p.rawScope}
	if len(p.intern) > internMapMax {
		p.intern = make(map[string]string)
	}
	// tags and pend hold byte slices into the parsed document, nodes the
	// trees built from it; zero the full capacity (truncation alone leaves
	// stale entries between len and cap) so a pooled scanner does not pin
	// the caller's buffer or trees, and drop outsized buffers.
	clear(p.nodes[:cap(p.nodes)])
	clear(p.tags[:cap(p.tags)])
	clear(p.pend[:cap(p.pend)])
	p.nodes, p.tags, p.pend, p.scope = p.nodes[:0], p.tags[:0], p.pend[:0], p.scope[:0]
	if cap(p.scratch) > ScratchMax || cap(p.chars) > ScratchMax || cap(p.nodes)*16 > ScratchMax { // a Node is 16 bytes
		p.scratch, p.chars, p.nodes = nil, nil, nil
	}
	parserPool.Put(p)
}

// ResetCarve starts a decode: Carve allocates its strings one by one
// again, until they add up to carveAfter bytes.
func (p *Tokenizer) ResetCarve() { p.made, p.chunk = 0, strings.Builder{} }

// Carve is the text b as a string that outlives the scanner and the
// document. Past the first few, strings are cut from a chunk sized to what
// is left of the document: a Builder never writes over bytes it has handed
// out, so they stay as cut, and a kept one holds at most its chunk alive.
func (p *Tokenizer) Carve(b []byte) string {
	n := len(b)
	if p.made += n; p.made <= carveAfter || n > carveMax {
		return string(b)
	}
	if p.chunk.Cap()-p.chunk.Len() < n {
		p.chunk = strings.Builder{}
		p.chunk.Grow(min(carveChunk, n+len(p.data)-p.pos))
	}
	at := p.chunk.Len()
	p.chunk.Write(b)
	return p.chunk.String()[at:]
}

// ParseBytes parses an XML document held in b.
func ParseBytes(b []byte) (*Element, error) {
	p := AcquireTokenizer(b)
	defer p.Release()
	// The first token is the document element's start tag; what follows the
	// element is checked and dropped.
	if _, err := p.Next(); err != nil {
		return nil, err
	}
	root, err := p.Element()
	for kind := TokenEnd; err == nil && kind != TokenEOF; {
		kind, err = p.Next()
	}
	if err != nil {
		return nil, err
	}
	return root, nil
}

func (p *Tokenizer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("xmlutil: parse: "+format, args...)
}

// str interns a byte slice as a string: what recurs from document to
// document — names, prefixes, namespace URIs, attribute values and
// whitespace runs — is allocated once per pooled parser, not once per
// occurrence.
func (p *Tokenizer) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) <= internTextMax {
		if s, ok := p.intern[string(b)]; ok { // no alloc: map lookup by []byte key
			return s
		}
		s := string(b)
		p.intern[s] = s
		return s
	}
	return string(b)
}

// charData turns a decoded character-data run into a string. Payload text
// is mostly unique, so interning it would only fill the map with one-shot
// entries; it is copied at exact size. Whitespace-only runs (indentation)
// do recur and are interned.
func (p *Tokenizer) charData(b []byte) string {
	if len(b) <= internTextMax {
		ws := true
		for _, c := range b {
			if !isXMLSpace(c) {
				ws = false
				break
			}
		}
		if ws {
			return p.str(b)
		}
	}
	return string(b)
}

func (p *Tokenizer) newElement() *Element {
	if len(p.slab) == 0 {
		n := elementSlab
		if p.slab == nil && len(p.data) < slabSizedBelow {
			// The first slab (a scanner starts from a nil one; a used-up
			// slab is empty, not nil) is sized from the input from the tree's
			// root on. Every element opens with a '<' that no end tag
			// accounts for, so this never under-counts (comments, CDATA and
			// PIs only add to it) and a small tree does not pay for 32
			// Elements, nor a fragment for the message around it.
			rest := p.data[p.tagStart:]
			n = max(1, min(n, bytes.Count(rest, ltMark)-bytes.Count(rest, endTagMark)))
		}
		p.slab = make([]Element, n)
	}
	el := &p.slab[0]
	p.slab = p.slab[1:]
	return el
}

func isXMLSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (p *Tokenizer) skipSpace() {
	for p.pos < len(p.data) && isXMLSpace(p.data[p.pos]) {
		p.pos++
	}
}

// name scans an XML name (everything up to a delimiter). The caller
// validates emptiness; character-level name validity is not enforced,
// matching the leniency the protocols here rely on.
func (p *Tokenizer) name() []byte {
	start := p.pos
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		if isXMLSpace(c) || c == '>' || c == '/' || c == '=' || c == '<' {
			break
		}
		p.pos++
	}
	return p.data[start:p.pos]
}

// splitQName splits a lexical name at its first colon. A colon with
// nothing on one side of it is part of the local name, as in encoding/xml.
func splitQName(b []byte) rawName {
	for i, c := range b {
		if c == ':' {
			if i == 0 || i == len(b)-1 {
				break
			}
			return rawName{prefix: b[:i], local: b[i+1:]}
		}
	}
	return rawName{local: b}
}

// resolve maps a prefix to its namespace URI in the current scope (which
// already holds the open element's own declarations). Unknown prefixes
// resolve to the prefix itself, as encoding/xml does.
func (p *Tokenizer) resolve(prefix []byte, isElement bool) string {
	if len(prefix) == 0 && !isElement {
		return ""
	}
	if string(prefix) == "xml" {
		return xmlNamespace
	}
	for i := len(p.scope) - 1; i >= 0; i-- {
		if p.scope[i].prefix == string(prefix) {
			return p.scope[i].uri
		}
	}
	return p.str(prefix)
}

// decode normalizes \r\n and \r to \n in character data or an attribute
// value and, outside a CDATA section, expands entity references. The
// result is raw itself when there was nothing to do, otherwise the parser's
// scratch buffer: the caller turns it into a string (str or charData)
// before decoding again.
func (p *Tokenizer) decode(raw []byte, cdata bool) ([]byte, error) {
	plain := true
	for _, c := range raw {
		if c == '\r' || (c == '&' && !cdata) {
			plain = false
			break
		}
	}
	if plain {
		return raw, nil
	}
	out := p.scratch[:0]
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '\r':
			out = append(out, '\n')
			i++
			if i < len(raw) && raw[i] == '\n' {
				i++
			}
		case c == '&' && !cdata:
			var n int
			var err error
			if out, n, err = decodeEntity(out, raw[i:]); err != nil {
				return nil, err
			}
			i += n
		default:
			out = append(out, c)
			i++
		}
	}
	p.scratch = out
	return out, nil
}

// decodeEntity expands the entity or character reference at the start of b
// onto out, and returns the number of input bytes consumed.
func decodeEntity(out, b []byte) (_ []byte, n int, err error) {
	end := -1
	for i := 1; i < len(b) && i <= 12; i++ {
		if b[i] == ';' {
			end = i
			break
		}
	}
	if end < 0 {
		return nil, 0, fmt.Errorf("xmlutil: parse: invalid entity reference")
	}
	ent := b[1:end]
	n = end + 1
	switch string(ent) {
	case "lt":
		return append(out, '<'), n, nil
	case "gt":
		return append(out, '>'), n, nil
	case "amp":
		return append(out, '&'), n, nil
	case "apos":
		return append(out, '\''), n, nil
	case "quot":
		return append(out, '"'), n, nil
	}
	if len(ent) > 1 && ent[0] == '#' {
		var r rune
		digits := ent[1:]
		base := 10
		if digits[0] == 'x' || digits[0] == 'X' {
			base = 16
			digits = digits[1:]
		}
		if len(digits) == 0 {
			return nil, 0, fmt.Errorf("xmlutil: parse: invalid character reference &%s;", ent)
		}
		for _, c := range digits {
			var d rune
			switch {
			case c >= '0' && c <= '9':
				d = rune(c - '0')
			case base == 16 && c >= 'a' && c <= 'f':
				d = rune(c-'a') + 10
			case base == 16 && c >= 'A' && c <= 'F':
				d = rune(c-'A') + 10
			default:
				return nil, 0, fmt.Errorf("xmlutil: parse: invalid character reference &%s;", ent)
			}
			r = r*rune(base) + d
			if r > 0x10FFFF {
				return nil, 0, fmt.Errorf("xmlutil: parse: character reference &%s; out of range", ent)
			}
		}
		var buf [4]byte
		return append(out, buf[:encodeRune(buf[:], r)]...), n, nil
	}
	return nil, 0, fmt.Errorf("xmlutil: parse: unknown entity &%s;", ent)
}

// encodeRune is utf8.EncodeRune without pulling the package in for one
// call site.
func encodeRune(buf []byte, r rune) int {
	switch {
	case r < 0x80:
		buf[0] = byte(r)
		return 1
	case r < 0x800:
		buf[0] = 0xC0 | byte(r>>6)
		buf[1] = 0x80 | byte(r)&0x3F
		return 2
	case r < 0x10000:
		buf[0] = 0xE0 | byte(r>>12)
		buf[1] = 0x80 | byte(r>>6)&0x3F
		buf[2] = 0x80 | byte(r)&0x3F
		return 3
	default:
		buf[0] = 0xF0 | byte(r>>18)
		buf[1] = 0x80 | byte(r>>12)&0x3F
		buf[2] = 0x80 | byte(r>>6)&0x3F
		buf[3] = 0x80 | byte(r)&0x3F
		return 4
	}
}

// Next scans to the next token. After an error the scanner is spent.
func (p *Tokenizer) Next() (TokenKind, error) {
	if p.empty {
		p.empty = false
		p.pop()
		return TokenEnd, nil
	}
	for p.pos < len(p.data) {
		if p.data[p.pos] != '<' {
			// Character data up to the next markup. Outside the document
			// element it is checked and dropped.
			start := p.pos
			if i := bytes.IndexByte(p.data[start:], '<'); i >= 0 {
				p.pos += i
			} else {
				p.pos = len(p.data)
			}
			b, err := p.decode(p.data[start:p.pos], false)
			if err != nil {
				return TokenEOF, err
			}
			if len(p.tags) > 0 {
				p.text = b
				return TokenText, nil
			}
			continue
		}
		p.pos++ // consume '<'
		if p.pos >= len(p.data) {
			return TokenEOF, p.errf("unexpected EOF after '<'")
		}
		switch p.data[p.pos] {
		case '?':
			if !p.skipPast("?>") {
				return TokenEOF, p.errf("unterminated processing instruction")
			}
		case '!':
			if text, err := p.bang(); err != nil || text {
				return TokenText, err
			}
		case '/':
			p.pos++
			raw := splitQName(p.name())
			p.skipSpace()
			if p.pos >= len(p.data) || p.data[p.pos] != '>' {
				return TokenEOF, p.errf("malformed end tag </%s", raw.local)
			}
			p.pos++
			if len(p.tags) == 0 {
				return TokenEOF, p.errf("unbalanced end element %s", string(raw.local))
			}
			open := p.tags[len(p.tags)-1].name
			if string(open.local) != string(raw.local) || string(open.prefix) != string(raw.prefix) {
				return TokenEOF, p.errf("end tag </%s> does not match <%s>", string(raw.local), string(open.local))
			}
			p.pop()
			return TokenEnd, nil
		default:
			outermost := len(p.tags) == 0
			if err := p.startTag(); err != nil {
				return TokenEOF, err
			}
			if outermost {
				if p.rooted {
					return TokenEOF, p.errf("multiple document elements")
				}
				p.rooted = true
			}
			return TokenStart, nil
		}
	}
	if !p.rooted {
		return TokenEOF, p.errf("empty document")
	}
	if len(p.tags) > 0 {
		return TokenEOF, p.errf("unexpected EOF inside <%s>", p.tags[len(p.tags)-1].name.local)
	}
	return TokenEOF, nil
}

// pop leaves the innermost open element; its declarations go out of scope.
func (p *Tokenizer) pop() {
	top := len(p.tags) - 1
	p.scope = p.scope[:p.tags[top].scope]
	p.tags[top] = openTag{}
	p.tags = p.tags[:top]
}

// Name is Space and Local as a Name, the local part interned.
func (p *Tokenizer) Name() Name { return Name{Space: p.Space, Local: p.str(p.Local)} }

// Depth counts the open elements, the one just started included.
func (p *Tokenizer) Depth() int { return len(p.tags) }

// SkipTo reads on until only depth elements are open.
func (p *Tokenizer) SkipTo(depth int) error {
	for len(p.tags) > depth {
		if _, err := p.Next(); err != nil {
			return err
		}
	}
	return nil
}

// TagOffset is where the start tag Next last returned begins in the input.
func (p *Tokenizer) TagOffset() int { return p.tagStart }

// Seek moves the scanner to the TagOffset, noted on an earlier scan, of a
// child of the element it is directly inside: the scope there is the scope
// here, so it goes on as if it had read its way past the siblings before.
func (p *Tokenizer) Seek(tagOffset int) { p.pos, p.empty = tagOffset, false }

// CharData is Element.Text for the element just started, read through its
// end tag and over child elements; valid until the scanner is used again.
func (p *Tokenizer) CharData() ([]byte, error) {
	inside, named := len(p.tags), p.named
	p.chars = p.chars[:0]
	for {
		kind, err := p.Next()
		if err != nil {
			return nil, err
		}
		switch {
		case kind == TokenText && len(p.tags) == inside:
			// One run, then the end tag, whose scan decodes nothing: no copy.
			if len(p.chars) == 0 && bytes.HasPrefix(p.data[p.pos:], endTagMark) {
				text := p.text
				_, err := p.Next()
				p.named = named
				return text, err
			}
			p.chars = append(p.chars, p.text...)
		case kind == TokenEnd && len(p.tags) < inside:
			p.named = named
			return p.chars, nil
		}
	}
}

// Attr is the value of the named attribute of the start tag Next last
// returned.
func (p *Tokenizer) Attr(name Name) (string, bool) {
	for _, a := range p.pend {
		if string(a.name.local) == name.Local && p.resolve(a.name.prefix, false) == name.Space {
			return a.value, true
		}
	}
	return "", false
}

// ResolveQName is Element.ResolveQName in the scope of the start tag Next
// last returned, or of the element CharData last read (whose text is a
// QName's, then): unlike a name of the markup, a QName in content with an
// undeclared prefix is an error.
func (p *Tokenizer) ResolveQName(s string) (Name, error) { return resolveQName(s, p.lookup) }

// lookup reads the bindings of an element past its end tag too: scope's
// array holds them until the next start tag, which moves named.

func (p *Tokenizer) lookup(prefix string) (string, bool) {
	if prefix == "xml" {
		return xmlNamespace, true
	}
	scope := p.scope[:p.named]
	for i := len(scope) - 1; i >= 0; i-- {
		if scope[i].prefix == prefix {
			return scope[i].uri, true
		}
	}
	return "", false
}

// Element builds the tree of the element just started, reading through its
// end tag. The root declares every binding in scope, not only its own: cut
// loose from the ancestors that declared the rest, its content resolves.
func (p *Tokenizer) Element() (*Element, error) { return p.build(0, p.charData) }

// Fragment is Element with a root that declares only its own bindings, as
// an element of a whole-document tree does: a piece of this document that
// rides in others (an endpoint reference's property, which recurs from
// message to message, its text interned too), which assign its prefixes.
func (p *Tokenizer) Fragment() (*Element, error) { return p.build(p.tags[len(p.tags)-1].scope, p.str) }

// build is Element with a root declaring scope[from:] and text strings
// made by text. Child nodes wait on the node stack behind their element,
// which takes them at its end tag in one slice of exactly their number.
func (p *Tokenizer) build(from int, text func([]byte) string) (*Element, error) {
	root := p.element(from)
	p.nodes = append(p.nodes[:0], root)
	for cur := root; ; {
		kind, err := p.Next()
		if err != nil {
			return nil, err
		}
		switch kind {
		case TokenStart:
			el := p.element(p.tags[len(p.tags)-1].scope)
			el.parent = cur
			p.nodes = append(p.nodes, el)
			cur = el
		case TokenText:
			switch s := text(p.text); {
			case s == "":
			case p.nodes[len(p.nodes)-1] == Node(cur) && bytes.HasPrefix(p.data[p.pos:], endTagMark):
				cur.text = s // a leaf's text, not boxed as a Node
			default:
				p.nodes = append(p.nodes, Text(s))
			}
		case TokenEnd:
			at := len(p.nodes) - 1
			for p.nodes[at] != Node(cur) {
				at--
			}
			if kids := p.nodes[at+1:]; len(kids) > 0 {
				if t, ok := kids[0].(Text); ok && len(kids) == 1 {
					cur.text = string(t) // a sole run after a comment, say
				} else {
					cur.children = append(make([]Node, 0, len(kids)), kids...)
				}
			}
			if cur == root {
				p.nodes = p.nodes[:0]
				return root, nil
			}
			p.nodes = p.nodes[:at+1]
			cur = cur.parent
		}
	}
}

// element makes the Element of the last start tag, declaring scope[from:].
func (p *Tokenizer) element(from int) *Element {
	el := p.newElement()
	el.Name = p.Name()
	for _, b := range p.scope[from:] {
		el.DeclarePrefix(b.prefix, b.uri)
	}
	if len(p.pend) > 0 {
		el.Attrs = make([]Attr, len(p.pend))
		for i, a := range p.pend {
			el.Attrs[i] = Attr{
				Name:  Name{Space: p.resolve(a.name.prefix, false), Local: p.str(a.name.local)},
				Value: a.value,
			}
		}
	}
	return el
}

// bang handles "<!..." constructs: comments and directives are skipped,
// CDATA inside the document element is the token's text.
func (p *Tokenizer) bang() (text bool, err error) {
	rest := p.data[p.pos:]
	switch {
	case len(rest) >= 2 && rest[1] == '-':
		if len(rest) < 3 || rest[2] != '-' {
			return false, p.errf("invalid sequence <!- not part of <!--")
		}
		p.pos += 3
		if !p.skipPast("-->") {
			return false, p.errf("unterminated comment")
		}
	case len(rest) >= 2 && rest[1] == '[':
		if len(rest) < 8 || string(rest[2:8]) != "CDATA[" {
			return false, p.errf("invalid <![ sequence")
		}
		p.pos += 8
		start := p.pos
		for {
			if p.pos+2 >= len(p.data) {
				return false, p.errf("unterminated CDATA section")
			}
			if p.data[p.pos] == ']' && p.data[p.pos+1] == ']' && p.data[p.pos+2] == '>' {
				break
			}
			p.pos++
		}
		p.text, _ = p.decode(p.data[start:p.pos], true) // no entities, no error
		p.pos += 3
		return len(p.tags) > 0, nil
	default:
		// A directive (e.g. DOCTYPE); skip it the way encoding/xml scans
		// one: the byte after "<!" is not looked at, quoted strings hide
		// angle brackets, and nested <...> pairs (an internal subset) and
		// comments are stepped over.
		p.pos += 2
		var quote byte
		depth := 0
		for p.pos < len(p.data) {
			c := p.data[p.pos]
			p.pos++
			switch {
			case quote != 0:
				if c == quote {
					quote = 0
				}
			case c == '\'' || c == '"':
				quote = c
			case c == '>':
				if depth == 0 {
					return false, nil
				}
				depth--
			case c == '<':
				if !bytes.HasPrefix(p.data[p.pos:], commentOpen) {
					depth++
				} else if p.pos += len(commentOpen); !p.skipPast("-->") {
					return false, p.errf("unterminated comment in directive")
				}
			}
		}
		return false, p.errf("unterminated directive")
	}
	return false, nil
}

func (p *Tokenizer) skipPast(delim string) bool {
	for p.pos+len(delim) <= len(p.data) {
		if string(p.data[p.pos:p.pos+len(delim)]) == delim {
			p.pos += len(delim)
			return true
		}
		p.pos++
	}
	return false
}

// pendingAttr is one attribute of the last start tag before namespace
// resolution (declarations on the element must be in scope first).
type pendingAttr struct {
	name  rawName
	value string
}

// startTag scans a start tag from its name on: declarations go on the scope
// stack, other attributes wait in pend for a tree builder.
func (p *Tokenizer) startTag() error {
	p.tagStart = p.pos - 1
	rawEl := splitQName(p.name())
	if len(rawEl.local) == 0 {
		return p.errf("malformed start tag")
	}
	tag := openTag{name: rawEl, scope: len(p.scope)}
	p.pend = p.pend[:0]
	for {
		p.skipSpace()
		if p.pos >= len(p.data) {
			return p.errf("unexpected EOF in <%s>", string(rawEl.local))
		}
		c := p.data[p.pos]
		if c == '>' {
			p.pos++
			break
		}
		if c == '/' {
			p.pos++
			if p.pos >= len(p.data) || p.data[p.pos] != '>' {
				return p.errf("malformed empty-element tag <%s", string(rawEl.local))
			}
			p.pos++
			p.empty = true
			break
		}
		raw := splitQName(p.name())
		if len(raw.local) == 0 {
			return p.errf("malformed attribute in <%s>", string(rawEl.local))
		}
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != '=' {
			return p.errf("attribute %s in <%s> has no value", string(raw.local), string(rawEl.local))
		}
		p.pos++
		p.skipSpace()
		if p.pos >= len(p.data) || (p.data[p.pos] != '"' && p.data[p.pos] != '\'') {
			return p.errf("unquoted attribute value in <%s>", string(rawEl.local))
		}
		quote := p.data[p.pos]
		p.pos++
		vstart := p.pos
		for p.pos < len(p.data) && p.data[p.pos] != quote {
			p.pos++
		}
		if p.pos >= len(p.data) {
			return p.errf("unterminated attribute value in <%s>", string(rawEl.local))
		}
		vb, err := p.decode(p.data[vstart:p.pos], false)
		if err != nil {
			return err
		}
		val := p.str(vb)
		p.pos++ // closing quote

		switch {
		case len(raw.prefix) == 0 && string(raw.local) == "xmlns":
			p.scope = append(p.scope, binding{uri: val})
		case string(raw.prefix) == "xmlns":
			p.scope = append(p.scope, binding{prefix: p.str(raw.local), uri: val})
		default:
			p.pend = append(p.pend, pendingAttr{name: raw, value: val})
		}
	}
	// All declarations are in scope; resolve the element's name.
	p.Space = p.resolve(rawEl.prefix, true)
	p.Local = rawEl.local
	p.tags = append(p.tags, tag)
	p.named = len(p.scope)
	return nil
}
