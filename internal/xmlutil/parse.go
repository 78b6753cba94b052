package xmlutil

import (
	"bytes"
	"fmt"
	"sync"
)

// A hand-rolled, namespace-aware XML parser for the invocation fast path.
//
// encoding/xml's Decoder allocates per token — name strings, attribute
// slices, stack nodes — which made parsing the dominant allocation source
// on the SOAP request/response path. This parser works over a byte slice,
// interns recurring names (SOAP envelopes repeat the same handful), and
// batch-allocates Elements in slabs. It accepts the same documents the
// old Decoder-based loop accepted for the protocols in this system:
// elements, attributes, namespace declarations, character data, CDATA,
// comments, processing instructions and directives (the latter three are
// skipped, as before). DTD entity definitions are not supported; only the
// five predefined entities and character references are expanded, which
// matches encoding/xml's default behaviour with no custom Entity map.
//
// FuzzParseBytes holds the two to "same tree or both reject". Where this
// parser is knowingly more lenient — it does not validate name characters,
// UTF-8 or control characters, lets "]]>" in text, '<' in attribute values
// and "--" in comments pass, and skips the XML declaration unread — the
// fuzz target lists the leniency by encoding/xml's error message.

// xmlNamespace is the URI the reserved "xml" prefix is bound to.
const xmlNamespace = "http://www.w3.org/XML/1998/namespace"

const (
	internMapMax   = 1024     // entries kept in a pooled intern map
	internTextMax  = 64       // longest string worth interning
	elementSlab    = 32       // Elements allocated per batch
	slabSizedBelow = 8 << 10  // inputs this long or longer start with a full slab
	scratchMax     = 64 << 10 // largest entity-decoding buffer worth pooling
)

var (
	ltMark      = []byte("<")
	endTagMark  = []byte("</")
	commentOpen = []byte("!--") // after the '<'
)

type rawName struct {
	prefix, local []byte
}

type parser struct {
	data    []byte
	pos     int
	intern  map[string]string
	slab    []Element
	tags    []rawName // open-element stack, for end-tag matching
	scratch []byte    // entity-decoding buffer
	pend    []pendingAttr
}

var parserPool = sync.Pool{
	New: func() interface{} {
		return &parser{intern: make(map[string]string)}
	},
}

// ParseBytes parses an XML document held in b.
func ParseBytes(b []byte) (*Element, error) {
	p := parserPool.Get().(*parser)
	p.data = b
	p.pos = 0
	p.slab = nil
	p.tags = p.tags[:0]
	root, err := p.parse()
	p.data = nil
	p.slab = nil
	if len(p.intern) > internMapMax {
		p.intern = make(map[string]string)
	}
	// tags and pend hold byte slices into the parsed document; zero the
	// full capacity (truncation alone leaves stale entries between len and
	// cap) so a pooled parser does not pin the caller's buffer, and drop an
	// outsized scratch buffer.
	tags := p.tags[:cap(p.tags)]
	for i := range tags {
		tags[i] = rawName{}
	}
	p.tags = tags[:0]
	pend := p.pend[:cap(p.pend)]
	for i := range pend {
		pend[i] = pendingAttr{}
	}
	p.pend = pend[:0]
	if cap(p.scratch) > scratchMax {
		p.scratch = nil
	}
	parserPool.Put(p)
	return root, err
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("xmlutil: parse: "+format, args...)
}

// str interns a byte slice as a string: what recurs from document to
// document — names, prefixes, namespace URIs, attribute values and
// whitespace runs — is allocated once per pooled parser, not once per
// occurrence.
func (p *parser) str(b []byte) string {
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
func (p *parser) charData(b []byte) string {
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

func (p *parser) newElement(name Name) *Element {
	if len(p.slab) == 0 {
		n := elementSlab
		if p.slab == nil && len(p.data) < slabSizedBelow {
			// The document's first slab (ParseBytes starts from a nil
			// one; a used-up slab is empty, not nil) is sized from the
			// input. Every element opens with a '<' that no end tag
			// accounts for, so this never under-counts (comments, CDATA
			// and PIs only add to it) and a small document does not pay
			// for 32 Elements.
			n = max(1, min(n, bytes.Count(p.data, ltMark)-bytes.Count(p.data, endTagMark)))
		}
		p.slab = make([]Element, n)
	}
	el := &p.slab[0]
	p.slab = p.slab[1:]
	el.Name = name
	return el
}

func isXMLSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (p *parser) skipSpace() {
	for p.pos < len(p.data) && isXMLSpace(p.data[p.pos]) {
		p.pos++
	}
}

// name scans an XML name (everything up to a delimiter). The caller
// validates emptiness; character-level name validity is not enforced,
// matching the leniency the protocols here rely on.
func (p *parser) name() []byte {
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

// resolveSpace maps a prefix to its namespace URI in the scope of el
// (which already carries this element's own declarations). Unknown
// prefixes resolve to the prefix itself, as encoding/xml does.
func resolveSpace(el *Element, prefix string, isElement bool) string {
	if prefix == "" {
		if !isElement {
			return ""
		}
		if uri, ok := el.LookupPrefix(""); ok {
			return uri
		}
		return ""
	}
	if prefix == "xml" {
		return xmlNamespace
	}
	if uri, ok := el.LookupPrefix(prefix); ok {
		return uri
	}
	return prefix
}

// decode normalizes \r\n and \r to \n in character data or an attribute
// value and, outside a CDATA section, expands entity references. The
// result is raw itself when there was nothing to do, otherwise the parser's
// scratch buffer: the caller turns it into a string (str or charData)
// before decoding again.
func (p *parser) decode(raw []byte, cdata bool) ([]byte, error) {
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
			rep, n, err := decodeEntity(raw[i:])
			if err != nil {
				return nil, err
			}
			out = append(out, rep...)
			i += n
		default:
			out = append(out, c)
			i++
		}
	}
	p.scratch = out
	return out, nil
}

// decodeEntity expands one entity or character reference at the start of
// b, returning the replacement and the number of input bytes consumed.
func decodeEntity(b []byte) (rep []byte, n int, err error) {
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
		return []byte("<"), n, nil
	case "gt":
		return []byte(">"), n, nil
	case "amp":
		return []byte("&"), n, nil
	case "apos":
		return []byte("'"), n, nil
	case "quot":
		return []byte(`"`), n, nil
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
		return buf[:encodeRune(buf[:], r)], n, nil
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

func (p *parser) parse() (*Element, error) {
	var root, cur *Element
	for p.pos < len(p.data) {
		// Character data up to the next markup.
		start := p.pos
		for p.pos < len(p.data) && p.data[p.pos] != '<' {
			p.pos++
		}
		if p.pos > start {
			// Outside the document element character data is checked
			// and dropped.
			b, err := p.decode(p.data[start:p.pos], false)
			if err != nil {
				return nil, err
			}
			if cur != nil {
				cur.AddText(p.charData(b))
			}
		}
		if p.pos >= len(p.data) {
			break
		}
		p.pos++ // consume '<'
		if p.pos >= len(p.data) {
			return nil, p.errf("unexpected EOF after '<'")
		}
		switch p.data[p.pos] {
		case '?':
			if !p.skipPast("?>") {
				return nil, p.errf("unterminated processing instruction")
			}
		case '!':
			if err := p.bang(cur); err != nil {
				return nil, err
			}
		case '/':
			p.pos++
			raw := splitQName(p.name())
			p.skipSpace()
			if p.pos >= len(p.data) || p.data[p.pos] != '>' {
				return nil, p.errf("malformed end tag </%s", raw.local)
			}
			p.pos++
			if cur == nil || len(p.tags) == 0 {
				return nil, p.errf("unbalanced end element %s", string(raw.local))
			}
			open := p.tags[len(p.tags)-1]
			if string(open.local) != string(raw.local) || string(open.prefix) != string(raw.prefix) {
				return nil, p.errf("end tag </%s> does not match <%s>", string(raw.local), string(open.local))
			}
			p.tags = p.tags[:len(p.tags)-1]
			cur = cur.parent
		default:
			el, closed, err := p.startTag(cur)
			if err != nil {
				return nil, err
			}
			if cur == nil {
				if root != nil {
					return nil, p.errf("multiple document elements")
				}
				root = el
			}
			if !closed {
				cur = el
			}
		}
	}
	if root == nil {
		return nil, p.errf("empty document")
	}
	if cur != nil {
		return nil, p.errf("unexpected EOF inside <%s>", cur.Name.Local)
	}
	return root, nil
}

// bang handles "<!..." constructs: comments and directives are skipped,
// CDATA becomes text.
func (p *parser) bang(cur *Element) error {
	rest := p.data[p.pos:]
	switch {
	case len(rest) >= 2 && rest[1] == '-':
		if len(rest) < 3 || rest[2] != '-' {
			return p.errf("invalid sequence <!- not part of <!--")
		}
		p.pos += 3
		if !p.skipPast("-->") {
			return p.errf("unterminated comment")
		}
	case len(rest) >= 2 && rest[1] == '[':
		if len(rest) < 8 || string(rest[2:8]) != "CDATA[" {
			return p.errf("invalid <![ sequence")
		}
		p.pos += 8
		start := p.pos
		for {
			if p.pos+2 >= len(p.data) {
				return p.errf("unterminated CDATA section")
			}
			if p.data[p.pos] == ']' && p.data[p.pos+1] == ']' && p.data[p.pos+2] == '>' {
				break
			}
			p.pos++
		}
		if cur != nil {
			b, _ := p.decode(p.data[start:p.pos], true) // no entities, no error
			cur.AddText(p.charData(b))
		}
		p.pos += 3
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
					return nil
				}
				depth--
			case c == '<':
				if !bytes.HasPrefix(p.data[p.pos:], commentOpen) {
					depth++
				} else if p.pos += len(commentOpen); !p.skipPast("-->") {
					return p.errf("unterminated comment in directive")
				}
			}
		}
		return p.errf("unterminated directive")
	}
	return nil
}

func (p *parser) skipPast(delim string) bool {
	for p.pos+len(delim) <= len(p.data) {
		if string(p.data[p.pos:p.pos+len(delim)]) == delim {
			p.pos += len(delim)
			return true
		}
		p.pos++
	}
	return false
}

// attrBuf accumulates one start tag's attributes before namespace
// resolution (declarations on the element must be in scope first).
type pendingAttr struct {
	name  rawName
	value string
}

func (p *parser) startTag(parent *Element) (el *Element, selfClosed bool, err error) {
	rawEl := splitQName(p.name())
	if len(rawEl.local) == 0 {
		return nil, false, p.errf("malformed start tag")
	}
	el = p.newElement(Name{})
	if parent != nil {
		parent.AddChild(el)
	}

	pending := p.pend[:0]
	for {
		p.skipSpace()
		if p.pos >= len(p.data) {
			return nil, false, p.errf("unexpected EOF in <%s>", string(rawEl.local))
		}
		c := p.data[p.pos]
		if c == '>' {
			p.pos++
			break
		}
		if c == '/' {
			p.pos++
			if p.pos >= len(p.data) || p.data[p.pos] != '>' {
				return nil, false, p.errf("malformed empty-element tag <%s", string(rawEl.local))
			}
			p.pos++
			selfClosed = true
			break
		}
		raw := splitQName(p.name())
		if len(raw.local) == 0 {
			return nil, false, p.errf("malformed attribute in <%s>", string(rawEl.local))
		}
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != '=' {
			return nil, false, p.errf("attribute %s in <%s> has no value", string(raw.local), string(rawEl.local))
		}
		p.pos++
		p.skipSpace()
		if p.pos >= len(p.data) || (p.data[p.pos] != '"' && p.data[p.pos] != '\'') {
			return nil, false, p.errf("unquoted attribute value in <%s>", string(rawEl.local))
		}
		quote := p.data[p.pos]
		p.pos++
		vstart := p.pos
		for p.pos < len(p.data) && p.data[p.pos] != quote {
			p.pos++
		}
		if p.pos >= len(p.data) {
			return nil, false, p.errf("unterminated attribute value in <%s>", string(rawEl.local))
		}
		vb, err := p.decode(p.data[vstart:p.pos], false)
		if err != nil {
			return nil, false, err
		}
		val := p.str(vb)
		p.pos++ // closing quote

		switch {
		case len(raw.prefix) == 0 && string(raw.local) == "xmlns":
			el.DeclarePrefix("", val)
		case string(raw.prefix) == "xmlns":
			el.DeclarePrefix(p.str(raw.local), val)
		default:
			pending = append(pending, pendingAttr{name: raw, value: val})
		}
	}

	// All declarations are in scope; resolve the element and attribute
	// names.
	el.Name = Name{
		Space: resolveSpace(el, p.str(rawEl.prefix), true),
		Local: p.str(rawEl.local),
	}
	if len(pending) > 0 {
		el.Attrs = make([]Attr, len(pending))
		for i, a := range pending {
			el.Attrs[i] = Attr{
				Name: Name{
					Space: resolveSpace(el, p.str(a.name.prefix), false),
					Local: p.str(a.name.local),
				},
				Value: a.value,
			}
		}
	}
	p.pend = pending[:0]
	if !selfClosed {
		p.tags = append(p.tags, rawEl)
	}
	return el, selfClosed, nil
}
