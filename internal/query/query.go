// Package query implements WSPeer's rich service-query language. The
// paper's ServiceQuery is "an abstraction used by WSPeer to allow for
// varying kinds of query. The simplest ServiceQuery queries on the name of
// a service. More complex queries could be constructed from languages such
// as DAML" (§III). This package is that extension point: a small,
// portable predicate language over service metadata that every binding
// can evaluate —
//
//	name like 'Echo*' and attr(kind) = 'echo' and not attr(deprecated) = 'true'
//	attr(price) < 0.5 or (group = 'grid' and name != 'Legacy')
//
// Expressions are compiled once and evaluated against Subjects (a
// service's name, group, owning peer and attributes). The P2PS binding
// ships expressions inside queries for in-network evaluation; the UDDI
// locator evaluates them client-side over registry results.
package query

import (
	"fmt"
	"strconv"
	"strings"
)

// Subject is the metadata an expression is evaluated against.
type Subject struct {
	Name  string
	Group string
	Peer  string
	Attrs map[string]string
}

// Expr is a compiled query expression.
type Expr struct {
	source string
	root   node
}

// Source returns the expression's original text (the wire form).
func (e *Expr) Source() string { return e.source }

// Matches evaluates the expression against a subject.
func (e *Expr) Matches(s *Subject) bool { return e.root.eval(s) }

// maxSource bounds the length of an expression Compile accepts. Parsing
// recurses once per nesting level and evaluating once per operator, so the
// bound keeps both stacks small whatever a query frame from a remote peer
// holds: a stack overflow is fatal, past any recover.
const maxSource = 4 << 10

// Compile parses an expression of at most 4 KiB.
func Compile(source string) (*Expr, error) {
	if len(source) > maxSource {
		return nil, fmt.Errorf("query: expression of %d bytes is over the %d-byte limit", len(source), maxSource)
	}
	p := &parser{lex: newLexer(source)}
	p.next()
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("query: unexpected %q at offset %d", p.tok.text, p.tok.pos)
	}
	return &Expr{source: source, root: root}, nil
}

// MustCompile is Compile for expressions known to be valid.
func MustCompile(source string) *Expr {
	e, err := Compile(source)
	if err != nil {
		panic(err)
	}
	return e
}

// ---------------------------------------------------------------------------
// AST

type node interface{ eval(*Subject) bool }

type andNode struct{ l, r node }
type orNode struct{ l, r node }
type notNode struct{ inner node }

func (n andNode) eval(s *Subject) bool { return n.l.eval(s) && n.r.eval(s) }
func (n orNode) eval(s *Subject) bool  { return n.l.eval(s) || n.r.eval(s) }
func (n notNode) eval(s *Subject) bool { return !n.inner.eval(s) }

// field selectors
type fieldKind int

const (
	fieldName fieldKind = iota
	fieldGroup
	fieldPeer
	fieldAttr
)

type cmpNode struct {
	field fieldKind
	attr  string // for fieldAttr
	op    string
	value string
}

func (n cmpNode) eval(s *Subject) bool {
	var actual string
	var present bool
	switch n.field {
	case fieldName:
		actual, present = s.Name, true
	case fieldGroup:
		actual, present = s.Group, true
	case fieldPeer:
		actual, present = s.Peer, true
	case fieldAttr:
		actual, present = s.Attrs[n.attr], s.Attrs != nil
		if _, ok := s.Attrs[n.attr]; !ok {
			present = false
		}
	}
	switch n.op {
	case "=":
		return present && actual == n.value
	case "!=":
		// An absent attribute is "not equal" to any value.
		return !present || actual != n.value
	case "like":
		return present && wildcardMatch(n.value, actual)
	case "contains":
		return present && strings.Contains(actual, n.value)
	case "exists":
		return present
	case ">", "<", ">=", "<=":
		if !present {
			return false
		}
		a, errA := strconv.ParseFloat(actual, 64)
		b, errB := strconv.ParseFloat(n.value, 64)
		if errA != nil || errB != nil {
			return false
		}
		switch n.op {
		case ">":
			return a > b
		case "<":
			return a < b
		case ">=":
			return a >= b
		default:
			return a <= b
		}
	}
	return false
}

// wildcardMatch matches pattern with '*' wildcards against s.
func wildcardMatch(pattern, s string) bool {
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == s
	}
	if parts[0] != "" {
		if !strings.HasPrefix(s, parts[0]) {
			return false
		}
		s = s[len(parts[0]):]
	}
	last := parts[len(parts)-1]
	if last != "" {
		if !strings.HasSuffix(s, last) {
			return false
		}
		s = s[:len(s)-len(last)]
	}
	for _, frag := range parts[1 : len(parts)-1] {
		if frag == "" {
			continue
		}
		i := strings.Index(s, frag)
		if i < 0 {
			return false
		}
		s = s[i+len(frag):]
	}
	return true
}

// ---------------------------------------------------------------------------
// Lexer

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokString
	tokNumber
	tokOp     // = != > < >= <=
	tokLParen // (
	tokRParen // )
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src string
	pos int
}

func newLexer(src string) *lexer { return &lexer{src: src} }

func (l *lexer) lex() (token, error) {
	for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
		l.pos++
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case c == '(':
		l.pos++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case c == ')':
		l.pos++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case c == '\'' || c == '"':
		quote := c
		l.pos++
		var b strings.Builder
		for l.pos < len(l.src) && l.src[l.pos] != quote {
			b.WriteByte(l.src[l.pos])
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, fmt.Errorf("query: unterminated string at offset %d", start)
		}
		l.pos++
		return token{kind: tokString, text: b.String(), pos: start}, nil
	case c == '=':
		l.pos++
		return token{kind: tokOp, text: "=", pos: start}, nil
	case c == '!' && l.peek(1) == '=':
		l.pos += 2
		return token{kind: tokOp, text: "!=", pos: start}, nil
	case c == '>' || c == '<':
		op := string(c)
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			op += "="
			l.pos++
		}
		return token{kind: tokOp, text: op, pos: start}, nil
	case isDigit(c) || (c == '-' && isDigit(l.peek(1))):
		l.pos++
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
	default:
		return token{}, fmt.Errorf("query: unexpected character %q at offset %d", c, start)
	}
}

func (l *lexer) peek(ahead int) byte {
	if l.pos+ahead < len(l.src) {
		return l.src[l.pos+ahead]
	}
	return 0
}

func isSpace(c byte) bool      { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c|0x20 >= 'a' && c|0x20 <= 'z') }
func isIdentChar(c byte) bool  { return isIdentStart(c) || isDigit(c) || c == '-' || c == '.' }

// ---------------------------------------------------------------------------
// Parser

type parser struct {
	lex *lexer
	tok token
	err error
}

func (p *parser) next() {
	if p.err != nil {
		return
	}
	p.tok, p.err = p.lex.lex()
}

func (p *parser) parseOr() (node, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.err == nil && p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, "or") {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = orNode{l: left, r: right}
	}
	return left, p.err
}

func (p *parser) parseAnd() (node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.err == nil && p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, "and") {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = andNode{l: left, r: right}
	}
	return left, p.err
}

func (p *parser) parseUnary() (node, error) {
	if p.err != nil {
		return nil, p.err
	}
	if p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, "not") {
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return notNode{inner: inner}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (node, error) {
	if p.err != nil {
		return nil, p.err
	}
	if p.tok.kind == tokLParen {
		p.next()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, fmt.Errorf("query: missing ')' at offset %d", p.tok.pos)
		}
		p.next()
		return inner, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (node, error) {
	if p.tok.kind != tokIdent {
		return nil, fmt.Errorf("query: expected a field at offset %d, got %q", p.tok.pos, p.tok.text)
	}
	n := cmpNode{}
	switch strings.ToLower(p.tok.text) {
	case "name":
		n.field = fieldName
	case "group":
		n.field = fieldGroup
	case "peer":
		n.field = fieldPeer
	case "attr":
		n.field = fieldAttr
	default:
		return nil, fmt.Errorf("query: unknown field %q at offset %d (have name, group, peer, attr(...))", p.tok.text, p.tok.pos)
	}
	p.next()
	if n.field == fieldAttr {
		if p.tok.kind != tokLParen {
			return nil, fmt.Errorf("query: attr needs '(name)' at offset %d", p.tok.pos)
		}
		p.next()
		if p.tok.kind != tokIdent && p.tok.kind != tokString {
			return nil, fmt.Errorf("query: attr needs a key at offset %d", p.tok.pos)
		}
		n.attr = p.tok.text
		p.next()
		if p.tok.kind != tokRParen {
			return nil, fmt.Errorf("query: attr missing ')' at offset %d", p.tok.pos)
		}
		p.next()
	}

	// Operator: symbolic, or the keywords like/contains/exists.
	switch {
	case p.tok.kind == tokOp:
		n.op = p.tok.text
		p.next()
	case p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, "like"):
		n.op = "like"
		p.next()
	case p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, "contains"):
		n.op = "contains"
		p.next()
	case p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, "exists"):
		n.op = "exists"
		p.next()
		return n, p.err
	default:
		return nil, fmt.Errorf("query: expected an operator at offset %d, got %q", p.tok.pos, p.tok.text)
	}

	if p.tok.kind != tokString && p.tok.kind != tokNumber && p.tok.kind != tokIdent {
		return nil, fmt.Errorf("query: expected a value at offset %d, got %q", p.tok.pos, p.tok.text)
	}
	n.value = p.tok.text
	p.next()
	return n, p.err
}
