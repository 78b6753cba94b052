package xmlutil

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// referenceParse builds the tree for doc with encoding/xml's Decoder, the
// parser this package's own replaced: one document element, namespace
// declarations as scope rather than attributes, comments, processing
// instructions and directives skipped, character data outside the document
// element ignored.
func referenceParse(doc []byte) (*Element, error) {
	dec := xml.NewDecoder(bytes.NewReader(doc))
	var root, cur *Element
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			el := NewElement(N(tok.Name.Space, tok.Name.Local))
			for _, a := range tok.Attr {
				if a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns") {
					continue
				}
				el.Attrs = append(el.Attrs, Attr{Name: N(a.Name.Space, a.Name.Local), Value: a.Value})
			}
			switch {
			case cur != nil:
				cur.AddChild(el)
			case root != nil:
				return nil, errors.New("multiple document elements")
			default:
				root = el
			}
			cur = el
		case xml.EndElement:
			cur = cur.Parent()
		case xml.CharData:
			if cur != nil {
				cur.AddText(string(tok))
			}
		}
	}
	if root == nil {
		return nil, errors.New("empty document")
	}
	return root, nil
}

// dump renders a tree with nothing left out and nothing normalized but the
// split of character data into runs: names in Clark notation, attributes
// in document order, text quoted.
func dump(b *strings.Builder, e *Element) {
	fmt.Fprintf(b, "<%s", e.Name)
	for _, a := range e.Attrs {
		fmt.Fprintf(b, " %s=%q", a.Name, a.Value)
	}
	b.WriteByte('>')
	if len(e.children) == 0 {
		fmt.Fprintf(b, "%q", e.text)
	}
	run := ""
	for _, n := range e.children {
		switch n := n.(type) {
		case Text:
			run += string(n)
		case *Element:
			fmt.Fprintf(b, "%q", run)
			run = ""
			dump(b, n)
		}
	}
	if len(e.children) != 0 {
		fmt.Fprintf(b, "%q", run)
	}
	b.WriteString("</>")
}

func dumpString(e *Element) string {
	var b strings.Builder
	dump(&b, e)
	return b.String()
}

// dumpTokens renders what the scanner alone makes of doc, nothing built, in
// dump's format: the tree its token sequence implies.
func dumpTokens(doc []byte) (string, error) {
	p := AcquireTokenizer(doc)
	defer p.Release()
	var b strings.Builder
	var runs []string // the pending character data of each open element
	for {
		kind, err := p.Next()
		if err != nil {
			return "", err
		}
		switch kind {
		case TokenEOF:
			return b.String(), nil
		case TokenStart:
			if len(runs) > 0 {
				fmt.Fprintf(&b, "%q", runs[len(runs)-1])
				runs[len(runs)-1] = ""
			}
			fmt.Fprintf(&b, "<%s", p.Name())
			for _, a := range p.pend {
				fmt.Fprintf(&b, " %s=%q", Name{Space: p.resolve(a.name.prefix, false), Local: string(a.name.local)}, a.value)
			}
			b.WriteByte('>')
			runs = append(runs, "")
			if p.Depth() != len(runs) {
				return "", fmt.Errorf("depth %d inside %d elements", p.Depth(), len(runs))
			}
		case TokenText:
			runs[len(runs)-1] += string(p.text)
		case TokenEnd:
			fmt.Fprintf(&b, "%q</>", runs[len(runs)-1])
			runs = runs[:len(runs)-1]
		}
	}
}

// lenientAbout lists what this parser accepts and encoding/xml rejects, by
// the message of encoding/xml's SyntaxError. The parser's header comment
// states the leniency; the protocols here never produce such documents, and
// checking for them would put a table lookup on every byte of every
// message.
var lenientAbout = []string{
	"invalid UTF-8",                       // bytes are copied, not decoded
	"illegal character code",              // control characters and U+FFFE/F in content
	"invalid XML name",                    // name characters are not validated ...
	"expected element name after <",       // ... nor a name's first character
	"expected attribute name in element",  // ... in either position
	"attribute name without = in element", // ... so "x!y" is one name, not "x" then junk
	"invalid characters between </",       // ... nor in end tags
	"unescaped ]]> not in CDATA section",  // "]]>" in character data
	"unescaped < inside quoted string",    // '<' in an attribute value
	`invalid sequence "--" not allowed in comments`,
	"unsupported version", // the XML declaration is skipped unread ...
	"declared but Decoder.CharsetReader is nil",
	"invalid character entity",      // "&#xD800;": surrogates are not refused
	"expected target name after <?", // processing instructions are skipped unread
	"xml declaration must",
}

func tolerated(err error) bool {
	for _, frag := range lenientAbout {
		if strings.Contains(err.Error(), frag) {
			return true
		}
	}
	return false
}

// FuzzParseBytes is differential twice over. Against encoding/xml: on any
// input the two parsers build the same tree or both reject it (but for
// lenientAbout), and a tree both accept marshals to a document that parses
// and marshals to the same bytes again. And between the scanner's two
// consumers: driven on its own, with nothing built, the Tokenizer accepts
// and rejects what ParseBytes does and its tokens are the tree's, which
// holds every element's children at exactly their number and a sole text
// run inline (checkBuilt). The seed corpus is testdata/fuzz/FuzzParseBytes.
func FuzzParseBytes(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		got, err := ParseBytes(doc)
		switch tokens, tokErr := dumpTokens(doc); {
		case (err == nil) != (tokErr == nil):
			t.Fatalf("tree builder: %v; scanner alone: %v", err, tokErr)
		case err == nil && tokens != dumpString(got):
			t.Fatalf("the scanner's tokens are not the tree:\ntokens %s\n  tree %s", tokens, dumpString(got))
		case err == nil:
			if shape := checkBuilt(got); shape != nil {
				t.Fatalf("the tree of %q: %v", doc, shape)
			}
		}
		want, refErr := referenceParse(doc)
		switch {
		case err != nil && refErr != nil:
			return
		case err != nil:
			t.Fatalf("rejected (%v) what encoding/xml accepts as %s", err, dumpString(want))
		case refErr != nil:
			if !tolerated(refErr) {
				t.Fatalf("accepted as %s what encoding/xml rejects: %v", dumpString(got), refErr)
			}
			return
		}
		if g, w := dumpString(got), dumpString(want); g != w {
			t.Fatalf("trees differ:\n got %s\nwant %s", g, w)
		}
		out := Marshal(got)
		again, err := ParseBytes(out)
		if err != nil {
			t.Fatalf("marshalled tree %s does not parse: %v", out, err)
		}
		if second := Marshal(again); !bytes.Equal(second, out) {
			t.Fatalf("marshalled tree parses to a different one:\nfirst  %s\nsecond %s", out, second)
		}
	})
}
