package soap

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"wspeer/internal/xmlutil"
	"wspeer/internal/xsd"
)

// The bytes the tree-rendering marshaller wrote for these envelopes, before
// the shell was written without a tree: prefix numbering (wsa preferred,
// then ns1 for the detail, q1 declared by the fault code's QName), the
// version-normalized header attributes and the empty Body's self-closed
// form are what must not move.
var goldenFaults = map[Version][3]string{
	SOAP11: {
		`<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/" xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/08/addressing" xmlns:ns1="urn:app" xmlns:q1="urn:custom"><soapenv:Header><wsa:RelatesTo soapenv:mustUnderstand="1" soapenv:actor="http://schemas.xmlsoap.org/soap/actor/next">urn:uuid:1</wsa:RelatesTo></soapenv:Header><soapenv:Body><soapenv:Fault><faultcode>q1:Oops</faultcode><faultstring>it &lt;broke&gt; &amp; burned</faultstring><faultactor>urn:actor:me</faultactor><detail><ns1:Backoff unit="s">3</ns1:Backoff></detail></soapenv:Fault></soapenv:Body></soapenv:Envelope>`,
		`<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"><soapenv:Body><soapenv:Fault><faultcode>soapenv:Server</faultcode><faultstring>plain</faultstring></soapenv:Fault></soapenv:Body></soapenv:Envelope>`,
		`<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"><soapenv:Body/></soapenv:Envelope>`,
	},
	SOAP12: {
		`<soapenv:Envelope xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/08/addressing" xmlns:soapenv="http://www.w3.org/2003/05/soap-envelope" xmlns:ns1="urn:app"><soapenv:Header><wsa:RelatesTo soapenv:mustUnderstand="1" soapenv:role="http://schemas.xmlsoap.org/soap/actor/next">urn:uuid:1</wsa:RelatesTo></soapenv:Header><soapenv:Body><soapenv:Fault><soapenv:Code><soapenv:Value>soapenv:Oops</soapenv:Value></soapenv:Code><soapenv:Reason><soapenv:Text xml:lang="en">it &lt;broke&gt; &amp; burned</soapenv:Text></soapenv:Reason><soapenv:Role>urn:actor:me</soapenv:Role><soapenv:Detail><ns1:Backoff unit="s">3</ns1:Backoff></soapenv:Detail></soapenv:Fault></soapenv:Body></soapenv:Envelope>`,
		`<soapenv:Envelope xmlns:soapenv="http://www.w3.org/2003/05/soap-envelope"><soapenv:Body><soapenv:Fault><soapenv:Code><soapenv:Value>soapenv:Receiver</soapenv:Value></soapenv:Code><soapenv:Reason><soapenv:Text xml:lang="en">plain</soapenv:Text></soapenv:Reason></soapenv:Fault></soapenv:Body></soapenv:Envelope>`,
		`<soapenv:Envelope xmlns:soapenv="http://www.w3.org/2003/05/soap-envelope"><soapenv:Body/></soapenv:Envelope>`,
	},
}

func TestGoldenFaultEnvelopes(t *testing.T) {
	for v, want := range goldenFaults {
		detail := xmlutil.NewElement(xmlutil.N("urn:app", "Backoff")).SetText("3")
		detail.SetAttr(xmlutil.N("", "unit"), "s")
		relates := xmlutil.NewElement(xmlutil.N("http://schemas.xmlsoap.org/ws/2004/08/addressing", "RelatesTo")).SetText("urn:uuid:1")
		SetMustUnderstand(relates) // in the 1.1 vocabulary whatever the envelope's version
		SetActor(relates, ActorNext)
		full := NewEnvelopeV(v).AddHeader(relates).
			SetFault(&Fault{Code: xmlutil.N("urn:custom", "Oops"), String: "it <broke> & burned", Actor: "urn:actor:me", Detail: rawElement(detail)})
		for i, env := range []*Envelope{full, NewEnvelopeV(v).SetFault(NewFault(FaultServer, "plain")), NewEnvelopeV(v)} {
			if got := string(env.Marshal()); got != want[i] {
				t.Errorf("%v envelope %d drifted from the golden bytes:\n got: %s\nwant: %s", v, i, got, want[i])
			}
			var sb strings.Builder
			if err := env.MarshalTo(&sb); err != nil || sb.String() != want[i] {
				t.Errorf("%v envelope %d: MarshalTo differs from Marshal: %v\n%s", v, i, err, sb.String())
			}
		}
		if _, ok := relates.Attr(xmlutil.N(Namespace, "actor")); !ok || relates.Parent() != nil {
			t.Errorf("%v: marshalling rewrote the caller's header block: %s", v, xmlutil.Marshal(relates))
		}
	}
}

// foreign is what another stack might send: its own prefixes, a prolog,
// comments, a processing instruction and whitespace ahead of the wrapper,
// QNames in content, a second body element.
const foreign = `<?xml version="1.0"?><S:Envelope xmlns:S="http://schemas.xmlsoap.org/soap/envelope/" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:m="urn:m">` +
	`<S:Header><m:Trace S:mustUnderstand="1" xmlns:t="urn:t" kind="t:k">id-1</m:Trace></S:Header>` +
	`<S:Body><!-- lead --> <?pi x?><m:op xsi:type="m:T"><arg>  1 </arg><m:q xmlns:z="urn:z">z:v</m:q></m:op><m:second/></S:Body></S:Envelope>`

// TestParsedEnvelopeMarshalsAsBefore: marshalling a parsed envelope (which
// builds its body as trees to do it) still gives the bytes it gave when
// Parse built the whole tree.
func TestParsedEnvelopeMarshalsAsBefore(t *testing.T) {
	const golden = `<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:ns1="urn:m" xmlns:t="urn:t" xmlns:z="urn:z"><soapenv:Header><ns1:Trace soapenv:mustUnderstand="1" kind="t:k">id-1</ns1:Trace></soapenv:Header><soapenv:Body><ns1:op xsi:type="m:T"><arg>  1 </arg><ns1:q>z:v</ns1:q></ns1:op><ns1:second/></soapenv:Body></soapenv:Envelope>`
	env, err := Parse([]byte(foreign))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(env.Marshal()); got != golden {
		t.Fatalf("got: %s\nwant: %s", got, golden)
	}
}

// TestLazyBody: Parse leaves the body where it is, and everything the tree
// could be asked is still answered — from 8 goroutines at once, since a
// parsed envelope is shared (an exchange future's message, a replayed
// reply). Run under -race.
func TestLazyBody(t *testing.T) {
	before := BodyTreesBuilt()
	env, err := Parse([]byte(foreign))
	if err != nil {
		t.Fatal(err)
	}
	if name, ok := env.FirstBodyName(); !ok || name != xmlutil.N("urn:m", "op") {
		t.Fatalf("FirstBodyName = %v, %v", name, ok)
	}
	if h := env.Header(xmlutil.N("urn:m", "Trace")); h == nil || !MustUnderstand(h) || h.Parent() == nil {
		t.Fatalf("header block: %v", h)
	} else if qn, err := h.ResolveQName("S:x"); err != nil || qn.Space != Namespace {
		t.Fatalf("a prefix the Envelope declared does not resolve in a header block: %v, %v", qn, err)
	}
	decode := func() (string, error) {
		arg := reflect.New(reflect.TypeOf("")).Elem()
		_, err := env.DecodeBody("urn:m", []xsd.Field{{Name: "arg", Type: arg.Type()}}, []reflect.Value{arg})
		return arg.String(), err
	}
	if got, err := decode(); err != nil || got != "  1 " {
		t.Fatalf("DecodeBody = %q, %v", got, err)
	}
	if n := BodyTreesBuilt() - before; n != 0 {
		t.Fatalf("%d body trees built by Parse, FirstBodyName and DecodeBody", n)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := decode(); err != nil || got != "  1 " {
				t.Errorf("DecodeBody = %q, %v", got, err)
			}
			body := env.Body()
			if len(body) != 2 || body[0] != env.FirstBodyElement() || body[1].Name.Local != "second" {
				t.Errorf("Body = %v", body)
				return
			}
			// The tree is the one a whole-document parse gave: a parent
			// that is the Body, prefixes of the envelope still in scope.
			op := body[0]
			if op.Parent() == nil || op.Parent().Name != xmlutil.N(Namespace, "Body") {
				t.Errorf("body element's parent: %v", op.Parent())
			}
			typ, _ := op.Attr(xmlutil.N("http://www.w3.org/2001/XMLSchema-instance", "type"))
			if qn, err := op.ResolveQName(typ); err != nil || qn != xmlutil.N("urn:m", "T") {
				t.Errorf("QName %q resolves to %v, %v", typ, qn, err)
			}
			if qn, err := op.Find(xmlutil.N("urn:m", "q")).ResolveQName("z:v"); err != nil || qn != xmlutil.N("urn:z", "v") {
				t.Errorf("z:v resolves to %v, %v", qn, err)
			}
		}()
	}
	wg.Wait()
	if n := BodyTreesBuilt() - before; n != 1 {
		t.Fatalf("%d body trees built for one envelope", n)
	}
}

// TestParseScansTheWholeMessage: what is malformed after the wrapper's end
// tag — in the Body, after it, after the envelope — is refused by Parse,
// though nothing there is ever decoded; and the order of complaints is the
// whole-document parser's: XML first, then the envelope's shape.
func TestParseScansTheWholeMessage(t *testing.T) {
	const open = `<S:Envelope xmlns:S="` + Namespace + `"><S:Body><op xmlns="urn:m"><a>1</a></op>`
	for _, doc := range []string{
		open + `<unclosed></S:Body></S:Envelope>`,
		open + `&bogus;</S:Body></S:Envelope>`,
		open + `</S:Body><S:trailer a=1/></S:Envelope>`,
		open + `</S:Body></S:Envelope><second/>`,
		open + `</S:Body>`,
		`<S:Envelope xmlns:S="urn:future-soap"><S:Body></S:Envelope>`, // malformed before it is a version mismatch
	} {
		if env, err := Parse([]byte(doc)); err == nil || !strings.HasPrefix(err.Error(), "soap: xmlutil: parse:") {
			t.Errorf("%s: %+v, %v", doc, env, err)
		}
	}
	if _, err := Parse([]byte(`<S:Envelope xmlns:S="urn:future-soap"><S:Body/></S:Envelope>`)); err == nil || !strings.Contains(err.Error(), "unsupported envelope namespace") {
		t.Errorf("version mismatch: %v", err)
	}
	if _, err := Parse([]byte(`<S:Envelope xmlns:S="` + Namespace + `"><Body xmlns="urn:not-soap"/></S:Envelope>`)); err == nil || !strings.Contains(err.Error(), "no Body") {
		t.Errorf("a Body in another namespace: %v", err)
	}
	// A Fault is recognized wherever it stands among the Body's children,
	// and only there.
	env, err := Parse([]byte(open + `<S:Fault><faultcode>S:Client</faultcode><faultstring>late</faultstring></S:Fault></S:Body></S:Envelope>`))
	if err != nil || !env.IsFault() || env.Fault().String != "late" || env.Body() != nil {
		t.Errorf("fault after another body element: %+v, %v", env, err)
	}
	env, err = Parse([]byte(`<S:Envelope xmlns:S="` + Namespace + `"><S:Body><op><S:Fault/></op></S:Body></S:Envelope>`))
	if err != nil || env.IsFault() {
		t.Errorf("a Fault element deeper in the body: %+v, %v", env, err)
	}
}

// TestBodyForms: an envelope answers the same whichever way its body is
// held, and one form gives way to another cleanly.
func TestBodyForms(t *testing.T) {
	values, wrapper := NewBodyEnvelope(SOAP11, xmlutil.N("urn:m", "op"))
	if err := wrapper.Add("arg", reflect.ValueOf("v")); err != nil {
		t.Fatal(err)
	}
	tree := NewEnvelope().AddBodyElement(wrapper.Element())
	parsed, err := Parse(values.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range []*Envelope{values, tree, parsed} {
		if name, ok := env.FirstBodyName(); !ok || name != wrapper.Name {
			t.Errorf("FirstBodyName = %v, %v", name, ok)
		}
		arg := reflect.New(reflect.TypeOf("")).Elem()
		if _, err := env.DecodeBody("urn:m", []xsd.Field{{Name: "arg", Type: arg.Type()}}, []reflect.Value{arg}); err != nil || arg.String() != "v" {
			t.Errorf("DecodeBody = %q, %v", arg, err)
		}
		if got, want := string(env.Marshal()), string(values.Marshal()); got != want {
			t.Errorf("Marshal = %s, want %s", got, want)
		}
		if el := env.FirstBodyElement(); el == nil || el.Find(xmlutil.N("urn:m", "arg")).Text() != "v" {
			t.Errorf("FirstBodyElement = %v", el)
		}
	}
	// Adding an element to a body held as bytes keeps what was there.
	parsed.AddBodyElement(xmlutil.NewElement(xmlutil.N("urn:m", "more")))
	if body := parsed.Body(); len(body) != 2 || body[0].Name != wrapper.Name || !strings.Contains(string(parsed.Marshal()), "more/>") {
		t.Errorf("after AddBodyElement: %s", parsed.Marshal())
	}
	empty, err := Parse([]byte(`<S:Envelope xmlns:S="` + Namespace + `"><S:Body> <!-- nothing --> </S:Body></S:Envelope>`))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := empty.FirstBodyName(); ok || empty.FirstBodyElement() != nil {
		t.Error("an empty Body has a first element")
	}
	if _, err := empty.DecodeBody("", nil, nil); err == nil {
		t.Error("DecodeBody of an empty Body succeeded")
	}
}

// TestEnvelopeSize: every parsed message is an Envelope, so a field added
// to it — a body wrapper held inline, say — costs every call that much
// more; a built envelope's wrapper lives beside it (NewBodyEnvelope).
func TestEnvelopeSize(t *testing.T) {
	if size := reflect.TypeOf(Envelope{}).Size(); size != 160 {
		t.Errorf("an Envelope is %d bytes, want 160", size)
	}
}

type raceItem struct {
	ID   string   `xml:"id,attr"`
	Tags []string `xml:"urn:other tag"`
}

// TestBodyEnvelopeConcurrentMarshal: marshalling writes nothing into the
// envelope or its wrapper, so one envelope marshalled from two goroutines
// at once gives both the bytes it gives alone.
func TestBodyEnvelopeConcurrentMarshal(t *testing.T) {
	env, wrapper := NewBodyEnvelope(SOAP12, xmlutil.N("urn:m", "op"))
	env.AddHeaderValue(&TextHeader{Name: xmlutil.N("urn:h", "Token"), Text: "t"})
	if err := wrapper.Add("arg", reflect.ValueOf("v")); err != nil {
		t.Fatal(err)
	}
	if err := wrapper.Add("item", reflect.ValueOf(raceItem{ID: "a&b", Tags: []string{"x", "y"}})); err != nil {
		t.Fatal(err)
	}
	want := string(env.Marshal())
	var wg sync.WaitGroup
	got := make([][]string, 2)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got[g] = append(got[g], string(env.Marshal()))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for _, b := range got[g] {
			if b != want {
				t.Fatalf("goroutine %d marshalled %s, want %s", g, b, want)
			}
		}
	}
}
