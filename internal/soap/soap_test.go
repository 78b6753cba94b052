package soap

import (
	"errors"
	"strings"
	"testing"

	"wspeer/internal/xmlutil"
)

const appNS = "http://example.org/app"

func TestEnvelopeRoundTrip(t *testing.T) {
	env := NewEnvelope()
	hdr := xmlutil.NewElement(xmlutil.N(appNS, "TraceID")).SetText("abc-123")
	SetMustUnderstand(hdr)
	SetActor(hdr, ActorNext)
	env.AddHeader(hdr)
	body := xmlutil.NewElement(xmlutil.N(appNS, "Echo"))
	body.NewChild(xmlutil.N(appNS, "msg")).SetText("hello")
	env.AddBodyElement(body)

	data := env.Marshal()
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, data)
	}
	if back.IsFault() {
		t.Fatal("unexpected fault")
	}
	h := back.Header(xmlutil.N(appNS, "TraceID"))
	if h == nil || h.Text() != "abc-123" {
		t.Fatalf("header lost: %s", data)
	}
	if !MustUnderstand(h) {
		t.Fatal("mustUnderstand lost")
	}
	if Actor(h) != ActorNext {
		t.Fatalf("actor = %q", Actor(h))
	}
	b := back.FirstBodyElement()
	if b == nil || b.Name != xmlutil.N(appNS, "Echo") {
		t.Fatalf("body lost: %s", data)
	}
	if got := b.Find(xmlutil.N(appNS, "msg")).Text(); got != "hello" {
		t.Fatalf("body content: %q", got)
	}
}

func TestEnvelopeWithoutHeaders(t *testing.T) {
	env := NewEnvelope()
	env.AddBodyElement(xmlutil.NewElement(xmlutil.N(appNS, "Ping")))
	data := string(env.Marshal())
	if strings.Contains(data, "Header") {
		t.Fatalf("empty Header element should be omitted: %s", data)
	}
	back, err := Parse([]byte(data))
	if err != nil || len(back.Headers()) != 0 {
		t.Fatalf("parse: %v", err)
	}
}

func TestFaultRoundTrip(t *testing.T) {
	detail := xmlutil.NewElement(xmlutil.N(appNS, "Cause")).SetText("db down")
	f := NewFault(FaultServer, "backend unavailable: %s", "db")
	f.Actor = "urn:node-7"
	f.Detail = rawElement(detail)
	env := NewEnvelope().SetFault(f)

	data := env.Marshal()
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("parse fault: %v\n%s", err, data)
	}
	if !back.IsFault() {
		t.Fatalf("fault not detected: %s", data)
	}
	bf := back.Fault()
	if bf.Code != FaultServer {
		t.Fatalf("code = %v", bf.Code)
	}
	if bf.String != "backend unavailable: db" {
		t.Fatalf("string = %q", bf.String)
	}
	if bf.Actor != "urn:node-7" {
		t.Fatalf("actor = %q", bf.Actor)
	}
	if bf.Detail.Name != xmlutil.N(appNS, "Cause") || detailText(bf) != "db down" {
		t.Fatalf("detail = %v %q", bf.Detail.Name, detailText(bf))
	}
	if !strings.Contains(bf.Error(), "backend unavailable") {
		t.Fatalf("Error() = %q", bf.Error())
	}
}

func TestFaultIsError(t *testing.T) {
	var err error = NewFault(FaultClient, "bad request")
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatal("fault must satisfy error")
	}
	if !f.IsClient() {
		t.Fatal("IsClient")
	}
	if NewFault(FaultServer, "x").IsClient() {
		t.Fatal("server fault is not client")
	}
}

func TestServerFaultWrapping(t *testing.T) {
	plain := errors.New("boom")
	f := ServerFault(plain)
	if f.Code != FaultServer || f.String != "boom" {
		t.Fatalf("wrap: %+v", f)
	}
	orig := NewFault(FaultClient, "keep me")
	if ServerFault(orig) != orig {
		t.Fatal("existing faults must pass through unchanged")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte("<not-an-envelope/>")); err == nil {
		t.Fatal("non-envelope accepted")
	}
	if _, err := Parse([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Envelope without a Body.
	noBody := `<soapenv:Envelope xmlns:soapenv="` + Namespace + `"/>`
	if _, err := Parse([]byte(noBody)); err == nil {
		t.Fatal("missing Body accepted")
	}
}

func TestVersionMismatch(t *testing.T) {
	unknown := `<env:Envelope xmlns:env="urn:future-soap"><env:Body/></env:Envelope>`
	_, err := Parse([]byte(unknown))
	var vm *VersionMismatchError
	if !errors.As(err, &vm) {
		t.Fatalf("want VersionMismatchError, got %v", err)
	}
	if !strings.Contains(vm.Error(), "future-soap") {
		t.Fatalf("message: %v", vm)
	}
}

func TestAddBodyToFaultPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	env := NewEnvelope().SetFault(NewFault(FaultServer, "x"))
	env.AddBodyElement(xmlutil.NewElement(xmlutil.N(appNS, "X")))
}

func TestMultipleBodyElements(t *testing.T) {
	env := NewEnvelope()
	env.AddBodyElement(xmlutil.NewElement(xmlutil.N(appNS, "A")))
	env.AddBodyElement(xmlutil.NewElement(xmlutil.N(appNS, "B")))
	back, err := Parse(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Body()) != 2 {
		t.Fatalf("body count = %d", len(back.Body()))
	}
	if back.Body()[1].Name.Local != "B" {
		t.Fatal("body order lost")
	}
}

func TestHeaderLookupMiss(t *testing.T) {
	env := NewEnvelope()
	if env.Header(xmlutil.N(appNS, "Nope")) != nil {
		t.Fatal("lookup on empty headers")
	}
	if env.FirstBodyElement() != nil {
		t.Fatal("empty body")
	}
}

func TestParsedFaultWithUnresolvablePrefix(t *testing.T) {
	// A peer may emit a faultcode with a prefix it forgot to declare.
	raw := `<soapenv:Envelope xmlns:soapenv="` + Namespace + `"><soapenv:Body>
	  <soapenv:Fault><faultcode>undeclared:Server</faultcode><faultstring>x</faultstring></soapenv:Fault>
	</soapenv:Body></soapenv:Envelope>`
	env, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	// It keeps the local part, in no namespace: no declaration elsewhere
	// in a message it is re-sent in can bind the prefix.
	if !env.IsFault() || env.Fault().Code != xmlutil.N("", "Server") {
		t.Fatalf("lenient faultcode handling: %+v", env.Fault())
	}
}

// rawElement is el written as a Raw, the form a fault's detail takes: what
// a hand-driven Writer gives for it, as resilience writes an overload's.
func rawElement(el *xmlutil.Element) xmlutil.Raw {
	w := xmlutil.AcquireWriter()
	w.Collect(el)
	w.Tree(el)
	return w.FinishRaw(el.Name)
}

// detailText is the text of f's detail element.
func detailText(f *Fault) string {
	el, err := f.Detail.Element()
	if err != nil {
		return err.Error()
	}
	return el.Text()
}
