package soap

import (
	"strings"
	"testing"

	"wspeer/internal/xmlutil"
)

func TestVersionProperties(t *testing.T) {
	if SOAP11.Namespace() != Namespace || SOAP12.Namespace() != Namespace12 {
		t.Fatal("namespaces")
	}
	if !strings.HasPrefix(SOAP11.ContentType(), "text/xml") {
		t.Fatal("1.1 content type")
	}
	if !strings.HasPrefix(SOAP12.ContentType(), "application/soap+xml") {
		t.Fatal("1.2 content type")
	}
	if SOAP11.String() == SOAP12.String() {
		t.Fatal("String")
	}
}

func TestSOAP12EnvelopeRoundTrip(t *testing.T) {
	env := NewEnvelopeV(SOAP12)
	hdr := xmlutil.NewElement(xmlutil.N(appNS, "TraceID")).SetText("t-1")
	SetMustUnderstand(hdr) // written in 1.1 vocabulary, normalized at render
	env.AddHeader(hdr)
	body := xmlutil.NewElement(xmlutil.N(appNS, "Echo"))
	body.NewChild(xmlutil.N(appNS, "msg")).SetText("hi")
	env.AddBodyElement(body)

	data := env.Marshal()
	if !strings.Contains(string(data), Namespace12) {
		t.Fatalf("not serialized in 1.2 namespace:\n%s", data)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version() != SOAP12 {
		t.Fatalf("version = %v", back.Version())
	}
	h := back.Header(xmlutil.N(appNS, "TraceID"))
	if h == nil {
		t.Fatal("header lost")
	}
	// The mustUnderstand attribute must be in the 1.2 namespace on the
	// wire, and MustUnderstand must still see it.
	if _, ok := h.Attr(xmlutil.N(Namespace12, "mustUnderstand")); !ok {
		t.Fatalf("mustUnderstand not normalized to 1.2: %s", data)
	}
	if !MustUnderstand(h) {
		t.Fatal("MustUnderstand does not read 1.2 attribute")
	}
	if back.FirstBodyElement().Name != xmlutil.N(appNS, "Echo") {
		t.Fatal("body lost")
	}
}

func TestSOAP12ActorRoleNormalization(t *testing.T) {
	env := NewEnvelopeV(SOAP12)
	hdr := xmlutil.NewElement(xmlutil.N(appNS, "H"))
	SetActor(hdr, "urn:some-role")
	env.AddHeader(hdr)
	env.AddBodyElement(xmlutil.NewElement(xmlutil.N(appNS, "X")))
	back, err := Parse(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	h := back.Header(xmlutil.N(appNS, "H"))
	if v, ok := h.Attr(xmlutil.N(Namespace12, "role")); !ok || v != "urn:some-role" {
		t.Fatalf("actor not renamed to role: %v", h.Attrs)
	}
}

func TestSOAP12FaultRoundTrip(t *testing.T) {
	f := NewFault(FaultClient, "bad input")
	f.Actor = "urn:node"
	f.Detail = rawElement(xmlutil.NewElement(xmlutil.N(appNS, "Why")).SetText("because"))
	env := NewEnvelopeV(SOAP12).SetFault(f)
	data := env.Marshal()
	if !strings.Contains(string(data), "Sender") {
		t.Fatalf("1.2 fault must use Sender:\n%s", data)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.IsFault() || back.Version() != SOAP12 {
		t.Fatalf("fault lost: %+v", back)
	}
	bf := back.Fault()
	// The code canonicalizes back to the 1.1 vocabulary.
	if bf.Code != FaultClient {
		t.Fatalf("code = %v", bf.Code)
	}
	if bf.String != "bad input" || bf.Actor != "urn:node" {
		t.Fatalf("fields: %+v", bf)
	}
	if bf.Detail.Name != xmlutil.N(appNS, "Why") || detailText(bf) != "because" {
		t.Fatalf("detail: %v %q", bf.Detail.Name, detailText(bf))
	}
}

func TestSOAP12ServerFaultMapsToReceiver(t *testing.T) {
	env := NewEnvelopeV(SOAP12).SetFault(NewFault(FaultServer, "boom"))
	data := string(env.Marshal())
	if !strings.Contains(data, "Receiver") {
		t.Fatalf("Server must render as Receiver:\n%s", data)
	}
	back, err := Parse([]byte(data))
	if err != nil || back.Fault().Code != FaultServer {
		t.Fatalf("round trip: %v %+v", err, back.Fault())
	}
}

func TestSOAP12CustomFaultCode(t *testing.T) {
	// Non-standard codes keep their local name across versions.
	env := NewEnvelopeV(SOAP12).SetFault(NewFault(FaultMustUnderstand, "x"))
	back, err := Parse(env.Marshal())
	if err != nil || back.Fault().Code != FaultMustUnderstand {
		t.Fatalf("round trip: %v %+v", err, back.Fault())
	}
}

func TestSOAP12FaultWithoutCodeRejected(t *testing.T) {
	raw := `<env:Envelope xmlns:env="` + Namespace12 + `"><env:Body><env:Fault>
	  <env:Reason><env:Text>oops</env:Text></env:Reason>
	</env:Fault></env:Body></env:Envelope>`
	if _, err := Parse([]byte(raw)); err == nil {
		t.Fatal("1.2 fault without Code accepted")
	}
}

func TestCrossVersionIsolation(t *testing.T) {
	// A 1.1 envelope does not accidentally pick up 1.2 structure and vice
	// versa.
	env11 := NewEnvelope()
	env11.AddBodyElement(xmlutil.NewElement(xmlutil.N(appNS, "A")))
	if strings.Contains(string(env11.Marshal()), Namespace12) {
		t.Fatal("1.1 envelope leaked 1.2 namespace")
	}
	env12 := NewEnvelopeV(SOAP12)
	env12.AddBodyElement(xmlutil.NewElement(xmlutil.N(appNS, "A")))
	out := string(env12.Marshal())
	if strings.Contains(out, `"`+Namespace+`"`) {
		t.Fatalf("1.2 envelope leaked 1.1 namespace:\n%s", out)
	}
}
