package soap

import (
	"strings"
	"testing"

	"wspeer/internal/xmlutil"
)

// Conformance fixtures: envelopes as other 2004-era stacks put them on the
// wire. The engine must parse all of these.

func TestAxisStyleEnvelope(t *testing.T) {
	// Axis 1.x: soapenv prefix, xsi/xsd declarations on the root, an
	// xsi:type attribute on the parameter.
	raw := `<?xml version="1.0" encoding="UTF-8"?>
<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">
  <soapenv:Body>
    <echo xmlns="http://example.org/axis/EchoService">
      <in0 xsi:type="xsd:string">hello axis</in0>
    </echo>
  </soapenv:Body>
</soapenv:Envelope>`
	env, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	body := env.FirstBodyElement()
	if body == nil || body.Name != xmlutil.N("http://example.org/axis/EchoService", "echo") {
		t.Fatalf("body = %v", body)
	}
	in0 := body.Find(xmlutil.N("http://example.org/axis/EchoService", "in0"))
	if in0 == nil || in0.Text() != "hello axis" {
		t.Fatalf("in0 = %v", in0)
	}
	// The xsi:type attribute must survive as an ordinary attribute.
	if v, ok := in0.Attr(xmlutil.N("http://www.w3.org/2001/XMLSchema-instance", "type")); !ok || v == "" {
		t.Fatal("xsi:type lost")
	}
}

func TestDotNetStyleEnvelope(t *testing.T) {
	// .NET asmx: soap prefix, default namespace on the wrapper.
	raw := `<?xml version="1.0" encoding="utf-8"?>
<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"
    xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <soap:Body>
    <Add xmlns="http://tempuri.org/">
      <a>19</a>
      <b>23</b>
    </Add>
  </soap:Body>
</soap:Envelope>`
	env, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	add := env.FirstBodyElement()
	if add.Name != xmlutil.N("http://tempuri.org/", "Add") {
		t.Fatalf("wrapper = %v", add.Name)
	}
	if add.Find(xmlutil.N("http://tempuri.org/", "a")).Text() != "19" || add.Find(xmlutil.N("http://tempuri.org/", "b")).Text() != "23" {
		t.Fatal("parameters lost")
	}
}

func TestAxisStyleFault(t *testing.T) {
	// Axis fault with namespaced detail and a stack-trace-ish element.
	raw := `<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/">
 <soapenv:Body>
  <soapenv:Fault>
   <faultcode>soapenv:Server.userException</faultcode>
   <faultstring>java.rmi.RemoteException: boom</faultstring>
   <detail>
    <ns1:exceptionName xmlns:ns1="http://xml.apache.org/axis/">java.rmi.RemoteException</ns1:exceptionName>
   </detail>
  </soapenv:Fault>
 </soapenv:Body>
</soapenv:Envelope>`
	env, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !env.IsFault() {
		t.Fatal("fault not detected")
	}
	f := env.Fault()
	// Dotted subcodes keep their full local part.
	if f.Code.Local != "Server.userException" || f.Code.Space != Namespace {
		t.Fatalf("code = %v", f.Code)
	}
	if f.Detail.Name.Local != "exceptionName" {
		t.Fatalf("detail = %v", f.Detail.Name)
	}
}

func TestWhitespaceHeavyEnvelope(t *testing.T) {
	// Pretty-printed documents with indentation everywhere must parse to
	// the same logical structure.
	raw := "<soapenv:Envelope xmlns:soapenv=\"" + Namespace + "\">\n\t\n  <soapenv:Header>\n    " +
		"<t:Trace xmlns:t=\"urn:t\">  abc  </t:Trace>\n  </soapenv:Header>\n" +
		"  <soapenv:Body>\n    <op xmlns=\"urn:svc\">\n      <p>  v  </p>\n    </op>\n  </soapenv:Body>\n" +
		"</soapenv:Envelope>"
	env, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Headers()) != 1 {
		t.Fatalf("headers = %d", len(env.Headers()))
	}
	if strings.TrimSpace(env.Headers()[0].Text()) != "abc" {
		t.Fatalf("header text = %q", env.Headers()[0].Text())
	}
	p := env.FirstBodyElement().Find(xmlutil.N("urn:svc", "p"))
	if strings.TrimSpace(p.Text()) != "v" {
		t.Fatalf("param text = %q", p.Text())
	}
}

func TestUTF8Payloads(t *testing.T) {
	env := NewEnvelope()
	body := xmlutil.NewElement(xmlutil.N("urn:i18n", "echo"))
	const text = "héllo wörld — 日本語 — ελληνικά — 🜛"
	body.NewChild(xmlutil.N("urn:i18n", "msg")).SetText(text)
	env.AddBodyElement(body)
	back, err := Parse(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got := back.FirstBodyElement().Find(xmlutil.N("urn:i18n", "msg")).Text(); got != text {
		t.Fatalf("utf8 round trip: %q", got)
	}
}
