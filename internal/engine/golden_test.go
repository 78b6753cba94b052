package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"wspeer/internal/soap"
	"wspeer/internal/transport"
	"wspeer/internal/wsdl"
	"wspeer/internal/xmlutil"
)

// Rec is the benchmark's record shape (bench/gen.go).
type Rec struct {
	ID    int64
	Name  string
	Score float64
	Tags  []string
}

func recordsDef() ServiceDef {
	return ServiceDef{Name: "Records", Operations: []OperationDef{{
		Name: "records", ParamNames: []string{"msg"},
		Func: func(in []Rec) []Rec {
			out := make([]Rec, len(in))
			for i, r := range in {
				out[len(in)-1-i] = r
			}
			return out
		},
	}}}
}

// The wire bytes of a records round trip, captured from the tree-rendering
// marshaller this codec replaced: what must not move is the prefix
// numbering, the escaping, the self-closed form of an element with nothing
// significant in it (an empty or whitespace-only string, a struct of nil
// fields) and strconv's shortest float form.
const (
	goldenRecordsRequest = `<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"` +
		` xmlns:ns1="http://wspeer.dev/services/Records"><soapenv:Body><ns1:records>` +
		`<ns1:msg><ns1:ID>-7</ns1:ID><ns1:Name>a&amp;b &lt;c&gt; &#34;q&#34; é</ns1:Name><ns1:Score>1.5</ns1:Score>` +
		`<ns1:Tags>x</ns1:Tags><ns1:Tags/><ns1:Tags/><ns1:Tags> y&#xA;</ns1:Tags></ns1:msg>` +
		`<ns1:msg><ns1:ID>9223372036854775807</ns1:ID><ns1:Name/><ns1:Score>1e+21</ns1:Score></ns1:msg>` +
		`</ns1:records></soapenv:Body></soapenv:Envelope>`
	goldenRecordsResponse = `<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"` +
		` xmlns:ns1="http://wspeer.dev/services/Records"><soapenv:Body><ns1:recordsResponse>` +
		`<ns1:return><ns1:ID>9223372036854775807</ns1:ID><ns1:Name/><ns1:Score>1e+21</ns1:Score></ns1:return>` +
		`<ns1:return><ns1:ID>-7</ns1:ID><ns1:Name>a&amp;b &lt;c&gt; &#34;q&#34; é</ns1:Name><ns1:Score>1.5</ns1:Score>` +
		`<ns1:Tags>x</ns1:Tags><ns1:Tags/><ns1:Tags/><ns1:Tags> y&#xA;</ns1:Tags></ns1:return>` +
		`</ns1:recordsResponse></soapenv:Body></soapenv:Envelope>`
	goldenUnknownOpFault11 = `<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<soapenv:Body><soapenv:Fault><faultcode>soapenv:Client</faultcode>` +
		`<faultstring>service &#34;Records&#34; has no operation &#34;nope&#34;</faultstring>` +
		`</soapenv:Fault></soapenv:Body></soapenv:Envelope>`
	goldenUnknownOpFault12 = `<soapenv:Envelope xmlns:soapenv="http://www.w3.org/2003/05/soap-envelope">` +
		`<soapenv:Body><soapenv:Fault><soapenv:Code><soapenv:Value>soapenv:Sender</soapenv:Value></soapenv:Code>` +
		`<soapenv:Reason><soapenv:Text xml:lang="en">service &#34;Records&#34; has no operation &#34;nope&#34;</soapenv:Text></soapenv:Reason>` +
		`</soapenv:Fault></soapenv:Body></soapenv:Envelope>`
)

func TestGoldenRecordsRoundTrip(t *testing.T) {
	e := New()
	svc, err := e.Deploy(recordsDef())
	if err != nil {
		t.Fatal(err)
	}
	defs, err := svc.WSDL(wsdl.TransportHTTP, "mem://h/Records")
	if err != nil {
		t.Fatal(err)
	}
	in := []Rec{
		{ID: -7, Name: `a&b <c> "q" é`, Score: 1.5, Tags: []string{"x", "", " \t", " y\n"}},
		{ID: math.MaxInt64, Score: 1e21},
	}
	req, _, err := NewStub(defs, nil).BuildRequest("records", P("msg", in))
	if err != nil {
		t.Fatal(err)
	}
	if string(req.Body) != goldenRecordsRequest {
		t.Fatalf("request drifted from the golden bytes:\n got: %s\nwant: %s", req.Body, goldenRecordsRequest)
	}
	ctx := context.Background()
	resp, err := e.ServeRequest(ctx, "Records", req)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != goldenRecordsResponse {
		t.Fatalf("response drifted from the golden bytes:\n got: %s\nwant: %s", resp.Body, goldenRecordsResponse)
	}

	for _, tc := range []struct {
		version soap.Version
		want    string
	}{{soap.SOAP11, goldenUnknownOpFault11}, {soap.SOAP12, goldenUnknownOpFault12}} {
		ns := tc.version.Namespace()
		body := `<e:Envelope xmlns:e="` + ns + `"><e:Body><nope xmlns="urn:x"/></e:Body></e:Envelope>`
		resp, err := e.ServeRequest(ctx, "Records", &transport.Request{Body: []byte(body)})
		if err != nil || !resp.Faulted {
			t.Fatalf("%v: %+v, %v", tc.version, resp, err)
		}
		if string(resp.Body) != tc.want {
			t.Fatalf("%v fault drifted from the golden bytes:\n got: %s\nwant: %s", tc.version, resp.Body, tc.want)
		}
	}
}

// TestResultDecodesFromTheBytes: a Result holds the response as it arrived
// and scans it again for every part it is asked for — twice for one part,
// for two different parts, into a variable that already holds something —
// and hands out the wrapper as a tree only when asked.
func TestResultDecodesFromTheBytes(t *testing.T) {
	_, stub, _ := harness(t)
	trees := soap.BodyTreesBuilt()
	res, err := stub.Invoke(context.Background(), "divide", P("in0", 7.0), P("in1", 2.0))
	if err != nil {
		t.Fatal(err)
	}
	q, r := 99.0, 99.0
	for i := 0; i < 2; i++ {
		if err := res.Decode("quotient", &q); err != nil || q != 3.5 {
			t.Fatalf("quotient = %v, %v", q, err)
		}
		if err := res.Decode("remainder", &r); err != nil || r != 0 {
			t.Fatalf("remainder = %v, %v", r, err)
		}
	}
	var wrong int64
	if err := res.Decode("quotient", &wrong); err == nil || wrong != 0 {
		t.Fatalf("3.5 decoded as an integer: %v, %v", wrong, err)
	}
	if n := soap.BodyTreesBuilt() - trees; n != 0 {
		t.Fatalf("%d body trees built by an invocation and seven decodes", n)
	}
	if w := res.Wrapper(); w == nil || w.Name.Local != "divideResponse" || w.Find(xmlutil.N(w.Name.Space, "quotient")).Text() != "3.5" {
		t.Fatalf("Wrapper = %v", w)
	}
	if n := soap.BodyTreesBuilt() - trees; n != 1 {
		t.Fatalf("%d body trees built for one Wrapper call", n)
	}
}

// TestMalformedAfterTheWrapperIsRefusedBeforeDispatch: the operation's
// parameters decode from bytes that end well before the garbage does, but
// the request was scanned to its end first, and nothing ran.
func TestMalformedAfterTheWrapperIsRefusedBeforeDispatch(t *testing.T) {
	ran := 0
	e := New()
	if _, err := e.Deploy(ServiceDef{Name: "S", Operations: []OperationDef{{
		Name: "op", ParamNames: []string{"a"}, Func: func(a string) string { ran++; return a },
	}}}); err != nil {
		t.Fatal(err)
	}
	const head = `<e:Envelope xmlns:e="` + soap.Namespace + `"><e:Body><op xmlns="` + DefaultNamespacePrefix + `S"><a>x</a></op>`
	for _, tail := range []string{`<junk></e:Body></e:Envelope>`, `</e:Body></e:Envelope><more/>`, `</e:Body>&bad;</e:Envelope>`} {
		resp, err := e.ServeRequest(context.Background(), "S", &transport.Request{Body: []byte(head + tail)})
		if err != nil || !resp.Faulted {
			t.Fatalf("%s: %+v, %v", tail, resp, err)
		}
		env, err := soap.Parse(resp.Body)
		if err != nil || !env.Fault().IsClient() || !strings.HasPrefix(env.Fault().String, "malformed envelope: soap: xmlutil: parse:") {
			t.Fatalf("%s: %v, %+v", tail, err, env.Fault())
		}
	}
	if ran != 0 {
		t.Fatalf("the operation ran %d times on a malformed request", ran)
	}
	if resp, err := e.ServeRequest(context.Background(), "S", &transport.Request{Body: []byte(head + `</e:Body></e:Envelope>`)}); err != nil || resp.Faulted || ran != 1 {
		t.Fatalf("the well-formed request: %+v, %v, ran %d", resp, err, ran)
	}
}

// TestBadParameterFaultString: a parameter whose lexical form does not
// parse — straight from the token's bytes now — is answered with the fault
// string the tree decoder gave.
func TestBadParameterFaultString(t *testing.T) {
	e := New()
	if _, err := e.Deploy(echoDef()); err != nil {
		t.Fatal(err)
	}
	body := `<e:Envelope xmlns:e="` + soap.Namespace + `"><e:Body><add xmlns="` + DefaultNamespacePrefix + `Echo"><b>2</b><a> x1 </a></add></e:Body></e:Envelope>`
	resp, err := e.ServeRequest(context.Background(), "Echo", &transport.Request{Body: []byte(body)})
	if err != nil || !resp.Faulted {
		t.Fatalf("%+v, %v", resp, err)
	}
	env, err := soap.Parse(resp.Body)
	const want = `parameter "a": xsd: bad integer "x1": strconv.ParseInt: parsing "x1": invalid syntax`
	if err != nil || !env.Fault().IsClient() || env.Fault().String != want {
		t.Fatalf("%v, fault %+v, want %q", err, env.Fault(), want)
	}
}
