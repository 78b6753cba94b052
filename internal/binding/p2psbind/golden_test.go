package p2psbind

import (
	"testing"
	"time"

	"wspeer/internal/engine"
	"wspeer/internal/p2ps"
	"wspeer/internal/soap"
	"wspeer/internal/transport"
	"wspeer/internal/wsaddr"
	"wspeer/internal/wsdl"
	"wspeer/internal/xmlutil"
)

// goldenRequest is the bytes the tree-rendering marshaller wrote for the
// request invoker.Invoke builds: To, Action, MessageID and ReplyTo, the
// request pipe's advertisement as a reference-property header, the deadline
// header, then the body. The trap is the prefix numbering: the p2ps
// namespace is met first (inside ReplyTo) and is ns1, the deadline's is
// ns2, and the body's — written from Go values, after every header — is
// ns3. (Trace context does not ride in a SOAP header on this binding.)
const goldenRequest = `<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"` +
	` xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/08/addressing" xmlns:ns2="http://wspeer.dev/deadline"` +
	` xmlns:ns1="http://wspeer.dev/p2ps" xmlns:ns3="http://wspeer.dev/services/Echo">` +
	`<soapenv:Header><wsa:To soapenv:mustUnderstand="1">p2ps://provider/Echo</wsa:To>` +
	`<wsa:Action soapenv:mustUnderstand="1">p2ps://provider/Echo#requests</wsa:Action>` +
	`<wsa:MessageID>urn:uuid:00000000-0000-4000-8000-000000000001</wsa:MessageID>` +
	`<wsa:ReplyTo><wsa:Address>p2ps://consumer</wsa:Address><wsa:ReferenceProperties>` +
	`<ns1:PipeAdvertisement><ns1:Id>pipe-reply-9</ns1:Id><ns1:Name>reply</ns1:Name><ns1:Peer>consumer</ns1:Peer></ns1:PipeAdvertisement>` +
	`</wsa:ReferenceProperties></wsa:ReplyTo>` +
	`<ns1:PipeAdvertisement><ns1:Id>pipe-req-1</ns1:Id><ns1:Name>requests</ns1:Name><ns1:Peer>provider</ns1:Peer></ns1:PipeAdvertisement>` +
	`<ns2:Deadline>1700000000000000</ns2:Deadline></soapenv:Header>` +
	`<soapenv:Body><ns3:echo><ns3:msg>hi &amp; bye</ns3:msg></ns3:echo></soapenv:Body></soapenv:Envelope>`

func TestGoldenRequestEnvelope(t *testing.T) {
	svc, err := engine.New().Deploy(engine.ServiceDef{Name: "Echo", Operations: []engine.OperationDef{{
		Name: "echo", Func: func(s string) string { return s }, ParamNames: []string{"msg"},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	defs, err := svc.WSDL(wsdl.TransportHTTP, "p2ps://provider/Echo")
	if err != nil {
		t.Fatal(err)
	}
	env, _, err := engine.NewStub(defs, nil).PrepareEnvelope("echo", engine.P("msg", "hi & bye"))
	if err != nil {
		t.Fatal(err)
	}
	reqPipe := &p2ps.PipeAdvertisement{ID: "pipe-req-1", Name: RequestPipeName, Peer: "provider"}
	replyPipe := &p2ps.PipeAdvertisement{ID: "pipe-reply-9", Name: "reply", Peer: "consumer"}
	hdr := wsaddr.HeadersFor(PipeToEPR(reqPipe, "Echo"), ActionFor("provider", "Echo", RequestPipeName))
	hdr.MessageID = "urn:uuid:00000000-0000-4000-8000-000000000001"
	hdr.ReplyTo = PipeToEPR(replyPipe, "")
	if err := hdr.Apply(env); err != nil {
		t.Fatal(err)
	}
	env.AddHeader(xmlutil.NewElement(xmlutil.N(transport.DeadlineNS, transport.DeadlineElement)).
		SetText(transport.FormatDeadline(time.UnixMicro(1700000000000000))))
	if got := string(env.Marshal()); got != goldenRequest {
		t.Fatalf("request drifted from the golden bytes:\n got: %s\nwant: %s", got, goldenRequest)
	}

	// And the provider reads back what the consumer wrote, the reply pipe
	// out of the shared reference property included.
	back, err := soap.Parse(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got, err := wsaddr.FromEnvelope(back)
	if err != nil || got.MessageID != hdr.MessageID || got.ReplyTo == nil {
		t.Fatalf("headers read back: %+v, %v", got, err)
	}
	if pipe, err := EPRToPipe(got.ReplyTo); err != nil || *pipe != *replyPipe {
		t.Fatalf("reply pipe read back: %+v, %v", pipe, err)
	}
}
