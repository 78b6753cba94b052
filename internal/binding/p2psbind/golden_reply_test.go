package p2psbind

import (
	"strings"
	"testing"

	"wspeer/internal/soap"
	"wspeer/internal/wsaddr"
	"wspeer/internal/xmlutil"
)

// goldenReply is the bytes the tree-rendering marshaller wrote for the
// reply a provider stamps for goldenRequest: the reply pipe's
// advertisement, read out of the request's ReplyTo, rides back as a
// reference-property header. The trap is what that property declares: as
// an element of a whole-request tree it declared nothing of its own, so the
// reply declares only what it uses — not the request's deadline namespace,
// which would take ns2 from the body.
const goldenReply = `<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"` +
	` xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/08/addressing" xmlns:ns1="http://wspeer.dev/p2ps" xmlns:ns2="http://wspeer.dev/services/Echo">` +
	`<soapenv:Header><wsa:To soapenv:mustUnderstand="1">p2ps://consumer</wsa:To>` +
	`<wsa:Action soapenv:mustUnderstand="1">p2ps://provider/Echo#requests#response</wsa:Action>` +
	`<wsa:MessageID>urn:uuid:00000000-0000-4000-8000-000000000002</wsa:MessageID>` +
	`<wsa:RelatesTo>urn:uuid:00000000-0000-4000-8000-000000000001</wsa:RelatesTo>` +
	`<ns1:PipeAdvertisement><ns1:Id>pipe-reply-9</ns1:Id><ns1:Name>reply</ns1:Name><ns1:Peer>consumer</ns1:Peer></ns1:PipeAdvertisement>` +
	`</soapenv:Header><soapenv:Body><ns2:echoResponse/></soapenv:Body></soapenv:Envelope>`

// TestGoldenReplyEnvelope: a reply addressed with the reference properties
// read from a request is written as it was when they were read from the
// request's tree, in SOAP 1.1 and 1.2.
func TestGoldenReplyEnvelope(t *testing.T) {
	for _, v := range []soap.Version{soap.SOAP11, soap.SOAP12} {
		request, want := goldenRequest, goldenReply
		if v == soap.SOAP12 {
			request = strings.Replace(goldenRequest, soap.Namespace, soap.Namespace12, 1)
			want = `<soapenv:Envelope xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/08/addressing" xmlns:ns1="http://wspeer.dev/p2ps"` +
				` xmlns:ns2="http://wspeer.dev/services/Echo" xmlns:soapenv="` + soap.Namespace12 + `">` + want[strings.Index(want, "<soapenv:Header>"):]
		}
		back, err := soap.Parse([]byte(request))
		if err != nil {
			t.Fatal(err)
		}
		got, err := wsaddr.FromEnvelope(back)
		if err != nil {
			t.Fatal(err)
		}
		reply := soap.NewEnvelopeV(v).AddBodyElement(xmlutil.NewElement(xmlutil.N("http://wspeer.dev/services/Echo", "echoResponse")))
		rh := wsaddr.HeadersFor(got.ReplyTo, got.Action+"#response")
		rh.MessageID, rh.RelatesTo = "urn:uuid:00000000-0000-4000-8000-000000000002", got.MessageID
		if err := rh.Apply(reply); err != nil {
			t.Fatal(err)
		}
		if b := string(reply.Marshal()); b != want {
			t.Errorf("%v reply drifted from the golden bytes:\n got: %s\nwant: %s", v, b, want)
		}
	}
}
