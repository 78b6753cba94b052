package engine

import (
	"context"
	"errors"
	"testing"

	"wspeer/internal/exchange"
	"wspeer/internal/soap"
	"wspeer/internal/transport"
	"wspeer/internal/wsaddr"
	"wspeer/internal/xmlutil"
)

// TestDeliverReplyAddressing pins the WS-Addressing reply rule in the one
// place that applies it: faults go to FaultTo when the request carries one
// and to ReplyTo otherwise, everything else follows ReplyTo, and the reply
// relates to the request's MessageID under a fresh one of its own.
func TestDeliverReplyAddressing(t *testing.T) {
	e := New()
	type sent struct {
		to  *wsaddr.EndpointReference
		msg *exchange.Message
	}
	var got []sent
	var sendErr error
	e.RegisterReplySender("test", ReplySenderFunc(func(_ context.Context, to *wsaddr.EndpointReference, msg *exchange.Message) error {
		got = append(got, sent{to, msg})
		return sendErr
	}))
	replies := wsaddr.NewEndpointReference("test://consumer/replies")
	replies.AddReferenceProperty(xmlutil.NewElement(xmlutil.N("urn:t", "Pipe")).SetText("reply"))
	req := &wsaddr.MessageHeaders{
		To: "test://provider/Echo", Action: "urn:op", MessageID: "urn:uuid:req-1",
		ReplyTo: replies,
		FaultTo: wsaddr.NewEndpointReference("test://consumer/faults"),
	}
	response := func() *soap.Envelope {
		env := soap.NewEnvelope()
		env.AddBodyElement(xmlutil.NewElement(xmlutil.N("urn:t", "echoResponse")))
		return env
	}
	fault := func() *soap.Envelope {
		return soap.NewEnvelope().SetFault(soap.ServerFault(errors.New("boom")))
	}
	ctx := context.Background()

	// A normal reply follows ReplyTo even when FaultTo is present.
	if !e.DeliverReply(ctx, req, response()) || len(got) != 1 {
		t.Fatalf("response not delivered (%d sends)", len(got))
	}
	h := got[0].msg.Headers
	if got[0].to != replies || h.To != replies.Address || got[0].msg.Endpoint != replies.Address {
		t.Fatalf("response addressed to %q / %q", got[0].to.Address, h.To)
	}
	if h.RelatesTo != req.MessageID || h.MessageID == "" || h.MessageID == req.MessageID {
		t.Fatalf("response correlation: RelatesTo %q MessageID %q", h.RelatesTo, h.MessageID)
	}
	if h.Action != "urn:op#response" || len(h.RefProps) != 1 {
		t.Fatalf("response Action %q, %d reference properties", h.Action, len(h.RefProps))
	}
	// The stamped headers are on the wire, not only on the Message.
	env, err := soap.Parse(got[0].msg.Body)
	if err != nil {
		t.Fatal(err)
	}
	if wire, err := wsaddr.FromEnvelope(env); err != nil || wire.RelatesTo != req.MessageID || wire.To != replies.Address {
		t.Fatalf("wire headers = %+v, %v", wire, err)
	}

	// Faults go to FaultTo when the request carries one...
	if !e.DeliverReply(ctx, req, fault()) || len(got) != 2 {
		t.Fatal("fault not delivered")
	}
	if h := got[1].msg.Headers; got[1].to != req.FaultTo || h.Action != "urn:op#fault" || h.RelatesTo != req.MessageID {
		t.Fatalf("fault addressed to %q, Action %q, RelatesTo %q", got[1].to.Address, h.Action, h.RelatesTo)
	}
	// ...and fall back to ReplyTo without one.
	noFaultTo := *req
	noFaultTo.FaultTo = nil
	if !e.DeliverReply(ctx, &noFaultTo, fault()) || got[2].to != replies {
		t.Fatal("fault without FaultTo did not follow ReplyTo")
	}

	// Nothing is sent, and the caller is told to use the back channel, for
	// a request without headers, without a reply target, with an anonymous
	// one, with one no sender serves — or when the send fails.
	for name, hdr := range map[string]*wsaddr.MessageHeaders{
		"no headers": nil,
		"no ReplyTo": {Action: "urn:op", MessageID: "m"},
		"anonymous":  {Action: "urn:op", MessageID: "m", ReplyTo: wsaddr.NewEndpointReference(wsaddr.Anonymous)},
		"no sender":  {Action: "urn:op", MessageID: "m", ReplyTo: wsaddr.NewEndpointReference("other://x")},
	} {
		if e.DeliverReply(ctx, hdr, response()) || len(got) != 3 {
			t.Fatalf("%s: reported delivered, or sent (%d sends)", name, len(got))
		}
	}
	sendErr = errors.New("pipe gone")
	if e.DeliverReply(ctx, req, response()) {
		t.Fatal("failed send reported as delivered")
	}
}

// TestServeParsedUsesWhatItIsHanded: the entry point for a host that has
// already parsed the request neither parses the body nor reads the
// addressing headers off the envelope again. The body it is given here does
// not parse, and the headers disagree with the envelope's (which has none):
// the operation still runs on the envelope's parameters and the reply goes
// where, and relates to what, the handed-in headers say. mustUnderstand
// processing still runs, on the handed-in envelope.
func TestServeParsedUsesWhatItIsHanded(t *testing.T) {
	e := New()
	if _, err := e.Deploy(echoDef()); err != nil {
		t.Fatal(err)
	}
	var to *wsaddr.EndpointReference
	var reply *exchange.Message
	e.RegisterReplySender("test", ReplySenderFunc(func(_ context.Context, epr *wsaddr.EndpointReference, msg *exchange.Message) error {
		to, reply = epr, msg
		return nil
	}))
	request := func() *soap.Envelope {
		env := soap.NewEnvelope()
		wrapper := xmlutil.NewElement(xmlutil.N(DefaultNamespacePrefix+"Echo", "echoString"))
		wrapper.NewChild(xmlutil.N(DefaultNamespacePrefix+"Echo", "msg")).SetText("handed in")
		env.AddBodyElement(wrapper)
		return env
	}
	hdr := &wsaddr.MessageHeaders{
		To: "test://provider/Echo", Action: "urn:op", MessageID: "urn:uuid:handed-in",
		ReplyTo: wsaddr.NewEndpointReference("test://consumer/replies"),
	}
	unparseable := &transport.Request{Body: []byte("<not an envelope")}
	ctx := context.Background()

	resp, err := e.ServeParsed(ctx, "Echo", unparseable, request(), hdr)
	if err != nil || resp == nil || len(resp.Body) != 0 {
		t.Fatalf("ServeParsed = %+v, %v; want the bare ack of a reply delivered out of band", resp, err)
	}
	if reply == nil || to != hdr.ReplyTo || reply.Headers.RelatesTo != hdr.MessageID {
		t.Fatalf("reply %+v to %+v: not addressed by the handed-in headers", reply, to)
	}
	env, err := soap.Parse(reply.Body)
	if err != nil || env.IsFault() {
		t.Fatalf("reply is not a response: %v, %+v", err, env.Fault())
	}
	if got := env.FirstBodyElement().Elements(); len(got) != 1 || got[0].Name.Local != "return" || got[0].Text() != "handed in" {
		t.Fatalf("operation did not run on the handed-in envelope: %s", reply.Body)
	}

	// An unknown mustUnderstand header on the handed-in envelope faults.
	strict := request()
	security := xmlutil.NewElement(xmlutil.N("urn:ext", "Security"))
	soap.SetMustUnderstand(security)
	strict.AddHeader(security)
	reply = nil
	if _, err := e.ServeParsed(ctx, "Echo", unparseable, strict, hdr); err != nil {
		t.Fatal(err)
	}
	if reply == nil {
		t.Fatal("no reply to a request with a header that is not understood")
	}
	if env, err = soap.Parse(reply.Body); err != nil || !env.IsFault() || env.Fault().Code != soap.FaultMustUnderstand {
		t.Fatalf("want MustUnderstand fault, got %v, %s", err, reply.Body)
	}
	if reply.Headers.Action != "urn:op#fault" || reply.Headers.RelatesTo != hdr.MessageID {
		t.Fatalf("fault reply headers = %+v", reply.Headers)
	}
}

// TestDecoupledReplyDecodesFromItsBuffer: a reply endpoint hands each
// message's buffer to the exchange table and never writes it again; the
// envelope the waiting call gets still has its body in that buffer, and the
// Result decodes from it long after delivery — more than once, and whatever
// else arrived meanwhile.
func TestDecoupledReplyDecodesFromItsBuffer(t *testing.T) {
	e := New()
	if _, err := e.Deploy(echoDef()); err != nil {
		t.Fatal(err)
	}
	table := exchange.NewTable(exchange.TableOptions{})
	defer table.Close()
	e.RegisterReplySender("test", ReplySenderFunc(func(_ context.Context, _ *wsaddr.EndpointReference, msg *exchange.Message) error {
		table.Deliver(msg.Body) // the buffer is the table's from here on
		return nil
	}))
	ctx := context.Background()
	call := func(id, text string) *exchange.Future {
		future, err := table.Register(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		env := soap.NewEnvelope()
		wrapper := xmlutil.NewElement(xmlutil.N(DefaultNamespacePrefix+"Echo", "echoString"))
		wrapper.NewChild(xmlutil.N(DefaultNamespacePrefix+"Echo", "msg")).SetText(text)
		hdr := &wsaddr.MessageHeaders{
			To: "test://provider/Echo", Action: "urn:op", MessageID: id,
			ReplyTo: wsaddr.NewEndpointReference("test://consumer/replies"),
		}
		if _, err := e.ServeParsed(ctx, "Echo", &transport.Request{}, env.AddBodyElement(wrapper), hdr); err != nil {
			t.Fatal(err)
		}
		return future
	}
	first, second := call("urn:uuid:a", "first & foremost"), call("urn:uuid:b", "second")
	trees := soap.BodyTreesBuilt()
	for i, want := range []string{"first & foremost", "second", "first & foremost"} {
		future := first
		if i == 1 {
			future = second
		}
		msg, err := future.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ResultFromEnvelope(msg.Envelope)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := res.String("return"); err != nil || got != want {
			t.Fatalf("reply %d decodes to %q, %v; want %q", i, got, err, want)
		}
	}
	if n := soap.BodyTreesBuilt() - trees; n != 0 {
		t.Fatalf("%d body trees built decoding decoupled replies", n)
	}
}
