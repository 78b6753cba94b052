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

// echoRequest is an echoString request in SOAP version v, with the header
// blocks add puts on it.
func echoRequest(v soap.Version, add func(*soap.Envelope)) []byte {
	env := soap.NewEnvelopeV(v)
	add(env)
	wrapper := xmlutil.NewElement(xmlutil.N(DefaultNamespacePrefix+"Echo", "echoString"))
	wrapper.NewChild(xmlutil.N(DefaultNamespacePrefix+"Echo", "msg")).SetText("x")
	return env.AddBodyElement(wrapper).Marshal()
}

// TestMustUnderstandBothVersions: mustUnderstand is processed before
// dispatch from what Parse noted of each block, in either version's
// vocabulary, with the fault code and string it always had; a block that
// need not be understood, or that WS-Addressing understands, passes.
func TestMustUnderstandBothVersions(t *testing.T) {
	e := New()
	ran := 0
	def := echoDef()
	def.Operations[0].Func = func(msg string) string { ran++; return msg }
	if _, err := e.Deploy(def); err != nil {
		t.Fatal(err)
	}
	serve := func(body []byte) *soap.Envelope {
		t.Helper()
		resp, err := e.ServeRequest(context.Background(), "Echo", &transport.Request{Body: body})
		if err != nil {
			t.Fatal(err)
		}
		env, err := soap.Parse(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	for _, v := range []soap.Version{soap.SOAP11, soap.SOAP12} {
		ran = 0
		strict := func(env *soap.Envelope) {
			h := xmlutil.NewElement(xmlutil.N("urn:ext", "Security"))
			soap.SetMustUnderstand(h)
			env.AddHeader(h)
		}
		if env := serve(echoRequest(v, strict)); !env.IsFault() || env.Version() != v || env.Fault().Code != soap.FaultMustUnderstand ||
			env.Fault().String != "header {urn:ext}Security not understood" || ran != 0 {
			t.Fatalf("%v: %+v (ran %d)", v, env.Fault(), ran)
		}
		lenient := func(env *soap.Envelope) {
			env.AddHeader(xmlutil.NewElement(xmlutil.N("urn:ext", "Trace")).SetAttr(xmlutil.N(soap.Namespace, "mustUnderstand"), "0"))
			(&wsaddr.MessageHeaders{To: "mem://h/Echo", Action: "urn:echo"}).Apply(env)
		}
		if env := serve(echoRequest(v, lenient)); env.IsFault() || ran != 1 {
			t.Fatalf("%v: %+v (ran %d)", v, env.Fault(), ran)
		}
	}
}

// TestFallbackReplyRelatesOnce: a reply whose decoupled delivery failed goes
// back on the transport with the RelatesTo DeliverReply stamped on it as a
// value, not with a second one.
func TestFallbackReplyRelatesOnce(t *testing.T) {
	e := New()
	if _, err := e.Deploy(echoDef()); err != nil {
		t.Fatal(err)
	}
	e.RegisterReplySender("test", ReplySenderFunc(func(context.Context, *wsaddr.EndpointReference, *exchange.Message) error {
		return errors.New("no route")
	}))
	for _, replyTo := range []string{"test://consumer/replies", wsaddr.Anonymous} {
		body := echoRequest(soap.SOAP11, func(env *soap.Envelope) {
			(&wsaddr.MessageHeaders{To: "mem://h/Echo", Action: "urn:echo", MessageID: "urn:uuid:req",
				ReplyTo: wsaddr.NewEndpointReference(replyTo)}).Apply(env)
		})
		resp, err := e.ServeRequest(context.Background(), "Echo", &transport.Request{Body: body})
		if err != nil {
			t.Fatal(err)
		}
		env, err := soap.Parse(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		relates := 0
		for _, h := range env.HeaderIndex() {
			if h.Name == wsaddr.RelatesToName {
				relates++
			}
		}
		if text, _ := env.HeaderText(wsaddr.RelatesToName); relates != 1 || text != "urn:uuid:req" {
			t.Fatalf("ReplyTo %s: %d RelatesTo blocks, the first %q:\n%s", replyTo, relates, text, resp.Body)
		}
	}
}
