package wsaddr

import (
	"strings"
	"sync"
	"testing"

	"wspeer/internal/soap"
	"wspeer/internal/xmlutil"
)

const p2psNS = "http://wspeer.dev/p2ps"

func pipeProp(name string) *xmlutil.Element {
	el := xmlutil.NewElement(xmlutil.N(p2psNS, "PipeName"))
	el.SetText(name)
	return el
}

func TestEPRRoundTrip(t *testing.T) {
	epr := NewEndpointReference("p2ps://peer-1/Echo")
	epr.AddReferenceProperty(pipeProp("echoString"))
	el := epr.Element(EPRElementName)
	back, err := EPRFromElement(el)
	if err != nil {
		t.Fatal(err)
	}
	if back.Address != "p2ps://peer-1/Echo" {
		t.Fatalf("address = %q", back.Address)
	}
	if props := back.Properties(); len(props) != 1 || props[0].Text() != "echoString" {
		t.Fatalf("props: %+v", props)
	}
	if back.ReferenceProperty(xmlutil.N(p2psNS, "PipeName")) == nil {
		t.Fatal("ReferenceProperty lookup")
	}
	if back.ReferenceProperty(xmlutil.N(p2psNS, "Other")) != nil {
		t.Fatal("ReferenceProperty false positive")
	}
}

func TestEPRErrors(t *testing.T) {
	if _, err := EPRFromElement(xmlutil.NewElement(EPRElementName)); err == nil {
		t.Fatal("missing Address accepted")
	}
	el := xmlutil.NewElement(EPRElementName)
	el.NewChild(AddressName).SetText("   ")
	if _, err := EPRFromElement(el); err == nil {
		t.Fatal("empty Address accepted")
	}
}

func TestNewMessageID(t *testing.T) {
	a, b := NewMessageID(), NewMessageID()
	if a == b {
		t.Fatal("message IDs must be unique")
	}
	if !strings.HasPrefix(a, "urn:uuid:") || len(a) != len("urn:uuid:")+36 {
		t.Fatalf("format: %q", a)
	}
	// Version and variant nibbles.
	hex := strings.TrimPrefix(a, "urn:uuid:")
	if hex[14] != '4' {
		t.Fatalf("uuid version: %q", hex)
	}
}

func TestApplyAndExtract(t *testing.T) {
	target := NewEndpointReference("p2ps://provider/Echo")
	target.AddReferenceProperty(pipeProp("request"))
	h := HeadersFor(target, "p2ps://provider/Echo#echoString")
	h.ReplyTo = NewEndpointReference("p2ps://consumer")
	h.ReplyTo.AddReferenceProperty(pipeProp("reply-42"))

	env := soap.NewEnvelope()
	env.AddBodyElement(xmlutil.NewElement(xmlutil.N(p2psNS, "echoString")))
	if err := h.Apply(env); err != nil {
		t.Fatal(err)
	}

	// Serialize through bytes, as a real exchange would.
	back, err := soap.Parse(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromEnvelope(back)
	if err != nil {
		t.Fatal(err)
	}
	if got.To != target.Address {
		t.Fatalf("To = %q", got.To)
	}
	if got.Action != "p2ps://provider/Echo#echoString" {
		t.Fatalf("Action = %q", got.Action)
	}
	if got.MessageID == "" {
		t.Fatal("MessageID missing")
	}
	if got.ReplyTo == nil || got.ReplyTo.Address != "p2ps://consumer" {
		t.Fatalf("ReplyTo = %+v", got.ReplyTo)
	}
	if got.ReplyTo.ReferenceProperty(xmlutil.N(p2psNS, "PipeName")).Text() != "reply-42" {
		t.Fatal("ReplyTo reference properties lost")
	}
	// The target's reference properties must have been copied into the
	// header as standalone blocks.
	if props := got.Properties(); len(props) != 1 || props[0].Text() != "request" {
		t.Fatalf("RefProps: %v", props)
	}
	// To and Action must be mustUnderstand per the binding.
	toBlock := back.Header(ToName)
	if toBlock == nil || !soap.MustUnderstand(toBlock) {
		t.Fatal("To must be mustUnderstand")
	}
}

func TestApplyMandatoryFields(t *testing.T) {
	env := soap.NewEnvelope()
	if err := (&MessageHeaders{Action: "a"}).Apply(env); err == nil {
		t.Fatal("missing To accepted")
	}
	if err := (&MessageHeaders{To: "t"}).Apply(env); err == nil {
		t.Fatal("missing Action accepted")
	}
}

func TestFaultToAndFrom(t *testing.T) {
	h := &MessageHeaders{
		To:      "urn:to",
		Action:  "urn:act",
		FaultTo: NewEndpointReference("urn:faults"),
		From:    NewEndpointReference("urn:me"),
	}
	env := soap.NewEnvelope()
	if err := h.Apply(env); err != nil {
		t.Fatal(err)
	}
	back, err := soap.Parse(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromEnvelope(back)
	if err != nil {
		t.Fatal(err)
	}
	if got.FaultTo == nil || got.FaultTo.Address != "urn:faults" {
		t.Fatalf("FaultTo: %+v", got.FaultTo)
	}
	if got.From == nil || got.From.Address != "urn:me" {
		t.Fatalf("From: %+v", got.From)
	}
}

func TestFromEnvelopeBadEPR(t *testing.T) {
	env := soap.NewEnvelope()
	env.AddHeader(xmlutil.NewElement(ReplyToName)) // no Address child
	env.AddBodyElement(xmlutil.NewElement(xmlutil.N(p2psNS, "x")))
	if _, err := FromEnvelope(env); err == nil {
		t.Fatal("malformed ReplyTo accepted")
	}
}

// TestSharedEPRConcurrentMarshal: an EPR's reference properties are shared,
// not copied, by the headers built from it, by ReplyTo blocks naming it and
// by every envelope either is applied to — a binding keeps one reply EPR
// for all its calls. Marshalling only reads them, so eight goroutines may
// stamp and marshal at once, and every message reads back whole. Run under
// -race.
func TestSharedEPRConcurrentMarshal(t *testing.T) {
	prop := pipeProp("requests")
	target := NewEndpointReference("p2ps://provider/Echo").AddReferenceProperty(prop)
	reply := NewEndpointReference("p2ps://consumer").AddReferenceProperty(pipeProp("replies"))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				h := HeadersFor(target, "urn:act")
				h.ReplyTo = reply
				env := soap.NewEnvelope()
				env.AddBodyElement(xmlutil.NewElement(xmlutil.N(p2psNS, "x")))
				if err := h.Apply(env); err != nil {
					t.Error(err)
					return
				}
				back, err := soap.Parse(env.Marshal())
				if err != nil {
					t.Error(err)
					return
				}
				got, err := FromEnvelope(back)
				if err != nil || got.MessageID != h.MessageID || len(got.Properties()) != 1 || got.Properties()[0].Text() != "requests" ||
					got.ReplyTo == nil || len(got.ReplyTo.Properties()) != 1 || got.ReplyTo.Properties()[0].Text() != "replies" {
					t.Errorf("read back %+v, %v", got, err)
					return
				}
				// What came off the wire is shared onward the same way: the
				// provider addresses its reply with the parsed properties,
				// held as the request's bytes.
				if rh := HeadersFor(got.ReplyTo, "urn:act#response"); len(rh.raws) != 1 || &rh.raws[0] != &got.ReplyTo.raws[0] {
					t.Error("reply headers copied the parsed reference property")
				}
			}
		}()
	}
	wg.Wait()
	if prop.Parent() != nil || len(target.ReferenceProperties) != 1 || target.ReferenceProperties[0] != prop {
		t.Fatalf("the shared property was taken over or replaced: parent %v", prop.Parent())
	}
}
