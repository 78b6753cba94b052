package wsaddr

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"wspeer/internal/soap"
	"wspeer/internal/xmlutil"
)

// genHeaders builds a pseudo-random but valid header set: To and Action
// always present (mandatory), every other property flipped on or off, EPRs
// with 0..2 reference properties.
func genHeaders(r *rand.Rand) *MessageHeaders {
	epr := func(addr string) *EndpointReference {
		e := NewEndpointReference(addr)
		for i, n := 0, r.Intn(3); i < n; i++ {
			e.AddReferenceProperty(pipeProp(fmt.Sprintf("pipe-%d", r.Intn(1000))))
		}
		return e
	}
	h := &MessageHeaders{
		To:     fmt.Sprintf("p2ps://peer-%d/Svc", r.Intn(100)),
		Action: fmt.Sprintf("urn:svc#op%d", r.Intn(100)),
	}
	if r.Intn(2) == 0 {
		h.MessageID = NewMessageID()
	}
	if r.Intn(2) == 0 {
		h.RelatesTo = NewMessageID()
	}
	switch r.Intn(3) {
	case 0:
		h.ReplyTo = epr(Anonymous)
	case 1:
		h.ReplyTo = epr(fmt.Sprintf("http://127.0.0.1:%d/callback/x", 1024+r.Intn(60000)))
	}
	if r.Intn(3) == 0 {
		h.FaultTo = epr(fmt.Sprintf("p2ps://peer-%d/faults", r.Intn(100)))
	}
	if r.Intn(3) == 0 {
		h.From = epr(fmt.Sprintf("mem://local/peer-%d", r.Intn(100)))
	}
	for i, n := 0, r.Intn(3); i < n; i++ {
		h.RefProps = append(h.RefProps, pipeProp(fmt.Sprintf("ref-%d", r.Intn(1000))))
	}
	return h
}

func sameEPR(t *testing.T, label string, a, b *EndpointReference) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil mismatch (%v vs %v)", label, a, b)
	}
	if a == nil {
		return
	}
	if a.Address != b.Address {
		t.Fatalf("%s: address %q != %q", label, a.Address, b.Address)
	}
	ap, bp := a.Properties(), b.Properties()
	if len(ap) != len(bp) {
		t.Fatalf("%s: %d vs %d reference properties", label, len(ap), len(bp))
	}
	for i := range ap {
		if ap[i].Name != bp[i].Name || ap[i].Text() != bp[i].Text() {
			t.Fatalf("%s: reference property %d differs", label, i)
		}
	}
}

func sameHeaders(t *testing.T, want, got *MessageHeaders) {
	t.Helper()
	if got.To != want.To || got.Action != want.Action ||
		got.MessageID != want.MessageID || got.RelatesTo != want.RelatesTo {
		t.Fatalf("scalar properties differ: want %+v got %+v", want, got)
	}
	sameEPR(t, "ReplyTo", want.ReplyTo, got.ReplyTo)
	sameEPR(t, "FaultTo", want.FaultTo, got.FaultTo)
	sameEPR(t, "From", want.From, got.From)
	gp, wp := got.Properties(), want.Properties()
	if len(gp) != len(wp) {
		t.Fatalf("RefProps count %d != %d", len(gp), len(wp))
	}
	for i := range wp {
		if gp[i].Text() != wp[i].Text() {
			t.Fatalf("RefProps[%d] = %q, want %q", i, gp[i].Text(), wp[i].Text())
		}
	}
}

// TestHeaderRoundTripProperty drives random header sets through the three
// envelope wire paths the bindings use — Marshal (the P2PS pipe path),
// MarshalTo through a buffer (the HTTP/stub pooled-writer path), and a
// byte-copied re-parse (the inmem transport, which copies bodies between
// goroutines) — and asserts FromEnvelope recovers exactly what Apply
// stamped, every time.
func TestHeaderRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		want := genHeaders(r)
		env := soap.NewEnvelope()
		env.AddBodyElement(xmlutil.NewElement(xmlutil.N(p2psNS, "payload")))
		if err := want.Apply(env); err != nil {
			t.Fatalf("iter %d: Apply: %v", iter, err)
		}

		// Path 1: Marshal to a fresh byte slice (p2psbind pipe frames).
		wire1 := env.Marshal()
		// Path 2: MarshalTo a writer (httpbind/inmembind via stub.BuildRequest).
		var buf bytes.Buffer
		if err := env.MarshalTo(&buf); err != nil {
			t.Fatalf("iter %d: MarshalTo: %v", iter, err)
		}
		wire2 := buf.Bytes()
		// Path 3: a defensive copy, as the inmem transport hands bodies
		// across goroutines.
		wire3 := append([]byte(nil), wire1...)

		for p, wire := range [][]byte{wire1, wire2, wire3} {
			back, err := soap.Parse(wire)
			if err != nil {
				t.Fatalf("iter %d path %d: Parse: %v", iter, p, err)
			}
			got, err := FromEnvelope(back)
			if err != nil {
				t.Fatalf("iter %d path %d: FromEnvelope: %v", iter, p, err)
			}
			sameHeaders(t, want, got)
		}
	}
}
