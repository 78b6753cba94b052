package wsaddr

import (
	"strings"
	"testing"
	"unicode/utf8"

	"wspeer/internal/soap"
	"wspeer/internal/xmlutil"
)

// xmlSafe: s survives XML character data as it is (what does not — control
// characters, invalid UTF-8, the noncharacters U+FFFE and U+FFFF — the
// writer replaces with U+FFFD).
func xmlSafe(s string) bool {
	for _, r := range s {
		if r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r == 0xFFFE || r == 0xFFFF {
			return false
		}
	}
	return utf8.ValidString(s)
}

// FuzzAddressingHeaders holds the header path to itself: arbitrary headers,
// with up to three reference properties each way, applied, marshalled,
// parsed and read back through the plan are the headers applied — text
// trimmed — and what the lazily built Headers trees say, in SOAP 1.1 and
// 1.2.
func FuzzAddressingHeaders(f *testing.F) {
	f.Add("p2ps://peer-1/Echo", "p2ps://peer-1/Echo#requests", "urn:uuid:1", "", "p2ps://consumer", "", "", "pipe-9", uint8(0x15), false)
	f.Add(" http://h/S ", "urn:a&b<c>", "", " urn:uuid:2\n", "", "urn:faults", "mem://me", "", uint8(0xff), true)
	f.Add("t", "a", "\t", "r", "  ", "f", " ", "x]]>y", uint8(0x3f), false)
	f.Fuzz(func(t *testing.T, to, action, id, relates, replyTo, faultTo, from, prop string, shape uint8, v12 bool) {
		for _, s := range []string{to, action, id, relates, replyTo, faultTo, from, prop} {
			if !xmlSafe(s) {
				return
			}
		}
		if to == "" || action == "" {
			return // Apply refuses them: tested apart
		}
		props := func(n uint8, text string) []*xmlutil.Element {
			var out []*xmlutil.Element
			for i := uint8(0); i < n%4; i++ {
				out = append(out, pipeProp(text))
			}
			return out
		}
		epr := func(addr string, n uint8) *EndpointReference {
			if addr == "" {
				return nil
			}
			return &EndpointReference{Address: addr, ReferenceProperties: props(n, "ref-"+prop)}
		}
		want := &MessageHeaders{To: to, Action: action, MessageID: id, RelatesTo: relates,
			ReplyTo: epr(replyTo, shape), FaultTo: epr(faultTo, shape>>2), From: epr(from, shape>>4), RefProps: props(shape>>6, prop)}
		env := soap.NewEnvelope()
		if v12 {
			env = soap.NewEnvelopeV(soap.SOAP12)
		}
		env.AddBodyElement(xmlutil.NewElement(xmlutil.N(p2psNS, "payload")))
		if err := want.Apply(env); err != nil {
			t.Fatal(err)
		}
		wire := env.Marshal()
		back, err := soap.Parse(wire)
		if err != nil {
			t.Fatalf("%v\n%s", err, wire)
		}
		blank := func(e *EndpointReference) bool { return e != nil && strings.TrimSpace(e.Address) == "" }
		got, err := FromEnvelope(back)
		if blank(want.ReplyTo) || blank(want.FaultTo) || blank(want.From) {
			if err == nil {
				t.Fatalf("an EPR without an Address was read: %s", wire)
			}
			return
		}
		if err != nil {
			t.Fatalf("%v\n%s", err, wire)
		}
		// Addressing text comes back trimmed, and a property's text that is
		// only whitespace is not written at all, as in any tree.
		trimmed, written := strings.TrimSpace, prop
		if trimmed(prop) == "" {
			written = ""
		}
		sameHeaders(t, &MessageHeaders{To: trimmed(to), Action: trimmed(action), MessageID: trimmed(id), RelatesTo: trimmed(relates),
			ReplyTo: trimmedEPR(want.ReplyTo), FaultTo: trimmedEPR(want.FaultTo), From: trimmedEPR(want.From),
			RefProps: props(shape>>6, written)}, got)

		// The same headers, read from the trees Headers builds.
		before := soap.HeaderTreesBuilt()
		text := func(name xmlutil.Name) string {
			if h := back.Header(name); h != nil {
				return strings.TrimSpace(h.Text())
			}
			return ""
		}
		if text(ToName) != got.To || text(ActionName) != got.Action || text(MessageIDName) != got.MessageID || text(RelatesToName) != got.RelatesTo {
			t.Fatalf("the trees say To %q Action %q MessageID %q RelatesTo %q; the plan %+v", text(ToName), text(ActionName), text(MessageIDName), text(RelatesToName), got)
		}
		for name, e := range map[xmlutil.Name]*EndpointReference{ReplyToName: got.ReplyTo, FaultToName: got.FaultTo, FromName: got.From} {
			if block := back.Header(name); (block == nil) != (e == nil) {
				t.Fatalf("%v: tree %v, plan %v", name, block, e)
			} else if block != nil {
				fromTree, err := EPRFromElement(block)
				if err != nil {
					t.Fatal(err)
				}
				sameEPR(t, name.Local, fromTree, e)
			}
		}
		var rest []*xmlutil.Element
		for _, h := range back.Headers() {
			if h.Name.Space != Namespace {
				rest = append(rest, h)
			}
		}
		sameHeaders(t, &MessageHeaders{To: got.To, Action: got.Action, MessageID: got.MessageID, RelatesTo: got.RelatesTo,
			ReplyTo: got.ReplyTo, FaultTo: got.FaultTo, From: got.From, RefProps: rest}, got)
		if n := soap.HeaderTreesBuilt() - before; n != 1 {
			t.Fatalf("%d header trees built for one message", n)
		}
	})
}

func trimmedEPR(e *EndpointReference) *EndpointReference {
	if e == nil {
		return nil
	}
	return &EndpointReference{Address: strings.TrimSpace(e.Address), ReferenceProperties: e.ReferenceProperties}
}

// TestHeaderReadingRules: the first of two blocks of one name is the one
// read, as Header finds it; an addressing name in another namespace is a
// reference property, not the address; text is trimmed; and the message
// is read from its bytes, not from trees.
func TestHeaderReadingRules(t *testing.T) {
	wire := `<S:Envelope xmlns:S="http://www.w3.org/2003/05/soap-envelope" xmlns:a="` + Namespace + `" xmlns:o="urn:other"><S:Header>` +
		`<o:To>urn:foreign</o:To><a:To S:mustUnderstand="true">  urn:first ` + "\n" + `</a:To><a:To>urn:second</a:To>` +
		`<a:Action>act</a:Action><a:ReplyTo><a:Address> urn:r1 </a:Address><a:ReferenceProperties><o:P>1</o:P></a:ReferenceProperties></a:ReplyTo>` +
		`<a:ReplyTo><a:Address>urn:r2</a:Address></a:ReplyTo><To>urn:unqualified</To></S:Header><S:Body/></S:Envelope>`
	env, err := soap.Parse([]byte(wire))
	if err != nil {
		t.Fatal(err)
	}
	before := soap.HeaderTreesBuilt()
	got, err := FromEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	if n := soap.HeaderTreesBuilt() - before; n != 0 {
		t.Fatalf("FromEnvelope built %d header trees", n)
	}
	if got.To != "urn:first" || got.Action != "act" || got.ReplyTo == nil || got.ReplyTo.Address != "urn:r1" ||
		len(got.ReplyTo.Properties()) != 1 || got.ReplyTo.Properties()[0].Text() != "1" {
		t.Fatalf("read %+v, ReplyTo %+v", got, got.ReplyTo)
	}
	if props := got.Properties(); len(props) != 2 || props[0].Name != xmlutil.N("urn:other", "To") || props[1].Name != xmlutil.N("", "To") {
		t.Fatalf("reference properties %v", props)
	}
	if h := env.Header(ToName); h == nil || strings.TrimSpace(h.Text()) != got.To || !soap.MustUnderstand(h) {
		t.Fatalf("Header(To) = %v, FromEnvelope read %q", h, got.To)
	}
}
