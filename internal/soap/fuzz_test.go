package soap

import (
	"testing"
	"unicode/utf8"

	"wspeer/internal/xmlutil"
)

// FuzzParseEnvelope feeds Parse arbitrary bytes, seeded with SOAP 1.1 and
// 1.2 requests and faults. Parse must never panic, and a fault it accepts
// must marshal and parse back to the same code, string, actor and detail
// element name: what a peer sent as a fault arrives as that fault after
// any hop that re-sends it (a replayed reply, a relayed message). Faults
// holding text no XML document can carry are exempt: the scanner passes
// control characters and invalid UTF-8 through (xmlutil's lenientAbout),
// and the writer does not write them back.
func FuzzParseEnvelope(f *testing.F) {
	for _, docs := range goldenFaults {
		for _, doc := range docs {
			f.Add([]byte(doc))
		}
	}
	f.Add([]byte(foreign))
	op := xmlutil.NewElement(xmlutil.N(appNS, "op"))
	op.NewChild(xmlutil.N(appNS, "p")).SetText("value")
	f.Add(NewEnvelopeV(SOAP12).AddBodyElement(op).Marshal())

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Parse(data)
		if err != nil || !env.IsFault() {
			return
		}
		if want := env.Fault(); !xmlText(want.Code.Local) || !xmlText(want.String) || !xmlText(want.Actor) {
			return
		}
		back, err := Parse(env.Marshal())
		if err != nil {
			t.Fatalf("a parsed fault does not parse once marshalled: %v\n%s", err, env.Marshal())
		}
		want, got := env.Fault(), back.Fault()
		if got == nil {
			t.Fatalf("a parsed fault marshals as no fault:\n%s", env.Marshal())
		}
		if got.Code != want.Code || got.String != want.String || got.Actor != want.Actor || detailName(got) != detailName(want) {
			t.Fatalf("fault changed in a marshal/parse round trip:\n got %q %q %q %v\nwant %q %q %q %v\n%s",
				got.Code, got.String, got.Actor, detailName(got), want.Code, want.String, want.Actor, detailName(want), env.Marshal())
		}
	})
}

func detailName(f *Fault) xmlutil.Name { return f.Detail.Name }

// xmlText reports whether s holds only characters XML 1.0 allows.
func xmlText(s string) bool {
	for _, r := range s {
		if r == utf8.RuneError || r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r == 0xFFFE || r == 0xFFFF {
			return false
		}
	}
	return true
}
