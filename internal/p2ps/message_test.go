package p2ps

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"wspeer/internal/netsim"
	"wspeer/internal/xsd"
)

// fullMessage sets every field of message, with the repeated ones repeated.
func fullMessage() *message {
	return &message{
		Type: msgQueryResponse, From: "p1", Addr: "tcp://127.0.0.1:9", Group: "g",
		TTL: 5, Hops: 2, QueryID: "q-1", Name: "Echo*", Expr: `kind == "echo"`,
		Attrs:   map[string]string{"kind": "echo", "a": "1", "z": ""},
		PeerAdv: &PeerAdvertisement{ID: "p1", Name: "one", Addr: "tcp://127.0.0.1:9", Group: "g", Rendezvous: true},
		ServiceAdv: &ServiceAdvertisement{ID: "adv-1", Name: "Echo", Peer: "p1", Group: "g",
			Pipes:          []PipeAdvertisement{{ID: "pipe-1", Name: "requests", Peer: "p1"}},
			DefinitionPipe: &PipeAdvertisement{ID: "pipe-2", Name: "definition", Peer: "p1"},
			Attrs:          map[string]string{"binding": "wspeer-p2ps"}},
		PipeID: "pipe-1", Data: []byte{0, 1, 2, 0xff, '<', '&'},
		RdvAddrs:   []string{"sim://r1", "", "sim://r2"},
		TargetPeer: "p9", ResolvedAddr: "sim://z",
	}
}

func roundTrip(t *testing.T, in *message) *message {
	t.Helper()
	frame := in.encode()
	if len(frame) != cap(frame) {
		t.Errorf("%s: frame of %d bytes built in a buffer of %d", in.Type, len(frame), cap(frame))
	}
	out, err := decodeMessage(frame)
	if err != nil {
		t.Fatalf("%s: %v", in.Type, err)
	}
	return out
}

func TestMessageRoundTrips(t *testing.T) {
	msgs := []*message{
		fullMessage(),
		{Type: msgAttach, From: "p1", Addr: "sim://a", Group: "g",
			PeerAdv: &PeerAdvertisement{ID: "p1", Addr: "sim://a", Group: "g", Rendezvous: true}},
		{Type: msgAttachResponse, From: "p2", Addr: "sim://b",
			PeerAdv:  &PeerAdvertisement{ID: "p2", Addr: "sim://b"},
			RdvAddrs: []string{"sim://r1", "sim://r2"}},
		{Type: msgPublish, From: "p1", Addr: "sim://a",
			ServiceAdv: &ServiceAdvertisement{ID: "adv-1", Name: "Echo", Peer: "p1"}},
		{Type: msgUnpublish, From: "p1", Addr: "sim://a", Name: "adv-1"},
		{Type: msgQuery, From: "p1", Addr: "sim://a", Group: "g", TTL: 5, Hops: 2,
			QueryID: "q-1", Name: "Echo*", Attrs: map[string]string{"kind": "echo"}},
		{Type: msgResolve, From: "p1", Addr: "sim://a", QueryID: "r-1", TTL: -4, Hops: 1 << 30, TargetPeer: "p9"},
		{Type: msgResolveResponse, From: "p2", Addr: "sim://b", QueryID: "r-1",
			TargetPeer: "p9", ResolvedAddr: "sim://z"},
		{Type: msgData, From: "p1", Addr: "sim://a", PipeID: "pipe-1", Data: []byte{}},
		{Type: msgData, From: "p1", Addr: "sim://a", PipeID: "pipe-1"},
		{Type: "a type this version has no constant for"},
	}
	for _, in := range msgs {
		if out := roundTrip(t, in); !reflect.DeepEqual(in, out) {
			t.Errorf("%s:\nin  %+v\nout %+v", in.Type, in, out)
		}
	}
}

// TestMessageDataNilVersusEmpty: an absent payload and an empty one are
// different frames and decode to different messages.
func TestMessageDataNilVersusEmpty(t *testing.T) {
	absent := &message{Type: msgData, PipeID: "x"}
	empty := &message{Type: msgData, PipeID: "x", Data: []byte{}}
	if bytes.Equal(absent.encode(), empty.encode()) {
		t.Fatal("nil and empty Data encode alike")
	}
	if out := roundTrip(t, absent); out.Data != nil {
		t.Fatalf("absent Data decoded as %v", out.Data)
	}
	if out := roundTrip(t, empty); out.Data == nil || len(out.Data) != 0 {
		t.Fatalf("empty Data decoded as %v", out.Data)
	}
}

// TestMessageAttrsOrder: a frame does not depend on map iteration order —
// attributes are written sorted by key.
func TestMessageAttrsOrder(t *testing.T) {
	m := &message{Type: msgQuery, Attrs: map[string]string{"b": "2", "c": "3", "a": "1"}}
	frame := m.encode()
	for i := 0; i < 32; i++ {
		if !bytes.Equal(frame, m.encode()) {
			t.Fatal("two encodings of one message differ")
		}
	}
	ia, ib, ic := bytes.Index(frame, []byte("a1")), bytes.Index(frame, []byte("b2")), bytes.Index(frame, []byte("c3"))
	if ia < 0 || !(ia < ib && ib < ic) {
		t.Fatalf("attributes not in key order: a@%d b@%d c@%d", ia, ib, ic)
	}
}

// field builds one raw frame field.
func field(tag byte, val []byte) []byte {
	b := binary.AppendUvarint([]byte{tag}, uint64(len(val)))
	return append(b, val...)
}

func frameOf(fields ...[]byte) []byte {
	b := append([]byte(frameMagic), frameVersion)
	for _, f := range fields {
		b = append(b, f...)
	}
	return b
}

func TestMessageDecodeErrors(t *testing.T) {
	typ := field(tagType, []byte(msgQuery))
	wrongAdvert, err := xsd.Marshal(Namespace, "PipeAdvertisement", reflect.ValueOf(PipeAdvertisement{ID: "pipe-1"}))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"short", []byte(frameMagic)},
		{"bad magic", append([]byte("XS\x01"), typ...)},
		{"the XML wire this replaced", []byte(`<Message xmlns="` + Namespace + `" type="query" from="p" addr="a"/>`)},
		{"unknown version", append(append([]byte(frameMagic), frameVersion+1), typ...)},
		{"missing type", frameOf(field(tagFrom, []byte("p1")))},
		{"no fields", frameOf()},
		{"tag without length", append(frameOf(typ), tagName)},
		{"unterminated length", append(frameOf(typ), tagName, 0x80)},
		{"overlong length", append(frameOf(typ), tagName, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)},
		{"length past the buffer", append(frameOf(typ), tagName, 5, 'a', 'b')},
		{"unknown tag", frameOf(typ, field(0x7f, []byte("x")))},
		{"tag zero", frameOf(typ, field(0, nil))},
		{"empty ttl", frameOf(typ, field(tagTTL, nil))},
		{"non-numeric ttl", frameOf(typ, field(tagTTL, []byte("zz")))},
		{"ttl with trailing byte", frameOf(typ, field(tagTTL, []byte{0x0a, 0x00}))},
		{"unterminated hops", frameOf(typ, field(tagHops, []byte{0x80}))},
		{"non-numeric hops", frameOf(typ, field(tagHops, []byte("two")))},
		{"empty attribute", frameOf(typ, field(tagAttr, nil))},
		{"attribute key past the field", frameOf(typ, field(tagAttr, []byte{9, 'k'}))},
		{"peer advert not XML", frameOf(typ, field(tagPeerAdv, []byte("not xml")))},
		{"service advert not XML", frameOf(typ, field(tagServiceAdv, []byte("<unclosed")))},
		{"peer advert of the wrong element", frameOf(typ, field(tagPeerAdv, wrongAdvert))},
		{"service advert of the wrong element", frameOf(typ, field(tagServiceAdv, wrongAdvert))},
	}
	for _, c := range cases {
		if m, err := decodeMessage(c.frame); err == nil {
			t.Errorf("%s: accepted as %+v", c.name, m)
		}
	}
}

// TestMessageDecodeClaimedLengths: a field's length is checked against the
// frame limit and against what is actually there before anything is done
// with it, so a forged length costs the decoder nothing.
func TestMessageDecodeClaimedLengths(t *testing.T) {
	claim := func(n uint64) []byte {
		b := frameOf(field(tagType, []byte(msgData)))
		return binary.AppendUvarint(append(b, tagData), n)
	}
	overLimit := claim(maxFrame + 1)
	// The limit holds even when the bytes are really there (a transport
	// other than TCP has no frame cap of its own).
	overLimitPresent := append(claim(maxFrame+1), make([]byte, maxFrame+1)...)
	pastBuffer := claim(maxFrame - 1)
	huge := claim(1 << 62)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, frame := range [][]byte{overLimit, overLimitPresent, pastBuffer, huge} {
		if _, err := decodeMessage(frame); err == nil {
			t.Fatalf("frame claiming a %d-byte field accepted", len(frame))
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("rejecting four forged lengths allocated %d bytes", grew)
	}
	if _, err := decodeMessage(append(claim(3), 'a', 'b', 'c')); err != nil {
		t.Fatalf("honest length rejected: %v", err)
	}
}

func TestQuickDataPayloadRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		in := &message{Type: msgData, From: "p", Addr: "a", PipeID: "x", Data: data}
		out, err := decodeMessage(in.encode())
		return err == nil && bytes.Equal(out.Data, data) && (out.Data == nil) == (data == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodedDataAliasesFrame pins what the decoder does with a payload:
// Data is a window onto the frame, not a copy, and its capacity ends where
// the field does, so appending to it cannot reach the fields behind it.
func TestDecodedDataAliasesFrame(t *testing.T) {
	in := &message{Type: msgData, PipeID: "x", Data: []byte("payload"), ResolvedAddr: "behind"}
	frame := in.encode()
	out, err := decodeMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(frame, []byte("payload"))
	if at < 0 || &out.Data[0] != &frame[at] {
		t.Fatal("decoded Data is a copy, not a window onto the frame")
	}
	if cap(out.Data) != len(out.Data) {
		t.Fatalf("decoded Data has capacity %d beyond its %d bytes", cap(out.Data), len(out.Data))
	}
	_ = append(out.Data, "XXXXXX"...)
	if again, err := decodeMessage(frame); err != nil || again.ResolvedAddr != "behind" {
		t.Fatalf("append to decoded Data reached the frame: %+v, %v", again, err)
	}
}

// TestTransportsHandOverTheirBuffers asserts the ownership rule that lets
// decodeMessage alias the frame: what a Transport hands its receiver is a
// buffer of the receiver's own — neither the sender's slice nor one the
// transport reuses for the next frame — so nothing writes it after delivery.
func TestTransportsHandOverTheirBuffers(t *testing.T) {
	tcpA, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tcpB, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	local := NewLocalNetwork()
	sim := netsim.New(1)
	simA, err := sim.NewEndpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	simB, err := sim.NewEndpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		from, to Transport
		deliver  func()
	}{
		{"tcp", tcpA, tcpB, func() {}},
		{"localnet", local.NewEndpoint(), local.NewEndpoint(), func() {}},
		{"netsim", simA, simB, func() { sim.Run(0) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer c.from.Close()
			defer c.to.Close()
			got := make(chan []byte, 2)
			c.to.SetReceiver(func(_ string, data []byte) { got <- data })
			receive := func() []byte {
				c.deliver()
				select {
				case b := <-got:
					return b
				case <-time.After(5 * time.Second):
					t.Fatal("frame never delivered")
					return nil
				}
			}
			sent := []byte("first frame")
			if err := c.from.Send(c.to.Addr(), sent); err != nil {
				t.Fatal(err)
			}
			first := receive()
			if &first[0] == &sent[0] {
				t.Fatal("receiver was handed the sender's slice")
			}
			copy(sent, "XXXXXXXXXXX") // the sender reuses its buffer
			if err := c.from.Send(c.to.Addr(), []byte("other frame")); err != nil {
				t.Fatal(err)
			}
			second := receive()
			if string(first) != "first frame" || string(second) != "other frame" {
				t.Fatalf("delivered buffers were written after delivery: %q, %q", first, second)
			}
		})
	}
}

// fuzzAdverts are the adverts FuzzDecodeMessage attaches to the messages it
// builds: fixed, because whether arbitrary text survives an XML document is
// xmlutil's property, not this codec's.
var fuzzAdverts = fullMessage()

// FuzzDecodeMessage: no input makes the decoder panic, whatever it accepts
// re-encodes to a frame it accepts again, and a message built from the
// fuzzer's values comes back from decode(encode(m)) equal to m. The seed
// corpus is testdata/fuzz/FuzzDecodeMessage.
func FuzzDecodeMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte, typ, from, name, key, val, rdv string, ttl, hops int, data []byte, flags uint8) {
		if m, err := decodeMessage(frame); err == nil {
			again, err := decodeMessage(m.encode())
			if err != nil {
				t.Fatalf("re-encoding of an accepted frame rejected: %v", err)
			}
			if !reflect.DeepEqual(m, again) {
				t.Fatalf("accepted frame changed when re-encoded:\nfirst  %+v\nsecond %+v", m, again)
			}
		}
		if typ == "" {
			return // a message without a type is not one
		}
		m := &message{
			Type: typ, From: PeerID(from), Addr: from, Group: name, TTL: ttl, Hops: hops,
			QueryID: key, Name: name, Expr: val, PipeID: key, TargetPeer: PeerID(val), ResolvedAddr: rdv,
		}
		if flags&1 != 0 {
			m.Data = append([]byte{}, data...)
		}
		if flags&2 != 0 {
			m.Attrs = map[string]string{key: val, name: from}
		}
		if flags&4 != 0 {
			m.RdvAddrs = strings.Split(rdv, ",")
		}
		if flags&8 != 0 {
			m.PeerAdv = fuzzAdverts.PeerAdv
		}
		if flags&16 != 0 {
			m.ServiceAdv = fuzzAdverts.ServiceAdv
		}
		out, err := decodeMessage(m.encode())
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", m, err)
		}
		if !reflect.DeepEqual(m, out) {
			t.Fatalf("decode(encode(m)) != m:\nm   %+v\nout %+v", m, out)
		}
		// A decoded message owns its strings: overwriting the frame it came
		// from changes none of them (Data, a view of the frame, aside).
		for _, in := range [][]byte{frame, m.encode()} {
			buf := bytes.Clone(in)
			got, err := decodeMessage(buf)
			if err != nil {
				continue
			}
			before := textOf(got)
			for i := range buf {
				buf[i] = '#'
			}
			if after := textOf(got); after != before {
				t.Fatalf("overwriting the frame changed the message:\nbefore %s\nafter  %s", before, after)
			}
		}
	})
}

// textOf prints every field of m but Data, adverts included: a copy of its
// strings.
func textOf(m *message) string {
	c := *m
	c.Data, c.PeerAdv, c.ServiceAdv = nil, nil, nil
	return fmt.Sprintf("%#v %#v %#v", c, m.PeerAdv, m.ServiceAdv)
}
