package p2ps

import (
	"testing"

	"wspeer/internal/xmlutil"
)

func TestPipeAdvertRoundTrip(t *testing.T) {
	in := &PipeAdvertisement{ID: NewPipeID(), Name: "echoString", Peer: "peer-1"}
	out, err := PipeAdvertisementFromElement(in.Element())
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
	// Through real bytes.
	el, err := xmlutil.ParseBytes(xmlutil.Marshal(in.Element()))
	if err != nil {
		t.Fatal(err)
	}
	out, err = PipeAdvertisementFromElement(el)
	if err != nil || *out != *in {
		t.Fatalf("bytes round trip: %+v, %v", out, err)
	}
}

func TestPipeAdvertErrors(t *testing.T) {
	if _, err := PipeAdvertisementFromElement(xmlutil.NewElement(xmlutil.N(Namespace, "Wrong"))); err == nil {
		t.Fatal("wrong element accepted")
	}
	empty := (&PipeAdvertisement{Name: "x", Peer: "p"}).Element()
	if _, err := PipeAdvertisementFromElement(empty); err == nil {
		t.Fatal("missing Id accepted")
	}
}

func TestServiceAdvertRoundTrip(t *testing.T) {
	in := &ServiceAdvertisement{
		ID:    NewAdvertID(),
		Name:  "Echo",
		Peer:  "peer-9",
		Group: "grid",
		Pipes: []PipeAdvertisement{
			{ID: "pipe-1", Name: "echoString", Peer: "peer-9"},
			{ID: "pipe-2", Name: "echoBytes", Peer: "peer-9"},
		},
		DefinitionPipe: &PipeAdvertisement{ID: "pipe-def", Name: "definition", Peer: "peer-9"},
		Attrs:          map[string]string{"kind": "echo", "version": "1"},
	}
	el, err := xmlutil.ParseBytes(xmlutil.Marshal(in.Element()))
	if err != nil {
		t.Fatal(err)
	}
	out, err := ServiceAdvertisementFromElement(el)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Name != in.Name || out.Peer != in.Peer || out.Group != in.Group {
		t.Fatalf("scalar fields: %+v", out)
	}
	if len(out.Pipes) != 2 || out.Pipes[1] != in.Pipes[1] {
		t.Fatalf("pipes: %+v", out.Pipes)
	}
	if out.DefinitionPipe == nil || *out.DefinitionPipe != *in.DefinitionPipe {
		t.Fatalf("definition pipe: %+v", out.DefinitionPipe)
	}
	if len(out.Attrs) != 2 || out.Attrs["kind"] != "echo" {
		t.Fatalf("attrs: %+v", out.Attrs)
	}
	if out.Pipe("echoBytes") == nil || out.Pipe("nope") != nil {
		t.Fatal("Pipe lookup")
	}
}

func TestServiceAdvertErrors(t *testing.T) {
	noName := &ServiceAdvertisement{ID: "adv-1"}
	if _, err := ServiceAdvertisementFromElement(noName.Element()); err == nil {
		t.Fatal("missing Name accepted")
	}
}

func TestPeerAdvertRoundTrip(t *testing.T) {
	in := &PeerAdvertisement{ID: "peer-7", Name: "rdv-A", Addr: "sim://a", Group: "g1", Rendezvous: true}
	el, err := xmlutil.ParseBytes(xmlutil.Marshal(in.Element()))
	if err != nil {
		t.Fatal(err)
	}
	out, err := PeerAdvertisementFromElement(el)
	if err != nil || *out != *in {
		t.Fatalf("round trip: %+v, %v", out, err)
	}
	in.Rendezvous = false
	out, err = PeerAdvertisementFromElement(in.Element())
	if err != nil || out.Rendezvous {
		t.Fatal("rendezvous=false lost")
	}
}

func TestQueryMatches(t *testing.T) {
	adv := &ServiceAdvertisement{
		ID: "a", Name: "EchoService", Group: "grid",
		Attrs: map[string]string{"kind": "echo", "v": "2"},
	}
	cases := []struct {
		q    Query
		want bool
	}{
		{Query{}, true},
		{Query{Name: "*"}, true},
		{Query{Name: "EchoService"}, true},
		{Query{Name: "Echo"}, false},
		{Query{Name: "Echo*"}, true},
		{Query{Name: "Zcho*"}, false},
		{Query{Group: "grid"}, true},
		{Query{Group: "other"}, false},
		{Query{Attrs: map[string]string{"kind": "echo"}}, true},
		{Query{Attrs: map[string]string{"kind": "other"}}, false},
		{Query{Attrs: map[string]string{"kind": "echo", "v": "2"}}, true},
		{Query{Attrs: map[string]string{"kind": "echo", "missing": "x"}}, false},
		{Query{Name: "Echo*", Group: "grid", Attrs: map[string]string{"v": "2"}}, true},
	}
	for i, c := range cases {
		if got := c.q.Matches(adv); got != c.want {
			t.Errorf("case %d: Matches(%+v) = %v, want %v", i, c.q, got, c.want)
		}
	}
	// Advert without a group matches any group constraint.
	groupless := &ServiceAdvertisement{ID: "b", Name: "X"}
	if !(Query{Group: "g"}).Matches(groupless) {
		t.Error("groupless advert should match")
	}
}

func TestAdvertCache(t *testing.T) {
	c := NewAdvertCache(3)
	a1 := &ServiceAdvertisement{ID: "1", Name: "A", Peer: "p1"}
	a2 := &ServiceAdvertisement{ID: "2", Name: "B", Peer: "p1"}
	a3 := &ServiceAdvertisement{ID: "3", Name: "C", Peer: "p2"}
	if !c.Put(a1) || !c.Put(a2) || !c.Put(a3) {
		t.Fatal("puts")
	}
	if c.Put(a1) {
		t.Fatal("duplicate put reported new")
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	// Eviction of the oldest on overflow.
	c.Put(&ServiceAdvertisement{ID: "4", Name: "D", Peer: "p2"})
	if c.Len() != 3 || c.Get("1") != nil || c.Get("4") == nil {
		t.Fatal("eviction")
	}
	// Match in insertion order.
	got := c.Match(Query{})
	if len(got) != 3 || got[0].ID != "2" {
		t.Fatalf("match order: %v", got)
	}
	if len(c.Match(Query{Name: "C"})) != 1 {
		t.Fatal("name match")
	}
	if !c.Remove("2") || c.Remove("2") {
		t.Fatal("remove")
	}
	if n := c.RemoveByPeer("p2"); n != 2 {
		t.Fatalf("removeByPeer = %d", n)
	}
	if c.Len() != 0 {
		t.Fatalf("len after removals = %d", c.Len())
	}
	if c.Put(nil) || c.Put(&ServiceAdvertisement{}) {
		t.Fatal("nil/empty put accepted")
	}
}

func TestIDGenerators(t *testing.T) {
	if NewPeerID() == NewPeerID() {
		t.Fatal("peer IDs collide")
	}
	if NewPipeID() == NewPipeID() || NewAdvertID() == NewAdvertID() {
		t.Fatal("IDs collide")
	}
}
