package p2ps

import (
	"reflect"
	"testing"

	"wspeer/internal/xmlutil"
	"wspeer/internal/xsd"
)

func TestPipeAdvertRoundTrip(t *testing.T) {
	in := &PipeAdvertisement{ID: NewPipeID(), Name: "echoString", Peer: "peer-1"}
	out, err := PipeAdvertisementFromRaw(in.Raw())
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
	// Read where it stands in another document, whose root declares its
	// namespace, its text trimmed.
	doc := []byte(`<o:outer xmlns:o="urn:o" xmlns:p="` + Namespace + `"><p:PipeAdvertisement>` +
		`<p:Id> pipe-9 </p:Id><o:Id>not this</o:Id><p:Peer>peer-2</p:Peer></p:PipeAdvertisement></o:outer>`)
	tk := xmlutil.AcquireTokenizer(doc)
	defer tk.Release()
	var raw xmlutil.Raw
	for kind, err := tk.Next(); err == nil && raw.Name.IsZero(); kind, err = tk.Next() {
		if kind == xmlutil.TokenStart && tk.Depth() == 2 {
			if raw, err = tk.Raw(); err != nil {
				t.Fatal(err)
			}
		}
	}
	out, err = PipeAdvertisementFromRaw(raw)
	if err != nil || *out != (PipeAdvertisement{ID: "pipe-9", Peer: "peer-2"}) {
		t.Fatalf("read in place: %+v, %v", out, err)
	}
}

func TestPipeAdvertErrors(t *testing.T) {
	wrong, err := xsd.MarshalRaw(Namespace, "Wrong", reflect.ValueOf(PipeAdvertisement{ID: "x"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PipeAdvertisementFromRaw(wrong); err == nil {
		t.Fatal("wrong element accepted")
	}
	if _, err := PipeAdvertisementFromRaw((&PipeAdvertisement{Name: "x", Peer: "p"}).Raw()); err == nil {
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
	out, err := parseService(in.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
	if out.Pipe("echoBytes") == nil || out.Pipe("nope") != nil {
		t.Fatal("Pipe lookup")
	}
}

// TestServiceAdvertErrors: an advert without a name or whose pipe has no
// Id is refused, and so is one whose text XML cannot carry.
func TestServiceAdvertErrors(t *testing.T) {
	for _, bad := range []*ServiceAdvertisement{
		{ID: "adv-1"},
		{ID: "adv-1", Name: "Echo", DefinitionPipe: &PipeAdvertisement{Name: "definition"}},
		{ID: "adv-1", Name: "Echo", Pipes: []PipeAdvertisement{{ID: "pipe-1"}, {Name: "requests"}}},
	} {
		if _, err := parseService(bad.marshal()); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	for _, text := range []string{"a&#1;b", "\x01", "\xff", "&#xFFFE;"} {
		doc := `<p:ServiceAdvertisement xmlns:p="` + Namespace + `"><p:Id>adv-1</p:Id><p:Name>Echo</p:Name>` +
			`<p:Attributes><p:Attribute name="k">` + text + `</p:Attribute></p:Attributes></p:ServiceAdvertisement>`
		if _, err := parseService([]byte(doc)); err == nil {
			t.Errorf("attribute text %q accepted", text)
		}
	}
}

func TestPeerAdvertRoundTrip(t *testing.T) {
	in := &PeerAdvertisement{ID: "peer-7", Name: "rdv-A", Addr: "sim://a", Group: "g1", Rendezvous: true}
	out, err := parsePeer(in.marshal())
	if err != nil || *out != *in {
		t.Fatalf("round trip: %+v, %v", out, err)
	}
	in.Rendezvous = false
	out, err = parsePeer(in.marshal())
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
