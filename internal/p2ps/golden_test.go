package p2ps

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenService is a service advert with everything an advert can carry:
// a group, two pipes, a definition pipe and attributes, one of whose texts
// needs escaping.
func goldenService() *ServiceAdvertisement {
	return &ServiceAdvertisement{ID: "adv-7", Name: "Echo", Peer: "peer-9", Group: "grid",
		Pipes: []PipeAdvertisement{
			{ID: "pipe-1", Name: "requests", Peer: "peer-9"},
			{ID: "pipe-2", Name: "notify", Peer: "peer-9"},
		},
		DefinitionPipe: &PipeAdvertisement{ID: "pipe-def", Name: "definition", Peer: "peer-9"},
		Attrs:          map[string]string{"binding": "wspeer-p2ps", "kind": "a < b & c", "version": "1"},
	}
}

// goldenFrames are messages carrying adverts, their frames pinned in
// testdata as the tree renderer wrote the adverts in them: a peer advert
// in the frame a peer attaches with, and a service advert in a publish and
// in the answer to a query.
var goldenFrames = []struct {
	file string
	msg  *message
}{
	{"attach.frame", &message{Type: msgAttach, From: "peer-3", Addr: "tcp://127.0.0.1:7001", Group: "grid",
		PeerAdv: &PeerAdvertisement{ID: "peer-3", Name: "rdv", Addr: "tcp://127.0.0.1:7001", Group: "grid", Rendezvous: true}}},
	{"publish.frame", &message{Type: msgPublish, From: "peer-9", Addr: "tcp://127.0.0.1:7002", Group: "grid", ServiceAdv: goldenService()}},
	{"query_response.frame", &message{Type: msgQueryResponse, From: "peer-3", Addr: "tcp://127.0.0.1:7001", QueryID: "q-0123456789abcdef",
		Hops: 1, ServiceAdv: goldenService()}},
}

func readGolden(t *testing.T, file string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAdvertGolden: every frame encodes to its pinned bytes and decodes
// back to the message it was built from, and the service advert's XML
// document in them is the pinned one.
func TestAdvertGolden(t *testing.T) {
	advert := readGolden(t, "service_advert.xml")
	for _, g := range goldenFrames {
		want := readGolden(t, g.file)
		if got := g.msg.encode(); !bytes.Equal(got, want) {
			t.Errorf("%s drifted from the golden bytes:\n got %q\nwant %q", g.file, got, want)
		}
		back, err := decodeMessage(want)
		if err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		if !reflect.DeepEqual(back, g.msg) {
			t.Errorf("%s decoded to\n%+v\nnot\n%+v", g.file, back, g.msg)
		}
		if g.msg.ServiceAdv != nil && !bytes.Contains(want, advert) {
			t.Errorf("%s does not carry service_advert.xml", g.file)
		}
	}
}
