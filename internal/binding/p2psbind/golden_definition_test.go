package p2psbind

import (
	"os"
	"path/filepath"
	"testing"

	"wspeer/internal/p2ps"
	"wspeer/internal/soap"
	"wspeer/internal/wsaddr"
)

// TestGoldenDefinitionRequest: the request FetchDefinitions sends down a
// definition pipe — the definition pipe's advertisement as a
// reference-property header, the reply pipe's inside ReplyTo — is written
// as the tree renderer wrote it (testdata/definition_request.xml), and the
// provider reads both pipes back out of it.
func TestGoldenDefinitionRequest(t *testing.T) {
	defPipe := &p2ps.PipeAdvertisement{ID: "pipe-def-3", Name: DefinitionPipeName, Peer: "provider"}
	replyPipe := &p2ps.PipeAdvertisement{ID: "pipe-reply-4", Name: "wsdl-reply", Peer: "consumer"}
	env, hdr := definitionRequest(&p2ps.ServiceAdvertisement{Name: "Echo", Peer: "provider", DefinitionPipe: defPipe}, replyPipe)
	hdr.MessageID = "urn:uuid:00000000-0000-4000-8000-000000000003"
	want, err := os.ReadFile(filepath.Join("testdata", "definition_request.xml"))
	if err != nil {
		t.Fatal(err)
	}
	got := env.Marshal()
	if string(got) != string(want) {
		t.Fatalf("definition request drifted from the golden bytes:\n got: %s\nwant: %s", got, want)
	}
	back, err := soap.Parse(want)
	if err != nil {
		t.Fatal(err)
	}
	read, err := wsaddr.FromEnvelope(back)
	if err != nil || read.ReplyTo == nil {
		t.Fatalf("headers read back: %+v, %v", read, err)
	}
	if pipe, err := EPRToPipe(read.ReplyTo); err != nil || *pipe != *replyPipe {
		t.Fatalf("reply pipe read back: %+v, %v", pipe, err)
	}
}
