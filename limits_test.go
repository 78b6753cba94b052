package wspeer_test

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"wspeer"
	"wspeer/internal/soap"
	"wspeer/internal/transport"
)

// TestHeaderFloodRefused: a stranger's request of a million empty header
// blocks over mem:// is answered with a Client fault at parse time, before
// mustUnderstand processing, having cost the provider no more than twice
// its own size — the in-memory transport's copy of it and change, where
// header trees cost 75 times it — and the provider answers the next
// ordinary call.
func TestHeaderFloodRefused(t *testing.T) {
	ctx := context.Background()
	net, dir := wspeer.NewInMemNetwork(), wspeer.NewInMemDirectory()
	provider := wspeer.NewPeer()
	b, err := wspeer.NewInMemBinding(wspeer.InMemOptions{Network: net, Directory: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := provider.AttachBinding(b); err != nil {
		t.Fatal(err)
	}
	dep, err := provider.Server().Deploy(benchEchoDef("Flooded"))
	if err != nil {
		t.Fatal(err)
	}
	echo := func() string {
		t.Helper()
		env := `<s:Envelope xmlns:s="` + soap.Namespace + `"><s:Body><e:echo xmlns:e="` + dep.Service.Namespace() + `"><e:msg>still here</e:msg></e:echo></s:Body></s:Envelope>`
		resp, err := net.Transport().Call(ctx, &transport.Request{Endpoint: dep.Endpoint, Body: []byte(env)})
		if err != nil {
			t.Fatal(err)
		}
		return string(resp.Body)
	}
	if got := echo(); !strings.Contains(got, "still here") {
		t.Fatalf("an ordinary call: %s", got)
	}

	flood := []byte(`<s:Envelope xmlns:s="` + soap.Namespace + `"><s:Header>` + strings.Repeat("<a/>", 1<<20) +
		`</s:Header><s:Body><e:echo xmlns:e="urn:x"/></s:Body></s:Envelope>`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := net.Transport().Call(ctx, &transport.Request{Endpoint: dep.Endpoint, Body: flood})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	fault, err := soap.Parse(resp.Body)
	if err != nil || !fault.IsFault() || !fault.Fault().IsClient() || !strings.Contains(fault.Fault().String, "more than 256 blocks") {
		t.Fatalf("a flood of header blocks: %s, %v", resp.Body, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*uint64(len(flood)) {
		t.Errorf("a %d-byte flood of header blocks cost %d bytes of heap, want <= 2 × its size", len(flood), grew)
	}
	if got := echo(); !strings.Contains(got, "still here") {
		t.Fatalf("an ordinary call after the flood: %s", got)
	}
}
