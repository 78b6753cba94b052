package p2psbind

import (
	"context"
	"testing"
	"time"

	"wspeer/internal/core"
	"wspeer/internal/p2ps"
)

// TestLocateAllocs pins what one LocateOne costs over the in-process
// overlay, on all three peers: the query and its answer, the matched
// advert written by the rendezvous and read by the consumer, the
// definitions fetched down the definition pipe and parsed, and the target
// the advert resolves to — ≈ 151 allocations, where adverts, pipe adverts
// and schemas built as trees on the way cost 295.
func TestLocateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	net := p2ps.NewLocalNetwork()
	node := func(rendezvous bool, seeds ...string) *p2ps.Peer {
		pp, err := p2ps.NewPeer(p2ps.Config{Transport: net.NewEndpoint(), Rendezvous: rendezvous, Seeds: seeds})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pp.Close() })
		return pp
	}
	rdv := node(true)
	bind := func() *core.Peer {
		b, err := New(Options{Peer: node(false, rdv.Addr()), DiscoveryTimeout: 20 * time.Millisecond, ReplyTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		p := core.NewPeer()
		b.Attach(p)
		return p
	}
	provider, consumer := bind(), bind()
	if _, err := provider.Server().DeployAndPublish(context.Background(), echoDef()); err != nil {
		t.Fatal(err)
	}
	locate := func() {
		if _, err := consumer.Client().LocateOne(context.Background(), core.NameQuery{Name: "Echo"}); err != nil {
			t.Fatal(err)
		}
	}
	locateWithRetry(t, consumer, "Echo") // the advert cached, plans compiled, pools filled
	if allocs := testing.AllocsPerRun(20, locate); allocs > 158 {
		t.Fatalf("one LocateOne: %.0f allocations, want <= 158", allocs)
	} else {
		t.Logf("%.0f allocations", allocs)
	}
}
