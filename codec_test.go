package wspeer_test

// The count gates of the message codec, where CI can see them: no call path
// on any binding builds a tree of a message body, and a records round trip
// costs what a codec without that tree costs.

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"wspeer"
	"wspeer/internal/p2ps"
	"wspeer/internal/soap"
)

// Rec is the benchmark's record shape (bench/gen.go).
type Rec struct {
	ID    int64
	Name  string
	Score float64
	Tags  []string
}

func genRecs(n int) []Rec {
	recs := make([]Rec, n)
	for i := range recs {
		recs[i] = Rec{ID: int64(i) * 7919, Name: fmt.Sprintf("name-%d-abcdefghijkl", i), Score: float64(i) * 1.37,
			Tags: []string{fmt.Sprintf("tag%d", i), fmt.Sprintf("other%d", i)}}
	}
	return recs
}

func recordsDef(name string) wspeer.ServiceDef {
	return wspeer.ServiceDef{Name: name, Operations: []wspeer.OperationDef{{
		Name: "records", ParamNames: []string{"msg"},
		Func: func(in []Rec) []Rec {
			out := make([]Rec, len(in))
			for i, r := range in {
				out[len(in)-1-i] = r
			}
			return out
		},
	}}}
}

// codecPair attaches a binding to a provider peer, which deploys and
// publishes the records service under name, and another to a consumer
// peer, which locates it.
func codecPair(t *testing.T, name string, attach func(*wspeer.Peer)) *wspeer.Invocation {
	t.Helper()
	ctx := context.Background()
	provider, consumer := wspeer.NewPeer(), wspeer.NewPeer()
	attach(provider)
	attach(consumer)
	if _, err := provider.Server().DeployAndPublish(ctx, recordsDef(name)); err != nil {
		t.Fatal(err)
	}
	var info *wspeer.ServiceInfo
	var err error
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if info, err = consumer.Client().LocateOne(ctx, wspeer.NameQuery{Name: name}); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	inv, err := consumer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	return inv
}

func memPair(t *testing.T, name string) *wspeer.Invocation {
	net, dir := wspeer.NewInMemNetwork(), wspeer.NewInMemDirectory()
	return codecPair(t, name, func(p *wspeer.Peer) {
		b, err := wspeer.NewInMemBinding(wspeer.InMemOptions{Network: net, Directory: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		if err := p.AttachBinding(b); err != nil {
			t.Fatal(err)
		}
	})
}

// roundTrip invokes the records operation and decodes what comes back.
func roundTrip(t *testing.T, inv *wspeer.Invocation, in []Rec) {
	t.Helper()
	res, err := inv.Invoke(context.Background(), "records", wspeer.P("msg", in))
	if err != nil {
		t.Fatal(err)
	}
	var out []Rec
	if err := res.Decode("return", &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) || !reflect.DeepEqual(out[0], in[len(in)-1]) || !reflect.DeepEqual(out[len(in)-1], in[0]) {
		t.Fatalf("%d records came back for %d; first %+v", len(out), len(in), out[0])
	}
}

// TestNoBodyTreeOnAnyCallPath: invoking and decoding builds no element tree
// of a message body — request or response, consumer or provider — on the
// in-memory, the HTTP or the P2PS binding.
func TestNoBodyTreeOnAnyCallPath(t *testing.T) {
	registry := startRegistry(t)
	overlay := p2ps.NewLocalNetwork()
	rdv, err := p2ps.NewPeer(p2ps.Config{Transport: overlay.NewEndpoint(), Rendezvous: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdv.Close() })
	pairs := map[string]*wspeer.Invocation{
		"mem": memPair(t, "RecordsMem"),
		"http": codecPair(t, "RecordsHTTP", func(p *wspeer.Peer) {
			b, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{UDDIEndpoint: registry})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			b.Attach(p)
		}),
		"p2ps": codecPair(t, "RecordsP2PS", func(p *wspeer.Peer) {
			node, err := wspeer.NewP2PSPeer(wspeer.P2PSConfig{Transport: overlay.NewEndpoint(), Seeds: []string{rdv.Addr()}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { node.Close() })
			b, err := wspeer.NewP2PSBinding(wspeer.P2PSOptions{Peer: node, DiscoveryTimeout: 300 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			b.Attach(p)
		}),
	}
	in := genRecs(16)
	for name, inv := range pairs {
		before := soap.BodyTreesBuilt()
		for i := 0; i < 3; i++ {
			roundTrip(t, inv, in)
		}
		if n := soap.BodyTreesBuilt() - before; n != 0 {
			t.Errorf("%s: %d message bodies were built as trees by 3 invocations", name, n)
		}
	}
}

// TestRecordsRoundTripAllocs pins what 256 records each way cost over
// mem://: the strings and slices of the decoded values (≈ 5 a record, on
// either side) and a fixed part — where a tree on the way cost ≈ 18,000.
func TestRecordsRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	inv, in := memPair(t, "Records"), genRecs(256)
	roundTrip(t, inv, in) // plans compiled, pools filled
	if allocs := testing.AllocsPerRun(20, func() { roundTrip(t, inv, in) }); allocs > 3600 {
		t.Fatalf("a 256-record round trip over mem://: %.0f allocations, want <= 3600", allocs)
	} else {
		t.Logf("%.0f allocations", allocs)
	}
}
