package wspeer_test

// The count gates of the message codec, where CI can see them: no call path
// on any binding builds a tree of a message header or body, a records round
// trip costs what a codec without that tree costs, and a P2PS echo what its
// addressing headers cost without theirs.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
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
// publishes def, and another to a consumer peer, which locates it.
func codecPair(t *testing.T, def wspeer.ServiceDef, attach func(*wspeer.Peer)) *wspeer.Invocation {
	t.Helper()
	ctx := context.Background()
	provider, consumer := wspeer.NewPeer(), wspeer.NewPeer()
	attach(provider)
	attach(consumer)
	t.Cleanup(func() { consumer.Client().CloseExchange() })
	if _, err := provider.Server().DeployAndPublish(ctx, def); err != nil {
		t.Fatal(err)
	}
	var info *wspeer.ServiceInfo
	var err error
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if info, err = consumer.Client().LocateOne(ctx, wspeer.NameQuery{Name: def.Name}); err == nil {
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

func memPair(t *testing.T, def wspeer.ServiceDef) *wspeer.Invocation {
	return codecPair(t, def, memAttach(t))
}

// memAttach returns what attaches an in-memory binding, on a network and a
// directory of its own.
func memAttach(t *testing.T) func(*wspeer.Peer) {
	net, dir := wspeer.NewInMemNetwork(), wspeer.NewInMemDirectory()
	return func(p *wspeer.Peer) {
		b, err := wspeer.NewInMemBinding(wspeer.InMemOptions{Network: net, Directory: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		if err := p.AttachBinding(b); err != nil {
			t.Fatal(err)
		}
	}
}

// p2psAttach returns what attaches a P2PS binding, on a peer of its own, to
// the overlay a rendezvous it starts holds together.
func p2psAttach(t *testing.T) func(*wspeer.Peer) {
	overlay := p2ps.NewLocalNetwork()
	rdv, err := p2ps.NewPeer(p2ps.Config{Transport: overlay.NewEndpoint(), Rendezvous: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdv.Close() })
	return func(p *wspeer.Peer) {
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
	}
}

// roundTrip invokes the records operation and decodes what comes back.
func roundTrip(t *testing.T, inv *wspeer.Invocation, in []Rec) {
	t.Helper()
	res, err := inv.Invoke(context.Background(), "records", wspeer.P("msg", in))
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, res, in)
}

// callbackRoundTrip is roundTrip with the reply sent back as a message of
// its own, correlated by the consumer's exchange table.
func callbackRoundTrip(t *testing.T, inv *wspeer.Invocation, in []Rec) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pending, err := inv.InvokeCallback(ctx, "records", wspeer.P("msg", in))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pending.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, res, in)
}

func checkRecords(t *testing.T, res *wspeer.Result, in []Rec) {
	t.Helper()
	var out []Rec
	if err := res.Decode("return", &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) || !reflect.DeepEqual(out[0], in[len(in)-1]) || !reflect.DeepEqual(out[len(in)-1], in[0]) {
		t.Fatalf("%d records came back for %d; first %+v", len(out), len(in), out[0])
	}
}

// TestNoTreeOnAnyCallPath: invoking and decoding builds no element tree of
// a message header or body — request or reply, consumer or provider — on
// the in-memory, the HTTP or the P2PS binding, whether the reply comes back
// on the call (request/response) or as a message of its own (callback).
func TestNoTreeOnAnyCallPath(t *testing.T) {
	registry := startRegistry(t)
	pairs := map[string]*wspeer.Invocation{
		"mem": memPair(t, recordsDef("RecordsMem")),
		"http": codecPair(t, recordsDef("RecordsHTTP"), func(p *wspeer.Peer) {
			b, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{UDDIEndpoint: registry})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			b.Attach(p)
		}),
		"p2ps": codecPair(t, recordsDef("RecordsP2PS"), p2psAttach(t)),
	}
	in := genRecs(16)
	for name, inv := range pairs {
		headers, bodies := soap.HeaderTreesBuilt(), soap.BodyTreesBuilt()
		for i := 0; i < 3; i++ {
			roundTrip(t, inv, in)
			callbackRoundTrip(t, inv, in)
		}
		if h, b := soap.HeaderTreesBuilt()-headers, soap.BodyTreesBuilt()-bodies; h != 0 || b != 0 {
			t.Errorf("%s: 3 request/response and 3 callback invocations built %d headers and %d bodies as trees", name, h, b)
		}
	}
}

// TestRecordsRoundTripAllocs pins what 256 records each way cost over
// mem://, ≈ 655: each record's slice of tags (one allocation, sized once,
// on either side), its strings carved from shared chunks, one a kilobyte,
// and a fixed part — where a string apiece cost ≈ 2,083, slices grown an
// item at a time ≈ 2,620 and a tree on the way ≈ 18,000. It logs the
// bytes a round trip allocates too, which carving must leave alone.
func TestRecordsRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	inv, in := memPair(t, recordsDef("Records")), genRecs(256)
	roundTrip(t, inv, in) // plans compiled, pools filled
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(20, func() { roundTrip(t, inv, in) })
	runtime.ReadMemStats(&after)
	if allocs > 687 {
		t.Fatalf("a 256-record round trip over mem://: %.0f allocations, want <= 687", allocs)
	}
	t.Logf("%.0f allocations, %d bytes", allocs, (after.TotalAlloc-before.TotalAlloc)/21) // AllocsPerRun runs it once more to warm up
}

// TestMemEchoAllocs pins the fixed cost of a call, what the benchmark's
// mem_echo_small op costs: a 16-byte string echoed over mem:// and decoded,
// 27 allocations. The codec does next to nothing here: beyond the decoded
// values and mem://'s own 7, they are the frame around the call on both
// sides — carriers, envelopes, message bytes, dispatch (DESIGN.md §9).
func TestMemEchoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	inv := memPair(t, benchEchoDef("EchoMem"))
	var msg interface{} = "0123456789abcdef" // boxed once, as the benchmark's inputs are
	echo := func() {
		res, err := inv.Invoke(context.Background(), "echo", wspeer.P("msg", msg))
		if err != nil {
			t.Fatal(err)
		}
		var out string
		if err := res.Decode("return", &out); err != nil || out != msg {
			t.Fatalf("echo: %q, %v", out, err)
		}
	}
	echo() // plans compiled, pools filled
	if allocs := testing.AllocsPerRun(200, echo); allocs > 28 {
		t.Fatalf("a 16-byte echo over mem://: %.0f allocations, want <= 28", allocs)
	} else {
		t.Logf("%.0f allocations", allocs)
	}
}

// TestCallbackBudgetAllocs: a retry budget costs a callback invocation over
// mem:// no allocation. Its carrier holds the call, the budget, the
// exchange headers and the result, as many keys as a carrier holds without
// a map: the headers alone mark the send as one that awaits no reply on
// the call, with no pattern key beside them.
func TestCallbackBudgetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	var allocs [2]float64
	for i, budgeted := range []bool{false, true} {
		attach := memAttach(t)
		inv := codecPair(t, benchEchoDef(fmt.Sprintf("EchoCallback%d", i)), func(p *wspeer.Peer) {
			attach(p)
			if budgeted {
				p.Client().ConfigureRetryBudget(wspeer.RetryBudgetOptions{Floor: 10, Cap: 100, Ratio: 0.1})
			}
		})
		echo := func() {
			pending, err := inv.InvokeCallback(context.Background(), "echo", wspeer.P("msg", "x"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pending.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		echo() // plans compiled, pools filled, reply endpoint hosted
		allocs[i] = testing.AllocsPerRun(200, echo)
	}
	if allocs[1] != allocs[0] {
		t.Fatalf("a callback echo over mem://: %.0f allocations with a retry budget, %.0f without", allocs[1], allocs[0])
	}
	t.Logf("%.0f allocations", allocs[0])
}

// TestP2PSEchoAllocs pins what an echo round trip costs over the P2PS
// binding: a request stamped with its addressing headers and parsed by the
// provider, a reply stamped, parsed and correlated, ≈ 72 allocations in
// all — where header trees on the way cost 182, and reference properties
// read as trees 92.
func TestP2PSEchoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	inv := codecPair(t, benchEchoDef("EchoAllocs"), p2psAttach(t))
	echo := func() {
		if _, err := inv.Invoke(context.Background(), "echo", wspeer.P("msg", "x")); err != nil {
			t.Fatal(err)
		}
	}
	echo() // plans compiled, pools filled, reply pipe hosted
	if allocs := testing.AllocsPerRun(200, echo); allocs > 75 {
		t.Fatalf("a P2PS echo round trip: %.0f allocations, want <= 75", allocs)
	} else {
		t.Logf("%.0f allocations", allocs)
	}
}
