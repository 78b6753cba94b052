package wspeer_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"wspeer"
)

// inMemPair stands up a provider and consumer peer sharing one in-memory
// substrate, with the named echo service deployed and located.
func inMemPair(t *testing.T, service string) *wspeer.Invocation {
	t.Helper()
	ctx := context.Background()
	net := wspeer.NewInMemNetwork()
	dir := wspeer.NewInMemDirectory()

	provider := wspeer.NewPeer()
	pb, err := wspeer.NewInMemBinding(wspeer.InMemOptions{Network: net, Directory: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pb.Close() })
	if err := provider.AttachBinding(pb); err != nil {
		t.Fatal(err)
	}
	if _, err := provider.Server().DeployAndPublish(ctx, echoDef(service, "mem")); err != nil {
		t.Fatal(err)
	}

	consumer := wspeer.NewPeer()
	cb, err := wspeer.NewInMemBinding(wspeer.InMemOptions{Network: net, Directory: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cb.Close() })
	if err := consumer.AttachBinding(cb); err != nil {
		t.Fatal(err)
	}
	info, err := consumer.Client().LocateOne(ctx, wspeer.NameQuery{Name: service})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := consumer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	return inv
}

// TestTelemetryTraceLinkage proves the trace survives the wire: over the
// real HTTP binding, the server-side dispatch span must be the child of
// the client-side invocation span, in the same trace.
func TestTelemetryTraceLinkage(t *testing.T) {
	ctx := context.Background()
	registryURL := startRegistry(t)

	provider := wspeer.NewPeer()
	hb, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{UDDIEndpoint: registryURL})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hb.Close() })
	if err := provider.AttachBinding(hb); err != nil {
		t.Fatal(err)
	}
	if _, err := provider.Server().DeployAndPublish(ctx, echoDef("TraceEcho", "http")); err != nil {
		t.Fatal(err)
	}

	consumer := wspeer.NewPeer()
	cb, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{UDDIEndpoint: registryURL})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cb.Close() })
	if err := consumer.AttachBinding(cb); err != nil {
		t.Fatal(err)
	}
	info, err := consumer.Client().LocateOne(ctx, wspeer.NameQuery{Name: "TraceEcho"})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := consumer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}

	col := wspeer.NewSpanCollector(0)
	prev := wspeer.Telemetry().Tracer.SetSink(col)
	t.Cleanup(func() { wspeer.Telemetry().Tracer.SetSink(prev) })

	if res, err := inv.Invoke(ctx, "echo", wspeer.P("msg", "linked")); err != nil {
		t.Fatal(err)
	} else if got, _ := res.String("return"); got != "http:linked" {
		t.Fatalf("echo = %q", got)
	}

	spans := col.ByService("TraceEcho")
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(spans), spans)
	}
	srv, cli := spans[0], spans[1]
	if srv.Name != "server.dispatch" || cli.Name != "client.invoke" {
		t.Fatalf("span sequence = [%s, %s]", srv.Name, cli.Name)
	}
	if srv.TraceID != cli.TraceID {
		t.Fatalf("spans in different traces: %x vs %x", srv.TraceID, cli.TraceID)
	}
	if srv.ParentID != cli.SpanID {
		t.Fatalf("dispatch span parent = %x, want client span %x", srv.ParentID, cli.SpanID)
	}
}

// TestTelemetryConcurrent hammers the spine from concurrent clients with
// tracing enabled while snapshots are read — the -race exercise for the
// meter registry, call table, tracer and collector together.
func TestTelemetryConcurrent(t *testing.T) {
	ctx := context.Background()
	const workers = 8
	const callsPerWorker = 25

	invs := make([]*wspeer.Invocation, workers)
	for i := range invs {
		invs[i] = inMemPair(t, fmt.Sprintf("ConcEcho%d", i))
	}

	col := wspeer.NewSpanCollector(0)
	prev := wspeer.Telemetry().Tracer.SetSink(col)
	t.Cleanup(func() { wspeer.Telemetry().Tracer.SetSink(prev) })

	before := wspeer.Snapshot()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	// A concurrent snapshot reader races every instrument on purpose.
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				wspeer.Snapshot()
			}
		}
	}()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < callsPerWorker; j++ {
				res, err := invs[i].Invoke(ctx, "echo", wspeer.P("msg", "c"))
				if err != nil {
					t.Errorf("worker %d call %d: %v", i, j, err)
					return
				}
				if got, _ := res.String("return"); got != "mem:c" {
					t.Errorf("worker %d call %d = %q", i, j, got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	after := wspeer.Snapshot()
	for i := 0; i < workers; i++ {
		svc := fmt.Sprintf("ConcEcho%d", i)
		cli := wspeer.Telemetry().Calls.Service(svc, "client")
		srv := wspeer.Telemetry().Calls.Service(svc, "server")
		if cli.Calls < callsPerWorker || srv.Calls < callsPerWorker {
			t.Fatalf("%s rows: client %d, server %d, want >= %d", svc, cli.Calls, srv.Calls, callsPerWorker)
		}
		if cli.Failures != 0 || srv.Failures != 0 {
			t.Fatalf("%s recorded failures on clean calls", svc)
		}
	}
	grew := after.Counters["transport.inmem.calls"] - before.Counters["transport.inmem.calls"]
	if grew < workers*callsPerWorker {
		t.Fatalf("transport.inmem.calls grew by %d, want >= %d", grew, workers*callsPerWorker)
	}
	// Every call produced a client and a server span.
	if col.Len() < 2*workers*callsPerWorker {
		t.Fatalf("collected %d spans, want >= %d", col.Len(), 2*workers*callsPerWorker)
	}
}

// TestDebugEndpoint curls the host's /debug/wspeer endpoint and checks the
// JSON document carries the spine's call table and the engine stats.
func TestDebugEndpoint(t *testing.T) {
	ctx := context.Background()
	registryURL := startRegistry(t)

	peer := wspeer.NewPeer()
	hb, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{UDDIEndpoint: registryURL})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hb.Close() })
	if err := peer.AttachBinding(hb); err != nil {
		t.Fatal(err)
	}
	dep, err := peer.Server().DeployAndPublish(ctx, echoDef("DebugEcho", "dbg"))
	if err != nil {
		t.Fatal(err)
	}
	info, err := peer.Client().LocateOne(ctx, wspeer.NameQuery{Name: "DebugEcho"})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := peer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Invoke(ctx, "echo", wspeer.P("msg", "x")); err != nil {
		t.Fatal(err)
	}

	// The service endpoint is http://host/services/DebugEcho; the debug
	// endpoint hangs off the same listener.
	base := dep.Endpoint[:len(dep.Endpoint)-len("/services/DebugEcho")]
	resp, err := http.Get(base + "/debug/wspeer")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/wspeer = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Telemetry wspeer.TelemetrySnapshot `json:"telemetry"`
		Overload  map[string]int64         `json:"overload"`
		Services  []string                 `json:"services"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("debug endpoint is not JSON: %v\n%s", err, body)
	}
	// The overload-control section surfaces the adaptive admission limit,
	// retry-budget state and hedge counters as one document.
	for _, key := range []string{
		"admission_limit", "budget_balance_milli", "budget_draws", "budget_denied",
		"hedges_launched", "hedge_wins", "hedges_denied",
		"retries_budget_denied", "deadlines_carried", "deadlines_dropped",
	} {
		if _, ok := doc.Overload[key]; !ok {
			t.Fatalf("overload section missing %q: %s", key, body)
		}
	}
	if n := doc.Telemetry.Counters["engine.requests"]; n < 1 {
		t.Fatalf("engine.requests counter = %d, want >= 1", n)
	}
	if len(doc.Services) != 1 || doc.Services[0] != "DebugEcho" {
		t.Fatalf("services = %v", doc.Services)
	}
	foundRow := false
	for _, row := range doc.Telemetry.Calls {
		if row.Service == "DebugEcho" && row.Dir == "server" && row.Calls >= 1 {
			foundRow = true
		}
	}
	if !foundRow {
		t.Fatalf("call table has no server row for DebugEcho: %+v", doc.Telemetry.Calls)
	}
	if doc.Telemetry.Counters["httpd.requests"] < 1 {
		t.Fatalf("httpd.requests counter = %d", doc.Telemetry.Counters["httpd.requests"])
	}
}
