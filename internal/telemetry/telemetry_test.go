package telemetry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	m := NewMeter()
	c := m.Counter("a")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if m.Counter("a") != c {
		t.Fatal("Counter not memoized by name")
	}
	g := m.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}

	// Nil instruments are inert, not panics.
	var nc *Counter
	nc.Inc()
	nc.Add(1)
	if nc.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var ng *Gauge
	ng.Set(1)
	ng.Add(1)
	if ng.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var nh *Histogram
	nh.Observe(time.Second)
	if nh.Snapshot().Count != 0 {
		t.Fatal("nil histogram observed something")
	}
}

func TestHistogramSnapshot(t *testing.T) {
	m := NewMeter()
	h := m.Histogram("lat")
	for i := 0; i < 50; i++ {
		h.Observe(500 * time.Microsecond) // bucket 1 (<= 1ms)
	}
	for i := 0; i < 50; i++ {
		h.Observe(50 * time.Millisecond) // bucket 3 (<= 100ms)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 500*time.Microsecond || s.Max != 50*time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Buckets[1] != 50 || s.Buckets[3] != 50 {
		t.Fatalf("buckets = %v", s.Buckets)
	}
	if s.P50 < 500*time.Microsecond || s.P50 > time.Millisecond {
		t.Fatalf("p50 = %v, want within (0.5ms, 1ms]", s.P50)
	}
	if s.P99 < 10*time.Millisecond || s.P99 > 50*time.Millisecond {
		t.Fatalf("p99 = %v, want within (10ms, 50ms]", s.P99)
	}
	if mean := s.Mean(); mean <= 0 {
		t.Fatalf("mean = %v", mean)
	}
}

func TestCallTable(t *testing.T) {
	tab := NewCallTable()
	tab.Record("Echo", DirClient, 2*time.Millisecond, false)
	tab.Record("Echo", DirClient, 4*time.Millisecond, true)
	tab.Record("Echo", DirServer, time.Millisecond, false)
	tab.Record("Other", DirClient, time.Second, false)

	snap := tab.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("rows = %d", len(snap))
	}
	// Ordered by service, then direction.
	if snap[0].Service != "Echo" || snap[0].Dir != DirClient ||
		snap[1].Service != "Echo" || snap[1].Dir != DirServer ||
		snap[2].Service != "Other" {
		t.Fatalf("order = %+v", snap)
	}
	row := tab.Service("Echo", DirClient)
	if row.Calls != 2 || row.Failures != 1 {
		t.Fatalf("row = %+v", row)
	}
	if row.MinLatency != 2*time.Millisecond || row.MaxLatency != 4*time.Millisecond {
		t.Fatalf("min/max = %v/%v", row.MinLatency, row.MaxLatency)
	}
	if row.MeanLatency != 3*time.Millisecond {
		t.Fatalf("mean = %v", row.MeanLatency)
	}
	if row.TotalLatency != 6*time.Millisecond {
		t.Fatalf("total = %v", row.TotalLatency)
	}
	var bucketTotal int64
	for _, n := range row.Buckets {
		bucketTotal += n
	}
	if bucketTotal != row.Calls {
		t.Fatalf("bucket total %d != calls %d", bucketTotal, row.Calls)
	}
	empty := tab.Service("Nope", DirServer)
	if empty.Calls != 0 || len(empty.Buckets) != NumBuckets {
		t.Fatalf("empty row = %+v", empty)
	}
}

func TestTracerDisabledIsNil(t *testing.T) {
	tr := NewTracer()
	sp, ctx := tr.StartSpan(context.Background(), "x")
	if sp != nil {
		t.Fatal("disabled tracer returned a span")
	}
	if _, ok := SpanContextFromContext(ctx); ok {
		t.Fatal("disabled tracer polluted the context")
	}
	// All span methods are nil-safe.
	sp.SetService("s")
	sp.SetOp("o")
	sp.SetEndpoint("e")
	sp.SetDir(DirClient)
	sp.SetError(errors.New("x"))
	sp.Annotate("note")
	sp.Annotatef("note %d", 1)
	sp.End()
	if sp.Context() != (SpanContext{}) {
		t.Fatal("nil span has an identity")
	}
}

func TestTracerSpanLinkageAndSink(t *testing.T) {
	tr := NewTracer()
	col := NewCollector(16)
	if prev := tr.SetSink(col); prev != nil {
		t.Fatal("fresh tracer had a sink")
	}
	defer tr.SetSink(nil)

	parent, ctx := tr.StartSpan(context.Background(), "client.invoke")
	parent.SetService("Echo")
	parent.SetDir(DirClient)
	child, _ := tr.StartSpan(ctx, "server.dispatch")
	child.SetService("Echo")
	child.SetDir(DirServer)
	child.SetOp("echo")
	child.End()
	parent.SetError(errors.New("boom"))
	parent.End()
	parent.End() // double End is a no-op

	spans := col.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	srv, cli := spans[0], spans[1]
	if srv.Name != "server.dispatch" || cli.Name != "client.invoke" {
		t.Fatalf("end order: %q then %q", srv.Name, cli.Name)
	}
	if srv.TraceID != cli.TraceID {
		t.Fatal("child did not inherit the trace")
	}
	if srv.ParentID != cli.SpanID {
		t.Fatalf("parent link: child.parent=%d, parent.span=%d", srv.ParentID, cli.SpanID)
	}
	if cli.Err != "boom" || srv.Err != "" {
		t.Fatalf("errors: %q / %q", cli.Err, srv.Err)
	}
	if srv.Op != "echo" || srv.Dir != DirServer {
		t.Fatalf("attrs: %+v", srv)
	}
	if got := col.ByService("Echo"); len(got) != 2 {
		t.Fatalf("ByService = %d", len(got))
	}
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: 0xdeadbeef, SpanID: 42}
	got, ok := ParseTraceHeader(FormatTraceHeader(sc))
	if !ok || got != sc {
		t.Fatalf("round trip = %+v, %v", got, ok)
	}
	for _, bad := range []string{"", "zzz", "123", "12-zz", "0-0", "-", "10-0"} {
		if _, ok := ParseTraceHeader(bad); ok {
			t.Fatalf("parsed garbage %q", bad)
		}
	}
}

func TestContextPropagation(t *testing.T) {
	sc := SpanContext{TraceID: 7, SpanID: 9}
	ctx := ContextWithSpanContext(context.Background(), sc)
	got, ok := SpanContextFromContext(ctx)
	if !ok || got != sc {
		t.Fatalf("got %+v, %v", got, ok)
	}
	if _, ok := SpanContextFromContext(context.Background()); ok {
		t.Fatal("empty context carried a span")
	}
	if _, ok := SpanContextFromContext(nil); ok { //nolint:staticcheck // nil-safety is the contract under test
		t.Fatal("nil context carried a span")
	}
}

func TestCollectorBounds(t *testing.T) {
	col := NewCollector(2)
	for i := 0; i < 5; i++ {
		col.OnSpanEnd(SpanData{Name: "s"})
	}
	if col.Len() != 2 || col.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d", col.Len(), col.Dropped())
	}
	col.Reset()
	if col.Len() != 0 || col.Dropped() != 0 {
		t.Fatal("reset did not clear")
	}
}

// TestMeterRegistryConcurrent hammers the registry's get-or-create path
// and the instruments from many goroutines while snapshots are taken —
// the -race gate for the spine's hot path.
func TestMeterRegistryConcurrent(t *testing.T) {
	hub := New()
	const workers = 16
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				hub.Meter.Counter("shared.counter").Inc()
				hub.Meter.Counter(fmt.Sprintf("own.%d", w%4)).Inc()
				hub.Meter.Gauge("shared.gauge").Add(1)
				hub.Meter.Histogram("shared.hist").Observe(time.Duration(i) * time.Microsecond)
				hub.Calls.Record("Svc", DirClient, time.Millisecond, i%7 == 0)
				hub.Calls.Record("Svc", DirServer, time.Millisecond, false)
			}
		}(w)
	}
	// Concurrent readers.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = hub.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	total := workers * perWorker
	if got := hub.Meter.Counter("shared.counter").Value(); got != int64(total) {
		t.Fatalf("shared counter = %d, want %d", got, total)
	}
	if got := hub.Meter.Histogram("shared.hist").Snapshot().Count; got != int64(total) {
		t.Fatalf("histogram count = %d, want %d", got, total)
	}
	if got := hub.Calls.Service("Svc", DirClient).Calls; got != int64(total) {
		t.Fatalf("client calls = %d, want %d", got, total)
	}
	if got := hub.Calls.Service("Svc", DirServer).Calls; got != int64(total) {
		t.Fatalf("server calls = %d, want %d", got, total)
	}
}

// TestDisabledTelemetryAllocs: with no sink attached, the per-call spine
// work — a disabled StartSpan, counter increments and a CallTable record —
// must not allocate at all.
func TestDisabledTelemetryAllocs(t *testing.T) {
	hub := New()
	ctx := context.Background()
	ctr := hub.Meter.Counter("x")
	hist := hub.Meter.Histogram("h")
	hub.Calls.Record("Echo", DirClient, time.Millisecond, false) // create the row
	allocs := testing.AllocsPerRun(1000, func() {
		sp, c2 := hub.Tracer.StartSpan(ctx, "client.invoke")
		sp.SetService("Echo")
		sp.SetError(nil)
		sp.End()
		if c2 != ctx {
			t.Fatal("disabled StartSpan derived a context")
		}
		ctr.Inc()
		hist.Observe(time.Millisecond)
		hub.Calls.Record("Echo", DirClient, time.Millisecond, false)
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocates %.1f per op, want 0", allocs)
	}
}

func TestHubSnapshotShape(t *testing.T) {
	hub := New()
	hub.Meter.Counter("c").Add(3)
	hub.Meter.Gauge("g").Set(-2)
	hub.Meter.Histogram("h").Observe(time.Millisecond)
	hub.Calls.Record("Echo", DirServer, time.Millisecond, false)
	s := hub.Snapshot()
	if s.Counters["c"] != 3 || s.Gauges["g"] != -2 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Histograms["h"].Count != 1 {
		t.Fatalf("hist = %+v", s.Histograms["h"])
	}
	if len(s.Calls) != 1 || s.Calls[0].Service != "Echo" {
		t.Fatalf("calls = %+v", s.Calls)
	}
}

func TestBucketBounds(t *testing.T) {
	bounds := BucketBounds()
	if len(bounds)+1 != NumBuckets {
		t.Fatalf("bounds = %d, NumBuckets = %d", len(bounds), NumBuckets)
	}
	if bucketFor(0) != 0 || bucketFor(time.Hour) != len(bounds) {
		t.Fatal("bucketFor endpoints wrong")
	}
	for i, ub := range bounds {
		if bucketFor(ub) != i {
			t.Fatalf("bucketFor(%v) = %d, want %d", ub, bucketFor(ub), i)
		}
	}
}
