package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTablePrint(t *testing.T) {
	tab := &Table{
		ID:      "EX",
		Title:   "test table",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"wide-cell", "3"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	for _, want := range []string{"EX — test table", "long-column", "wide-cell", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestDiscoveryScalingShape(t *testing.T) {
	rows, err := RunDiscoveryScaling(1, []int{16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]DiscoveryScalingRow{}
	for _, r := range rows {
		byKey[string(r.Mode)+"/"+itoa(r.Peers)] = r
		if r.Success < 0.99 {
			t.Errorf("%s@%d: success %.2f", r.Mode, r.Peers, r.Success)
		}
	}
	// Central hottest load grows linearly with peers.
	if byKey["central/64"].HottestΔ != 4*byKey["central/16"].HottestΔ {
		t.Errorf("central load not linear: %d vs %d",
			byKey["central/16"].HottestΔ, byKey["central/64"].HottestΔ)
	}
	// Mesh hottest load at the larger size is well below central's.
	if byKey["p2ps-mesh/64"].HottestΔ >= byKey["central/64"].HottestΔ {
		t.Errorf("mesh hottest %d not below central %d",
			byKey["p2ps-mesh/64"].HottestΔ, byKey["central/64"].HottestΔ)
	}
	// Flood pays more messages per query than mesh.
	if byKey["p2ps-flood/64"].PerQuery <= byKey["p2ps-mesh/64"].PerQuery {
		t.Errorf("flood per-query %f not above mesh %f",
			byKey["p2ps-flood/64"].PerQuery, byKey["p2ps-mesh/64"].PerQuery)
	}
	// Table renders.
	var buf bytes.Buffer
	DiscoveryScalingTable(rows).Print(&buf)
	if !strings.Contains(buf.String(), "E5") {
		t.Fatal("table did not render")
	}
}

func itoa(n int) string {
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestChurnShape(t *testing.T) {
	rows, err := RunChurn(1, 48, []float64{0, 0.5}, 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]ChurnRow{}
	for _, r := range rows {
		byKey[string(r.Mode)+"/"+fpct(r.KillFrac)] = r
	}
	// No churn: everything works.
	for _, mode := range []DiscoveryMode{ModeCentral, ModeMesh, ModeFlood} {
		if byKey[string(mode)+"/0.0%"].Success < 0.99 {
			t.Errorf("%s at 0%% churn: %.2f", mode, byKey[string(mode)+"/0.0%"].Success)
		}
	}
	// Heavy churn hurts everyone but leaves the mesh partially working.
	if byKey["p2ps-mesh/50.0%"].Success <= 0 {
		t.Error("mesh should survive some churn")
	}
	var buf bytes.Buffer
	ChurnTable(rows).Print(&buf)
	if !strings.Contains(buf.String(), "E6") {
		t.Fatal("table did not render")
	}
}

func TestSyncAsyncShape(t *testing.T) {
	r, err := RunSyncVsAsync(1, 12, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if r.AsyncWall >= r.SyncWall {
		t.Errorf("async %v not faster than sync %v", r.AsyncWall, r.SyncWall)
	}
	if r.Speedup <= 1 {
		t.Errorf("speedup = %f", r.Speedup)
	}
	// Async wall-clock should be in the vicinity of the slowest node, not
	// the sum.
	if r.AsyncWall > 5*r.SlowestNode+50*time.Millisecond {
		t.Errorf("async wall %v far above slowest node %v", r.AsyncWall, r.SlowestNode)
	}
	var buf bytes.Buffer
	SyncAsyncTable(r).Print(&buf)
	if !strings.Contains(buf.String(), "E7") {
		t.Fatal("table did not render")
	}
}

func TestStubShape(t *testing.T) {
	r, err := RunStubComparison(200)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reparse <= r.Dynamic {
		t.Errorf("reparse %v should cost more than dynamic %v", r.Reparse, r.Dynamic)
	}
	if r.Dynamic <= 0 || r.Static <= 0 {
		t.Error("degenerate timings")
	}
	var buf bytes.Buffer
	StubTable(r).Print(&buf)
	if !strings.Contains(buf.String(), "E8") {
		t.Fatal("table did not render")
	}
}

func TestDeployShape(t *testing.T) {
	r, err := RunDeploy(32)
	if err != nil {
		t.Fatal(err)
	}
	if r.LazyIdleListener {
		t.Error("lazy host held a listener before any deployment")
	}
	if !r.EagerIdleListener {
		t.Error("eager host should have a running listener")
	}
	if r.BulkPerDeply <= 0 || r.LazyFirstService <= 0 {
		t.Error("degenerate timings")
	}
	var buf bytes.Buffer
	DeployTable(r).Print(&buf)
	if !strings.Contains(buf.String(), "E9") {
		t.Fatal("table did not render")
	}
}

func TestStatefulShape(t *testing.T) {
	r, err := RunStateful(50)
	if err != nil {
		t.Fatal(err)
	}
	if !r.StateVerified {
		t.Error("state not verified")
	}
	if r.FinalState != 50 {
		t.Errorf("final state = %d", r.FinalState)
	}
	var buf bytes.Buffer
	StatefulTable(r).Print(&buf)
	if !strings.Contains(buf.String(), "E10") {
		t.Fatal("table did not render")
	}
}

func TestEventsShape(t *testing.T) {
	r, err := RunEvents(500)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OrderedCheck {
		t.Error("events lost or disordered")
	}
	if r.Delivered != 500 {
		t.Errorf("delivered = %d", r.Delivered)
	}
	var buf bytes.Buffer
	EventsTable(r).Print(&buf)
	if !strings.Contains(buf.String(), "E1") {
		t.Fatal("table did not render")
	}
}

func TestPipeStepsShape(t *testing.T) {
	r, err := RunPipeSteps(32)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correlated != 32 {
		t.Errorf("correlated %d/32", r.Correlated)
	}
	if r.RoundTrip <= 0 || r.AdvertToEPR <= 0 {
		t.Error("degenerate timings")
	}
	var buf bytes.Buffer
	PipeStepsTable(r).Print(&buf)
	if !strings.Contains(buf.String(), "E4") {
		t.Fatal("table did not render")
	}
}

func TestLifecycles(t *testing.T) {
	httpRes, err := RunHTTPLifecycle([]int{1, 4}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if httpRes.Invoke <= 0 || httpRes.Throughput[4] <= 0 {
		t.Errorf("http lifecycle: %+v", httpRes)
	}
	p2psRes, err := RunP2PSLifecycle([]int{1, 4}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if p2psRes.Invoke <= 0 || p2psRes.Throughput[4] <= 0 {
		t.Errorf("p2ps lifecycle: %+v", p2psRes)
	}
	var buf bytes.Buffer
	LifecycleTable("E2", httpRes, p2psRes).Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "http/uddi") || !strings.Contains(out, "p2ps") {
		t.Fatalf("table: %s", out)
	}
}

func TestBuildOverlayValidation(t *testing.T) {
	o, err := BuildOverlay(OverlayConfig{Seed: 1, Providers: 4, Rendezvous: 0, Mode: ModeCentral})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Rdvs) != 1 {
		t.Fatalf("rendezvous defaulted to %d", len(o.Rdvs))
	}
	// Homes beyond available rendezvous are clamped.
	o, err = BuildOverlay(OverlayConfig{Seed: 1, Providers: 4, Rendezvous: 2, Homes: 5, Mode: ModeMesh})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Providers) != 4 {
		t.Fatalf("providers = %d", len(o.Providers))
	}
}

func TestServiceName(t *testing.T) {
	if ServiceName(7) != "Svc-0007" {
		t.Fatalf("ServiceName = %q", ServiceName(7))
	}
}

func TestTTLSweepShape(t *testing.T) {
	rows, err := RunTTLSweep(1, 4, []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	byTTL := map[int]TTLRow{}
	for _, r := range rows {
		byTTL[r.TTL] = r
	}
	// TTL 1 cannot cross a 4-rendezvous chain; TTL 4 can.
	if byTTL[1].Success {
		t.Error("TTL 1 reached the far end of a 4-chain")
	}
	if !byTTL[4].Success {
		t.Error("TTL 4 failed to reach the far end of a 4-chain")
	}
	// Message cost is monotone in TTL until reach saturates.
	if byTTL[2].Messages < byTTL[1].Messages {
		t.Errorf("messages not monotone: ttl1=%d ttl2=%d", byTTL[1].Messages, byTTL[2].Messages)
	}
	var buf bytes.Buffer
	TTLTable(rows).Print(&buf)
	if !strings.Contains(buf.String(), "A1") {
		t.Fatal("table did not render")
	}
}
