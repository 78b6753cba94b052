package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// layersUsed lists, per workload, the per-layer metrics that must carry a
// measurement (not the 0 of an unused layer).
var layersUsed = map[string][]string{
	"http_echo_small": {"xsd.encode_us", "xmlutil.parse_us", "soap.marshal_us", "engine.serve_us", "engine.handler_us",
		"core.invoke_self_us", "transport.http_call_us", "transport.http_floor_us", "transport.conn_reuse_ratio",
		"httpd.self_us", "httpd.deploy_first_us", "pipeline.client_chain_us", "telemetry.record_call_us",
		"resilience.admit_us", "exchange.register_resolve_us", "bench.unaccounted_us", "bench.trace_overhead_pct", "bench.cpu_us_per_op"},
	"http_records_large": {"xsd.encode_us", "xsd.decode_us", "xsd.allocs_per_value", "xmlutil.parse_mb_per_s",
		"engine.build_request_us", "engine.decode_response_us", "transport.http_call_us"},
	"mem_echo_small":  {"transport.mem_call_us", "core.invoke_self_us", "engine.serve_us", "pipeline.server_chain_us"},
	"p2ps_echo_small": {"p2ps.pipe_oneway_us", "p2ps.frames_per_op", "p2psbind.self_us", "wsaddr.headers_us", "engine.serve_us"},
	"p2ps_locate":     {"p2ps.discover_first_match_us", "p2psbind.fetch_definitions_us", "p2psbind.locate_window_wait_ratio", "core.locate_us", "wsdl.calls_per_op"},
	"http_lifecycle":  {"core.locate_us", "uddi.publish_us", "uddi.find_us", "wsdl.calls_per_op", "wsdl.generate_us", "engine.deploy_us", "transport.http_call_us"},
	"http_overload_open": {"core.sched_submit_us", "resilience.shed_ratio", "resilience.inflight_max", "resilience.queue_wait_us",
		"httpd.refuse_us", "engine.handler_us", "bench.generator_lag_p99_us"},
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// the shape of what comes out — never a timing.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(spec.Workloads), len(workloads))
	}
	for _, defs := range [][]metricDef{spec.EndToEnd, spec.PerLayer} {
		for _, d := range defs {
			if !metricName.MatchString(d.Name) {
				t.Errorf("metric name %q is malformed", d.Name)
			}
		}
	}
	// extra.json says of every per-layer metric what it should move, in
	// names that exist.
	isMetric, isWorkload := make(map[string]bool), make(map[string]bool)
	for _, d := range spec.Reported {
		isMetric[d.Name] = true
	}
	for _, w := range spec.Workloads {
		isWorkload[w.Name] = true
	}
	if len(spec.Moves) != len(spec.PerLayer) {
		t.Errorf("extra.json says what %d per-layer metrics move, BENCHMARK.json has %d", len(spec.Moves), len(spec.PerLayer))
	}
	for _, d := range spec.PerLayer {
		m, ok := spec.Moves[d.Name]
		if !ok || m.String() == "" || (len(m.Metrics) == 0) != (len(m.Workloads) == 0) {
			t.Errorf("extra.json does not say what %s moves", d.Name)
		}
		for _, name := range m.Metrics {
			if !isMetric[name] {
				t.Errorf("extra.json: %s moves %q, which is no end-to-end metric", d.Name, name)
			}
		}
		for _, name := range m.Workloads {
			if !isWorkload[name] {
				t.Errorf("extra.json: %s moves %q, which is no workload", d.Name, name)
			}
		}
	}
	out := t.TempDir()
	for _, sw := range spec.Workloads {
		w := findWorkload(sw.Name)
		began := time.Now()
		o := options{workload: w.name, seed: 7, seconds: 0.3, warmup: 0.1, outDir: out}
		res, err := runUntraced(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: %d of %d ops failed: %s", w.name, res.Failed, res.Attempted, res.Error)
		}
		// The driver's result line carries every metric of BENCHMARK.json,
		// the result file those of extra.json too; all but the failed
		// ratio are never 0.
		for _, d := range spec.Reported {
			if d.Absolute {
				continue
			}
			if v, ok := res.Metrics[d.Name]; !ok || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s missing or not positive: %+v", w.name, d.Name, v)
			}
		}
		// The result file leaves out a percentile that rests on too few
		// samples, and has the failed ratio.
		samples := res.Metrics["op_p99_us"].N
		spec.dropThin(res)
		if _, ok := res.Metrics["op_p99_us"]; ok != (samples >= 1000) {
			t.Errorf("%s: op_p99_us reported = %v with %d samples", w.name, ok, samples)
		}
		if v, ok := res.Metrics["failed_ratio"]; !ok || v.Value != 0 {
			t.Errorf("%s: failed_ratio missing or not 0: %+v", w.name, v)
		}

		o.seconds = 1 // half of it is the traced pass: two 250 ms locates
		traced, err := runTraced(w, o)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if traced.Failed != 0 {
			t.Errorf("%s traced: %d ops failed: %s", w.name, traced.Failed, traced.Error)
		}
		known := make(map[string]bool)
		for _, d := range spec.PerLayer {
			known[d.Name] = true
		}
		for _, name := range layersUsed[w.name] {
			if !known[name] {
				t.Errorf("%s: %s is not in BENCHMARK.json", w.name, name)
			}
			if v, ok := traced.Metrics[name]; !ok || v.N == 0 {
				t.Errorf("%s: per-layer metric %s was not measured", w.name, name)
			}
		}
		checkTraceFile(t, filepath.Join(out, "trace-"+w.name+".json"))
		t.Logf("%s: %.1f s", w.name, time.Since(began).Seconds())
	}
}

// checkTraceFile parses a trace file and checks that every span has a
// parent in the file, of the same op, or is a root.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var file struct {
		Spans []traceSpanJSON `json:"spans"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	if len(file.Spans) == 0 {
		t.Errorf("%s: no spans", path)
	}
	for i, s := range file.Spans {
		if s.ID != i || s.EndNs < s.StartNs {
			t.Errorf("%s: span %d malformed: %+v", path, i, s)
			return
		}
		if s.Parent == -1 {
			continue
		}
		if s.Parent < 0 || s.Parent >= len(file.Spans) || file.Spans[s.Parent].Op != s.Op {
			t.Errorf("%s: span %d has no parent in its op: %+v", path, i, s)
			return
		}
	}
}
