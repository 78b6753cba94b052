package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"wspeer"
	"wspeer/internal/engine"
	"wspeer/internal/soap"
	"wspeer/internal/telemetry"
	"wspeer/internal/wsdl"
	"wspeer/internal/xmlutil"
)

// The allocation benchmarks pin the invocation fast path (DESIGN.md §9):
// cached operation plans, compiled XSD codecs and pooled XML writers are
// only worth their complexity if allocs/op stays down, so the harness
// measures them the same way `go test -bench -benchmem` does — via
// testing.Benchmark — and emits machine-readable results a later run can
// be compared against.

// AllocBenchResult is one benchmark measurement, JSON-stable so baseline
// files survive across runs.
type AllocBenchResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func toResult(name string, r testing.BenchmarkResult) AllocBenchResult {
	return AllocBenchResult{
		Name:        name,
		N:           r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

func allocEchoDef() wspeer.ServiceDef {
	return wspeer.ServiceDef{
		Name: "Echo",
		Operations: []wspeer.OperationDef{{
			Name:       "echo",
			Func:       func(s string) string { return s },
			ParamNames: []string{"msg"},
		}},
	}
}

// RunAllocBenches measures the fast-path benchmarks in-process. Each
// closure mirrors the corresponding testing.B benchmark in bench_test.go.
func RunAllocBenches() ([]AllocBenchResult, error) {
	var out []AllocBenchResult
	var setupErr error

	// benchInvoke measures steady-state synchronous invocation.
	benchInvoke := func(name string, inv *wspeer.Invocation) error {
		ctx := context.Background()
		var invokeErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := inv.Invoke(ctx, "echo", wspeer.P("msg", "x")); err != nil {
					invokeErr = err
					b.FailNow()
				}
			}
		})
		out = append(out, toResult(name, r))
		return invokeErr
	}

	// HTTPInvoke: over real HTTP.
	{
		peer := wspeer.NewPeer()
		binding, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{})
		if err != nil {
			return nil, err
		}
		binding.Attach(peer)
		dep, err := peer.Server().Deploy(allocEchoDef())
		if err != nil {
			binding.Close()
			return nil, err
		}
		inv, err := peer.Client().NewInvocation(&wspeer.ServiceInfo{
			Name: "Echo", Endpoint: dep.Endpoint, Definitions: dep.Definitions,
		})
		if err == nil {
			err = benchInvoke("HTTPInvoke", inv)
		}
		binding.Close()
		if err != nil {
			return nil, err
		}
	}

	// P2PSInvoke: over pipes on the in-process overlay — request frame,
	// provider dispatch, reply frame, correlation on the reply pipe.
	{
		provider, consumer, closeAll, err := newP2PSPair()
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		_, err = provider.Server().DeployAndPublish(ctx, allocEchoDef())
		var info *wspeer.ServiceInfo
		if err == nil {
			info, err = locateP2PS(ctx, consumer, "Echo")
		}
		var inv *wspeer.Invocation
		if err == nil {
			inv, err = consumer.Client().NewInvocation(info)
		}
		if err == nil {
			err = benchInvoke("P2PSInvoke", inv)
		}
		closeAll()
		if err != nil {
			return nil, err
		}
	}

	// EngineDispatch: parse + dispatch + encode, no transport.
	eng := engine.New()
	svc, err := eng.Deploy(engine.ServiceDef{
		Name: "Echo",
		Operations: []engine.OperationDef{{
			Name: "echo", Func: func(s string) string { return s }, ParamNames: []string{"msg"},
		}},
	})
	if err != nil {
		return nil, err
	}
	defs, err := svc.WSDL(wsdl.TransportHTTP, "http://h/Echo")
	if err != nil {
		return nil, err
	}
	stub := engine.NewStub(defs, nil)
	req, _, err := stub.BuildRequest("echo", engine.P("msg", "hello"))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := eng.ServeRequest(ctx, "Echo", req)
			if err != nil || resp.Faulted {
				setupErr = fmt.Errorf("dispatch failed: %v", err)
				b.FailNow()
			}
		}
	})
	if setupErr != nil {
		return nil, setupErr
	}
	out = append(out, toResult("EngineDispatch", r))

	// StubGeneration: dynamic request construction straight to bytes.
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := stub.BuildRequest("echo", engine.P("msg", "hello")); err != nil {
				setupErr = err
				b.FailNow()
			}
		}
	})
	if setupErr != nil {
		return nil, setupErr
	}
	out = append(out, toResult("StubGeneration", r))

	// EnvelopeMarshal: envelope rendering through the pooled XML writer.
	env := soap.NewEnvelope()
	body := xmlutil.NewElement(xmlutil.N("urn:bench", "echo"))
	body.NewChild(xmlutil.N("urn:bench", "msg")).SetText("hello world")
	env.AddBodyElement(body)
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(env.Marshal()) == 0 {
				setupErr = fmt.Errorf("empty envelope")
				b.FailNow()
			}
		}
	})
	if setupErr != nil {
		return nil, setupErr
	}
	out = append(out, toResult("EnvelopeMarshal", r))

	return out, nil
}

// AllocBenchTable renders the fast-path allocation measurements.
func AllocBenchTable(rs []AllocBenchResult) *Table {
	t := &Table{
		ID:      "A3",
		Title:   "invocation fast path: time and allocations per operation",
		Columns: []string{"benchmark", "ns/op", "B/op", "allocs/op"},
		Notes: []string{
			"measured in-process via testing.Benchmark, equivalent to `go test -bench -benchmem`",
		},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			r.Name,
			fmt.Sprintf("%.0f", r.NsPerOp),
			fmt.Sprintf("%d", r.BytesPerOp),
			fmt.Sprintf("%d", r.AllocsPerOp),
		})
	}
	return t
}

// AllocBenchFile is the on-disk form of a benchmark result file: the
// measurements plus the telemetry spine's view of the same run — per-
// service call counts and latency quantiles straight from the always-on
// call table, cross-checking what testing.Benchmark measured from the
// outside.
type AllocBenchFile struct {
	Benchmarks []AllocBenchResult   `json:"benchmarks"`
	Throughput []ThroughputResult   `json:"throughput,omitempty"`
	Telemetry  *AllocBenchTelemetry `json:"telemetry,omitempty"`
}

// AllocBenchTelemetry is the spine snapshot embedded in a result file.
type AllocBenchTelemetry struct {
	// Calls carries per-(service, direction) counts and latency figures
	// (p50/p99 come from the call table's histogram buckets).
	Calls []telemetry.CallSnapshot `json:"calls"`
	// Counters is the hub's counter set at collection time.
	Counters map[string]int64 `json:"counters"`
}

// CollectBenchTelemetry captures the default hub after a bench run.
func CollectBenchTelemetry() *AllocBenchTelemetry {
	snap := telemetry.Default().Snapshot()
	return &AllocBenchTelemetry{Calls: snap.Calls, Counters: snap.Counters}
}

// WriteAllocBenchJSON saves results as a baseline/trajectory file in the
// wrapper form (benchmarks + throughput + telemetry). thr and tel may be
// nil — older baselines without throughput figures stay comparable.
func WriteAllocBenchJSON(path string, rs []AllocBenchResult, thr []ThroughputResult, tel *AllocBenchTelemetry) error {
	data, err := json.MarshalIndent(AllocBenchFile{Benchmarks: rs, Throughput: thr, Telemetry: tel}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadAllocBenchJSON loads a previously saved baseline. Both file forms
// are accepted: the original bare array of results and the current
// wrapper object carrying a telemetry snapshot alongside them.
func ReadAllocBenchJSON(path string) ([]AllocBenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var rs []AllocBenchResult
		if err := json.Unmarshal(data, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return rs, nil
	}
	var f AllocBenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Benchmarks, nil
}

// CompareAllocBenches checks current results against a baseline and
// returns one error per regression beyond tolerance (a fraction, e.g.
// 0.20 for 20%) in either ns/op or allocs/op. Benchmarks present in only
// one of the two sets are ignored: the comparison gates regressions, not
// coverage.
func CompareAllocBenches(baseline, current []AllocBenchResult, tolerance float64) []error {
	base := make(map[string]AllocBenchResult, len(baseline))
	for _, r := range baseline {
		base[r.Name] = r
	}
	var errs []error
	for _, cur := range current {
		b, ok := base[cur.Name]
		if !ok {
			continue
		}
		if b.NsPerOp > 0 && cur.NsPerOp > b.NsPerOp*(1+tolerance) {
			errs = append(errs, fmt.Errorf("%s: ns/op regressed %.0f -> %.0f (more than %.0f%%)",
				cur.Name, b.NsPerOp, cur.NsPerOp, tolerance*100))
		}
		if b.AllocsPerOp > 0 && float64(cur.AllocsPerOp) > float64(b.AllocsPerOp)*(1+tolerance) {
			errs = append(errs, fmt.Errorf("%s: allocs/op regressed %d -> %d (more than %.0f%%)",
				cur.Name, b.AllocsPerOp, cur.AllocsPerOp, tolerance*100))
		}
	}
	return errs
}
