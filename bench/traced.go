package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// budgetRow is one line of the latency budget of a workload's op.
type budgetRow struct {
	Name   string  `json:"name"`
	Us     float64 `json:"us"`
	Source string  `json:"source"`
}

// A traced run spends its -seconds in three parts: an untraced reference
// pass (what tracing costs is the difference to it), the traced pass on a
// second rig with the benchmark's interceptors, wrapping transport and
// handler timestamps installed, and the isolated calls into each layer.
const (
	refShare      = 0.2
	tracedShare   = 0.5
	isolatedShare = 0.3
	traceWarmup   = 0.1 // of -seconds, before each of the two passes
)

// unloadedOps is how many sequential calls give the overload workload's
// unloaded reference.
const unloadedOps = 40

func runTraced(w *workload, o options) (*runResult, error) {
	total := seconds(o.seconds)
	warm := time.Duration(float64(total) * traceWarmup)
	ls := newLayerSet()
	goroutines0 := runtime.NumGoroutine()

	// Untraced reference.
	ref, err := setUp(w, buildCfg{seed: o.seed})
	if err != nil {
		return nil, err
	}
	refPass, err := runPass(ref, warm, time.Duration(float64(total)*refShare))
	ref.close()
	if err != nil {
		return nil, err
	}

	// Traced pass.
	col, err := newCollector()
	if err != nil {
		return nil, err
	}
	defer col.free()
	r, err := setUp(w, buildCfg{seed: o.seed, col: col})
	if err != nil {
		return nil, err
	}
	var unloaded *traceSummary
	if r.open != nil {
		for i := 1; i <= unloadedOps; i++ {
			if err := r.op(context.Background(), 0, i); err != nil {
				r.close()
				return nil, fmt.Errorf("%s: unloaded call: %w", w.name, err)
			}
		}
		unloaded = col.summarize()
		col.from = int(col.next.Load())
	}
	defs0 := r.defsSeen.Load()
	pass, err := runPass(r, warm, time.Duration(float64(total)*tracedShare))
	if err != nil {
		r.close()
		return nil, err
	}
	sum := col.summarize()
	loop, callers := loopOf(r), r.callers

	res := &runResult{
		Workload: w.name, Trace: 1, Callers: callers, Loop: loop,
		Attempted: pass.attempted + refPass.attempted, Failed: pass.failed + refPass.failed,
		Open: pass.open,
	}
	for _, p := range []*passResult{refPass, pass} {
		if p.firstErr != nil && res.Error == "" {
			res.Error = p.firstErr.Error()
		}
	}
	if r.after != nil {
		r.after(ls, pass.attempted)
	}
	ls.set("exchange.table_len_after", float64(r.client.Client().ExchangeStats().Inflight), 1)
	if pass.executed > 0 {
		ls.set("wsdl.calls_per_op", float64(r.defsSeen.Load()-defs0)/float64(pass.executed), pass.executed)
	}

	// Isolated calls, those that need the rig's peers first.
	isoBudget := time.Duration(float64(total) * isolatedShare)
	per := isoBudget / (isolatedInstruments + 6)
	if r.iso != nil && col.captured.service != "" {
		r.iso.capReq = &col.captured.req
		r.iso.capResp = col.captured.resp
	}
	if r.alive != nil {
		r.alive(ls, 6*per)
	}
	iso := r.iso
	r.close()
	ls.set("bench.goroutines_leaked", float64(goroutinesSettled(goroutines0)), 1)
	if iso != nil {
		if iso.capReq != nil {
			if err := codecLayers(ls, iso, per); err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
		}
		if err := commonLayers(ls, iso, per); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}

	spanLayers(ls, sum)
	tracedP50 := pass.metrics["op_p50_us"]
	refP50 := refPass.metrics["op_p50_us"].Value
	ls.m["bench.traced_op_p50_us"] = tracedP50
	if refP50 > 0 {
		ls.set("bench.trace_overhead_pct", 100*(tracedP50.Value-refP50)/refP50, tracedP50.N)
	}
	ls.m["bench.cpu_us_per_op"] = refPass.metrics["cpu_us_per_op"]
	ls.set("bench.gc_cycles", float64(pass.gcCycles), 1)
	ls.set("bench.gc_pause_ms", pass.gcPauseMs, 1)
	ls.set("p2psbind.stalls", float64(pass.stalls+refPass.stalls), pass.attempted+refPass.attempted)
	if oc := pass.open; oc != nil {
		ls.set("bench.generator_lag_p99_us", oc.LagP99Us, oc.Offered)
		ls.set("core.sched_queue_max", float64(oc.QueueMax), oc.Offered)
		ls.set("core.sched_shed", float64(oc.SchedShed), oc.Offered)
		ls.set("resilience.shed_ratio", float64(oc.Shed)/float64(max(oc.Offered, 1)), oc.Offered)
		ls.set("resilience.inflight_max", float64(oc.InflightMax), oc.Offered)
		// Queue wait: what a loaded success takes beyond the handler and
		// beyond what the same call costs outside the handler unloaded.
		unloadedOverhead := median(unloaded.kinds[kOp].totalUs) - median(unloaded.kinds[kHandler].totalUs)
		ls.set("resilience.queue_wait_us", tracedP50.Value-ls.get("engine.handler_us")-unloadedOverhead, tracedP50.N)
	}
	res.Budget = budget(ls, sum, tracedP50.Value)
	res.Metrics = ls.m

	path := filepath.Join(o.outDir, "trace-"+w.name+".json")
	if err := col.writeTrace(path, w.name); err != nil {
		return nil, err
	}
	return res, nil
}

// spanLayers turns the bracketing spans into the per-layer values they
// define.
func spanLayers(ls *layerSet, sum *traceSummary) {
	ls.setSpread("core.invoke_self_us", sum.invokeSelfUs)
	ls.setSpread("core.sched_submit_us", sum.submitUs)
	ls.setSpread("engine.handler_us", sum.kinds[kHandler].totalUs)
	ls.setSpread("core.locate_us", sum.kinds[kLocate].totalUs)
	if len(sum.echoTransportUs) > 0 {
		name := "transport.mem_call_us"
		if sum.conns > 0 {
			name = "transport.http_call_us"
			ls.set("transport.conn_reuse_ratio", float64(sum.reused)/float64(sum.conns), sum.conns)
		}
		ls.setSpread(name, sum.echoTransportUs)
	}
	// Every span kind's duration and self time, for the budget table and
	// the result file.
	for k := spanKind(0); k < numKinds; k++ {
		ls.setSpread("span."+kindNames[k]+".total_us", sum.kinds[k].totalUs)
		ls.setSpread("span."+kindNames[k]+".self_us", sum.kinds[k].selfUs)
	}
}

// budget lays the traced op's median latency out over the layers on its
// blocking path. Rows come from bracketing spans on real calls, from
// isolated calls on the captured traffic, or are derived from those; the
// last row, bench.unaccounted_us, is what no row owns.
func budget(ls *layerSet, sum *traceSummary, tracedP50 float64) []budgetRow {
	var rows []budgetRow
	attributed := 0.0
	add := func(name, source string) {
		if ls.has(name) {
			rows = append(rows, budgetRow{name, ls.get(name), source})
			attributed += ls.get(name)
		}
	}
	inside := func(name, source string) { // a part of an earlier row, not added to the sum
		if ls.has(name) {
			rows = append(rows, budgetRow{"  " + name, ls.get(name), source})
		}
	}
	if ls.has("transport.http_call_us") && ls.has("transport.http_floor_us") {
		// The transport span splits into the net/http floor, the engine's
		// serve and, by subtraction, the host's own share.
		ls.set("httpd.self_us", ls.get("transport.http_call_us")-ls.get("transport.http_floor_us")-ls.get("engine.serve_us"), 1)
	}
	phased := sum.topLevel[kDeployPublish] > 0 || sum.topLevel[kLocate] > 0
	switch {
	case !phased && (ls.has("transport.http_call_us") || ls.has("transport.mem_call_us")):
		// Request/response through a client transport.
		add("core.invoke_self_us", "span")
		add("pipeline.client_chain_us", "isolated")
		add("engine.build_request_us", "isolated")
		add("transport.http_call_us", "span")
		add("transport.mem_call_us", "span")
		inside("transport.http_floor_us", "isolated")
		inside("httpd.self_us", "derived: http_call - http_floor - engine.serve")
		inside("engine.serve_us", "isolated")
		add("engine.decode_response_us", "isolated")
	case ls.has("p2ps.pipe_oneway_us"):
		// P2PS has no client transport seam; the binding's own share is
		// what the isolated rows leave of the op.
		codec := ls.get("engine.build_request_us") + ls.get("engine.decode_response_us")
		ls.set("p2psbind.self_us", tracedP50-2*ls.get("p2ps.pipe_oneway_us")-ls.get("engine.serve_us")-codec, 1)
		add("p2ps.pipe_oneway_us", "isolated, request hop")
		add("p2ps.pipe_oneway_us", "isolated, reply hop")
		add("engine.serve_us", "isolated")
		add("engine.build_request_us", "isolated")
		add("engine.decode_response_us", "isolated")
		add("p2psbind.self_us", "derived: op - 2 x pipe_oneway - engine.serve - client codec")
	default:
		// An op made of phases: the spans directly under the op tile it.
		for k := spanKind(0); k < numKinds; k++ {
			if sum.topLevel[k] > 0 {
				add("span."+kindNames[k]+".total_us", "span")
			}
		}
	}
	if ls.has("p2ps.discover_first_match_us") && tracedP50 > 0 {
		wait := tracedP50 - ls.get("p2ps.discover_first_match_us") - ls.get("p2psbind.fetch_definitions_us")
		ls.set("p2psbind.locate_window_wait_ratio", wait/tracedP50, 1)
		inside("p2ps.discover_first_match_us", "isolated")
		inside("p2psbind.fetch_definitions_us", "isolated")
	}
	ls.set("bench.unaccounted_us", tracedP50-attributed, 1)
	return append(rows, budgetRow{"bench.unaccounted_us", tracedP50 - attributed, "traced op_p50_us - attributed rows"})
}
