package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// suiteTraceSeconds is the length of a traced run within a full suite;
// half of it is the traced pass itself.
const suiteTraceSeconds = 5

// suiteResult is the result file of a full run: every workload's
// end-to-end run and traced run.
type suiteResult struct {
	Env       environment  `json:"env"`
	Workloads []*suiteItem `json:"workloads"`
}

type suiteItem struct {
	Workload string     `json:"workload"`
	EndToEnd *runResult `json:"end_to_end"`
	Layers   *runResult `json:"per_layer"`
}

// runSuite runs every workload, each run in a fresh child process of this
// binary, so that the process-wide telemetry hub, the shared HTTP
// connection pool and the garbage collector start clean and the peak RSS
// is the workload's own.
func runSuite(o options) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	o.outDir = spec.outDir()
	self, err := os.Executable()
	if err != nil {
		return err
	}
	began := time.Now()
	suite := &suiteResult{Env: newEnvironment(o, spec)}
	failed := false
	for _, w := range spec.Workloads {
		item := &suiteItem{Workload: w.Name}
		suite.Workloads = append(suite.Workloads, item)
		for _, trace := range []int{0, 1} {
			secs := o.seconds
			if trace == 1 {
				secs = min(o.seconds, suiteTraceSeconds)
			}
			detail := runFile(o.outDir, w.Name, trace)
			os.Remove(detail) // the child writes it anew, or the run has no result
			cmd := exec.Command(self,
				"-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(secs),
				"-trace", fmt.Sprint(trace))
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %d): %v\n", w.Name, trace, err)
				failed = true
			}
			var res runResult
			data, err := os.ReadFile(detail)
			if err == nil {
				err = json.Unmarshal(data, &res)
			}
			if err != nil {
				return fmt.Errorf("%s (trace %d) left no result: %w", w.Name, trace, err)
			}
			if trace == 0 {
				item.EndToEnd = &res
				printEndToEnd(spec, &res)
			} else {
				item.Layers = &res
				printLayers(spec, &res)
			}
		}
	}
	path := filepath.Join(o.outDir, "result.json")
	if err := writeJSON(path, suite); err != nil {
		return err
	}
	fmt.Printf("\n%s written in %.0f s (%s; commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d)\n",
		path, time.Since(began).Seconds(), suite.Env.Placement, suite.Env.Commit, suite.Env.Go,
		suite.Env.NumCPU, suite.Env.GOMAXPROCS, suite.Env.Seed)
	if failed {
		return fmt.Errorf("at least one workload failed")
	}
	return nil
}

// num prints a value with three decimals, or six where three would lose it.
func num(v float64) string {
	if v != 0 && v > -1 && v < 1 {
		return fmt.Sprintf("%.6f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

func printEndToEnd(spec *benchSpec, res *runResult) {
	fmt.Printf("\n== %s  (%s; %s; %d attempted, %d failed)\n", res.Workload, res.Loop, res.Env.Placement, res.Attempted, res.Failed)
	if oc := res.Open; oc != nil {
		fmt.Printf("   offered %d  succeeded %d  late %d  shed %d  sched_shed %d  failed %d  (limit %s)\n",
			oc.Offered, oc.Succeeded, oc.Late, oc.Shed, oc.SchedShed, oc.Failed, overloadLimit)
	}
	fmt.Printf("   %-22s %14s %-6s %14s %14s %9s  bound\n", "end-to-end metric", "median", "unit", "seg min", "seg max", "samples")
	for _, d := range spec.Reported {
		v, ok := res.Metrics[d.Name]
		if !ok {
			fmt.Printf("   %-22s omitted: fewer than %d samples in a run\n", d.Name, d.MinSamples)
			continue
		}
		fmt.Printf("   %-22s %14s %-6s %14s %14s %9d  %s\n", d.Name, num(v.Value), d.Unit, num(v.Min), num(v.Max), v.N, boundText(d))
	}
}

// boundText prints a metric's bound: a share of the parent's value, with
// its floor if it has one, or an absolute difference.
func boundText(d metricDef) string {
	switch {
	case d.Absolute:
		return fmt.Sprintf("%g (absolute)", d.Bound)
	case d.Floor > 0:
		return fmt.Sprintf("max(%.0f%%, %g %s)", 100*d.Bound, d.Floor, d.Unit)
	}
	return fmt.Sprintf("%.0f%%", 100*d.Bound)
}

func printLayers(spec *benchSpec, res *runResult) {
	fmt.Printf("   -- per layer (traced run: %d ops)\n", res.Attempted)
	for _, d := range spec.PerLayer {
		v, ok := res.Metrics[d.Name]
		if !ok || v.N == 0 {
			continue // the workload does not use this layer
		}
		fmt.Printf("   %-38s %14s %-8s %9d samples  -> %s\n", d.Name, num(v.Value), d.Unit, v.N, spec.Moves[d.Name])
	}
	if len(res.Budget) > 0 {
		fmt.Printf("   -- budget of the traced op_p50_us (%.3f us); httpd.self_us and p2psbind.self_us are derived\n", res.Metrics["bench.traced_op_p50_us"].Value)
		for _, row := range res.Budget {
			fmt.Printf("   %-46s %12.3f us  %s\n", row.Name, row.Us, row.Source)
		}
	}
	// Span self times that are no metric of their own.
	var spans []string
	for name := range res.Metrics {
		if strings.HasPrefix(name, "span.") && strings.HasSuffix(name, ".self_us") {
			spans = append(spans, name)
		}
	}
	sort.Strings(spans)
	for _, name := range spans {
		v := res.Metrics[name]
		fmt.Printf("   %-46s %12.3f us  %d spans\n", name, v.Value, v.N)
	}
}
