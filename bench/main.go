// Command bench is the WSPeer benchmark: seven workloads, each measured
// end to end with tracing off and layer by layer in a separate traced
// run. See README.md for the metric definitions and BENCHMARK.json (repo
// root) for the names, units and bounds.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run, result JSON on the last line
//	bench                                             every workload, each in a fresh child process
//	bench -compare a.json b.json                      compare two result files against the bounds
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// warmupSeconds is the warm-up before every end-to-end pass: caches filled,
// connections open, plans compiled. Part of the run shape, not an option.
const warmupSeconds = 2

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	compare  bool
	// childSetup makes the process set the workload up once, say "ready"
	// at the first verified reply and exit: the child side of
	// measureSetups.
	childSetup bool
	// Not flags. main sets warmup to warmupSeconds, outDir to bench/out
	// and spawn, which has set-up timed in fresh child processes of this
	// binary; the smoke test, whose binary is not the driver, shortens
	// the warm-up, writes to a temporary directory and times one set-up in
	// process.
	warmup float64
	outDir string
	spawn  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: all, one child process each)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of payloads, names and arrival jitter")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.Float64Var(&o.seconds, "duration", 10, "alias of -seconds, for smoke runs")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, nothing of the benchmark in the call path; 1: per-layer metrics")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.BoolVar(&o.childSetup, "child-setup", false, "internal, not for users: how the driver starts the copies of itself in which it times set-up")
	flag.Parse()
	o.warmup, o.spawn = warmupSeconds, true

	var err error
	switch {
	case o.childSetup:
		err = setUpOnly(o)
	case o.compare:
		err = compareFiles(flag.Args())
	case o.workload != "":
		err = runOne(o)
	default:
		err = runSuite(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runResult is the full result of one run of one workload.
type runResult struct {
	Workload  string           `json:"workload"`
	Trace     int              `json:"trace"`
	Callers   int              `json:"callers"`
	Loop      string           `json:"loop"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Error     string           `json:"error,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	Open      *openCounts      `json:"open_loop,omitempty"`
	Budget    []budgetRow      `json:"budget,omitempty"`
	Env       environment      `json:"env"`
}

type environment struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	WarmupS    float64 `json:"warmup_s"`
	Placement  string  `json:"placement"`
}

func newEnvironment(o options, spec *benchSpec) environment {
	return environment{
		Commit:     commit(spec.root),
		Go:         runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       o.seed,
		Seconds:    o.seconds,
		WarmupS:    o.warmup,
		Placement:  "loopback, same process",
	}
}

// contractLine is the last line of a run's standard output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process and prints its result line.
func runOne(o options) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	o.outDir = spec.outDir()
	var res *runResult
	if o.trace == 0 {
		res, err = runUntraced(w, o)
	} else {
		res, err = runTraced(w, o)
	}
	if err != nil {
		return err
	}
	res.Env = newEnvironment(o, spec)
	defs, reported := spec.EndToEnd, spec.Reported
	if o.trace != 0 {
		defs, reported = spec.PerLayer, spec.PerLayer
	}
	for _, d := range reported {
		v := res.Metrics[d.Name] // a layer the workload does not use reads 0
		v.Unit = d.Unit
		res.Metrics[d.Name] = v
	}
	line := contractLine{
		Correct:   res.Failed == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   make(map[string]contractMetric, len(defs)),
	}
	for _, d := range defs {
		line.Metrics[d.Name] = contractMetric{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
	}
	spec.dropThin(res)
	if err := writeJSON(runFile(o.outDir, w.name, o.trace), res); err != nil {
		return err
	}
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed, first: %s\n", w.name, res.Failed, res.Attempted, res.Error)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if res.Failed > 0 {
		return fmt.Errorf("%s: failed_ratio > 0", w.name)
	}
	return nil
}

// runFile is where a run leaves its full result: segment spread, sample
// counts, environment.
func runFile(outDir, workload string, trace int) string {
	return filepath.Join(outDir, fmt.Sprintf("run-%s-trace%d.json", workload, trace))
}

func writeJSON(path string, v interface{}) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func loopOf(r *rig) string {
	if r.open != nil {
		return fmt.Sprintf("open, %.0f calls/s offered", overloadRate)
	}
	return fmt.Sprintf("closed, %d callers", r.callers)
}

// setUp builds a rig as far as its first verified reply.
func setUp(w *workload, cfg buildCfg) (*rig, error) {
	r := &rig{}
	if err := w.build(r, cfg); err != nil {
		r.close()
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if err := r.op(context.Background(), 0, 0); err != nil {
		r.close()
		return nil, fmt.Errorf("%s: first call: %w", w.name, err)
	}
	return r, nil
}

// goroutinesSettled waits briefly for goroutines of closed peers to exit
// and returns how many more run than before the rig was made.
func goroutinesSettled(before int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine() - before
}

// setUpOnly is the child side of the set-up measurement: it says so on
// standard output as soon as the first verified reply is in.
func setUpOnly(o options) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	r, err := setUp(w, buildCfg{seed: o.seed})
	if err != nil {
		return err
	}
	fmt.Println("ready")
	r.close()
	return nil
}

// Set-up is timed at least minSetups times, then until setupBudget has
// passed or maxSetups are done.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 1500 * time.Millisecond
)

// measureSetups times the workload's set-up in fresh processes, one after
// the other, from starting the process to its first verified reply:
// process start, peers, bindings, listeners, deploy, publish, locate,
// stub, first call — what a first reply costs a process that has done
// nothing yet.
func measureSetups(w *workload, o options) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setups []float64
	began := time.Now()
	for len(setups) < minSetups || (len(setups) < maxSetups && time.Since(began) < setupBudget) {
		cmd := exec.Command(self, "-child-setup", "-workload", w.name, "-seed", fmt.Sprint(o.seed))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, _ := bufio.NewReader(out).ReadString('\n') // an early exit shows in Wait
		took := time.Since(t0)
		if err := cmd.Wait(); err != nil || strings.TrimSpace(line) != "ready" {
			return nil, fmt.Errorf("%s: set-up process failed: %v", w.name, err)
		}
		setups = append(setups, took.Seconds())
	}
	return setups, nil
}

// runUntraced measures the end-to-end metrics. Nothing of the benchmark
// sits in the call path: no interceptor, no wrapping transport, no span
// collector.
func runUntraced(w *workload, o options) (*runResult, error) {
	var setups []float64
	if o.spawn {
		var err error
		if setups, err = measureSetups(w, o); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	r, err := setUp(w, buildCfg{seed: o.seed})
	if err != nil {
		return nil, err
	}
	if !o.spawn {
		setups = []float64{time.Since(t0).Seconds()}
	}
	pass, err := runPass(r, seconds(o.warmup), seconds(o.seconds))
	loop, callers := loopOf(r), r.callers
	r.close()
	if err != nil {
		return nil, err
	}

	res := &runResult{
		Workload: w.name, Callers: callers, Loop: loop,
		Attempted: pass.attempted, Failed: pass.failed, Metrics: pass.metrics, Open: pass.open,
	}
	if pass.firstErr != nil {
		res.Error = pass.firstErr.Error()
	}
	lo, hi := minMax(setups)
	res.Metrics["setup_s"] = value{Value: median(setups), Min: lo, Max: hi, N: len(setups), Segs: setups}
	res.Metrics["peak_rss_mb"] = single(peakRSSMB(), 1)
	res.Metrics["failed_ratio"] = single(float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted)
	return res, nil
}
