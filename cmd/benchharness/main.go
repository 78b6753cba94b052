// Command benchharness regenerates every experiment indexed in DESIGN.md
// (E1-E10, E13): the measured reproductions of the WSPeer paper's process
// figures and qualitative performance claims. Run everything:
//
//	benchharness
//
// or individual experiments at custom scales:
//
//	benchharness -experiments E5,E6 -peers 64,256,1024 -queries 200
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"wspeer/internal/experiments"
	"wspeer/internal/telemetry"
)

func main() {
	which := flag.String("experiments", "all", "comma-separated experiment IDs (E1..E10, E13, A1, R1, R2) or 'all'")
	seed := flag.Int64("seed", 42, "deterministic seed for simulated experiments")
	peersFlag := flag.String("peers", "32,128,512", "network sizes for E5 (comma-separated)")
	queries := flag.Int("queries", 100, "queries per configuration for E5/E6")
	churnPeers := flag.Int("churn-peers", 128, "network size for E6")
	churnReps := flag.Int("churn-reps", 3, "repetitions averaged for E6")
	services := flag.Int("services", 64, "service population for E7")
	iters := flag.Int("iters", 2000, "iterations for microbenchmark experiments")
	snapshotJSON := flag.String("snapshot", "", "after the run, write the telemetry snapshot (counters, call table, flight-recorder stats) to this JSON file")
	flag.Parse()

	wanted := map[string]bool{}
	if *which == "all" {
		for i := 1; i <= 10; i++ {
			wanted[fmt.Sprintf("E%d", i)] = true
		}
		wanted["E13"] = true
		wanted["A1"] = true
		wanted["R1"] = true
		wanted["R2"] = true
	} else {
		for _, id := range strings.Split(*which, ",") {
			wanted[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	var sizes []int
	for _, s := range strings.Split(*peersFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 4 {
			log.Fatalf("benchharness: bad -peers entry %q", s)
		}
		sizes = append(sizes, n)
	}

	fmt.Printf("WSPeer experiment harness (seed %d)\n", *seed)
	start := time.Now()

	if wanted["E1"] {
		r, err := experiments.RunEvents(*iters * 10)
		check(err)
		experiments.EventsTable(r).Print(os.Stdout)
	}
	if wanted["E2"] {
		r, err := experiments.RunHTTPLifecycle([]int{1, 8, 32}, 400)
		check(err)
		experiments.LifecycleTable("E2", r).Print(os.Stdout)
	}
	if wanted["E3"] {
		r, err := experiments.RunP2PSLifecycle([]int{1, 8, 32}, 400)
		check(err)
		experiments.LifecycleTable("E3", r).Print(os.Stdout)
	}
	if wanted["E4"] {
		r, err := experiments.RunPipeSteps(1000)
		check(err)
		experiments.PipeStepsTable(r).Print(os.Stdout)
	}
	if wanted["E5"] {
		rows, err := experiments.RunDiscoveryScaling(*seed, sizes)
		check(err)
		experiments.DiscoveryScalingTable(rows).Print(os.Stdout)
	}
	if wanted["E6"] {
		rows, err := experiments.RunChurn(*seed, *churnPeers, []float64{0, 0.1, 0.25, 0.5, 0.75}, *queries, *churnReps)
		check(err)
		experiments.ChurnTable(rows).Print(os.Stdout)
	}
	if wanted["E7"] {
		r, err := experiments.RunSyncVsAsync(*seed, *services, 20*time.Millisecond)
		check(err)
		experiments.SyncAsyncTable(r).Print(os.Stdout)
	}
	if wanted["E8"] {
		r, err := experiments.RunStubComparison(*iters)
		check(err)
		experiments.StubTable(r).Print(os.Stdout)
	}
	if wanted["E9"] {
		r, err := experiments.RunDeploy(256)
		check(err)
		experiments.DeployTable(r).Print(os.Stdout)
	}
	if wanted["E10"] {
		r, err := experiments.RunStateful(*iters)
		check(err)
		experiments.StatefulTable(r).Print(os.Stdout)
	}
	if wanted["A1"] {
		rows, err := experiments.RunTTLSweep(*seed, 6, []int{1, 2, 3, 4, 5, 6, 8})
		check(err)
		experiments.TTLTable(rows).Print(os.Stdout)
	}
	if wanted["R1"] {
		rows, err := experiments.RunResilienceSweep(*seed, 300, []float64{0, 0.1, 0.3})
		check(err)
		experiments.ResilienceTable(rows).Print(os.Stdout)
	}
	if wanted["R2"] {
		rows, err := experiments.RunHedgeSweep(*seed, 200)
		check(err)
		experiments.HedgeTable(rows).Print(os.Stdout)
	}
	if wanted["E13"] {
		rs, err := experiments.RunExchangePatterns()
		check(err)
		experiments.ExchangePatternsTable(rs).Print(os.Stdout)
	}

	if *snapshotJSON != "" {
		doc := struct {
			Telemetry telemetry.Snapshot      `json:"telemetry"`
			Flight    telemetry.RecorderStats `json:"flight"`
		}{telemetry.Default().Snapshot(), telemetry.Default().Flight.Stats()}
		raw, err := json.MarshalIndent(doc, "", "  ")
		check(err)
		check(os.WriteFile(*snapshotJSON, append(raw, '\n'), 0o644))
		fmt.Printf("wrote %s\n", *snapshotJSON)
	}

	fmt.Printf("\nharness completed in %s\n", time.Since(start).Round(time.Millisecond))
}

func check(err error) {
	if err != nil {
		log.Fatalf("benchharness: %v", err)
	}
}
