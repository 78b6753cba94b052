package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it. That file is the
// one place where names, units, directions and bounds are written down;
// the driver computes values by name and reads the rest from there.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// From extra.json. Absolute: the bound is a difference, not a share.
	// Floor: a difference smaller than this is no change, whatever its
	// share. MinSamples: with fewer samples in a run the metric is left
	// out of result files and tables (the driver's result line, which must
	// carry every metric, keeps it).
	Absolute   bool    `json:"absolute"`
	Floor      float64 `json:"-"`
	MinSamples int     `json:"-"`
}

// moved says which end-to-end metrics, on which workloads, a per-layer
// metric is expected to move.
type moved struct {
	Metrics   []string `json:"metrics"`
	Workloads []string `json:"workloads"`
	Note      string   `json:"note"`
}

func (m moved) String() string {
	s := m.Note
	if len(m.Metrics) > 0 {
		s = strings.Join(m.Metrics, ", ") + " on " + strings.Join(m.Workloads, ", ")
		if m.Note != "" {
			s += " (" + m.Note + ")"
		}
	}
	return s
}

// extraSpec is extra.json: what the issue wants the specification to say
// and BENCHMARK.json's fixed shape cannot hold.
type extraSpec struct {
	EndToEnd   []metricDef        `json:"end_to_end"`
	Floors     map[string]float64 `json:"floors"`
	MinSamples map[string]int     `json:"min_samples"`
	Moves      map[string]moved   `json:"moves"`
}

//go:embed extra.json
var extraJSON []byte

type benchSpec struct {
	// root is the directory BENCHMARK.json was found in: the repo root.
	root       string
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
	// Reported is EndToEnd plus the end-to-end metrics of extra.json
	// (failed_ratio): what result files, tables and -compare go through.
	Reported []metricDef      `json:"-"`
	Moves    map[string]moved `json:"-"`
}

// loadSpec reads BENCHMARK.json from the working directory or the one
// above it (the driver runs from the repo root, `go run .` from bench/).
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		spec := benchSpec{root: dir}
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, w := range spec.Workloads {
			if findWorkload(w.Name) == nil {
				return nil, fmt.Errorf("BENCHMARK.json names workload %q, which the driver does not have", w.Name)
			}
		}
		var extra extraSpec
		if err := json.Unmarshal(extraJSON, &extra); err != nil {
			return nil, fmt.Errorf("extra.json: %w", err)
		}
		for i := range spec.EndToEnd {
			d := &spec.EndToEnd[i]
			d.Floor, d.MinSamples = extra.Floors[d.Name], extra.MinSamples[d.Name]
		}
		spec.Reported = append(append([]metricDef(nil), spec.EndToEnd...), extra.EndToEnd...)
		spec.Moves = extra.Moves
		return &spec, nil
	}
	return nil, firstErr
}

// dropThin removes from a run's result the metrics that rest on fewer
// samples than they need.
func (s *benchSpec) dropThin(res *runResult) {
	for _, d := range s.EndToEnd {
		if v, ok := res.Metrics[d.Name]; ok && v.N < d.MinSamples {
			delete(res.Metrics, d.Name)
		}
	}
}

func (s *benchSpec) outDir() string { return filepath.Join(s.root, "bench", "out") }

// commit is the revision the binary was built from: what the build
// stamped, or else (`go run` stamps nothing) what the checkout's .git says.
// A checkout that is not a repository has none.
func commit(root string) string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref // detached: HEAD holds the revision itself
	}
	if rev, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(rev))
	}
	return "unknown" // the ref is packed
}
