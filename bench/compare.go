package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// compareFiles compares two result files of full runs, metric by metric
// and workload by workload, against the bounds in BENCHMARK.json (and
// extra.json). It fails on any regression beyond its bound, which for the
// failed ratio is any rise.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two result files")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	var a, b suiteResult
	for i, dst := range []*suiteResult{&a, &b} {
		data, err := os.ReadFile(paths[i])
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, dst); err != nil {
			return fmt.Errorf("%s: %w", paths[i], err)
		}
	}
	byName := make(map[string]*runResult)
	for _, it := range b.Workloads {
		byName[it.Workload] = it.EndToEnd
	}
	regressions, unresolved := 0, 0
	for _, it := range a.Workloads {
		ra, rb := it.EndToEnd, byName[it.Workload]
		if ra == nil || rb == nil {
			return fmt.Errorf("%s: missing from one of the files", it.Workload)
		}
		fmt.Printf("\n== %s\n   %-22s %14s %14s %10s  verdict (bound)\n", it.Workload, "metric", "a", "b", "b worse by")
		for _, d := range spec.Reported {
			va, oka := ra.Metrics[d.Name]
			vb, okb := rb.Metrics[d.Name]
			if !oka || !okb {
				fmt.Printf("   %-22s omitted: fewer than %d samples in a run\n", d.Name, d.MinSamples)
				continue
			}
			verdict, worse := judge(d, va, vb)
			switch verdict {
			case "REGRESSION":
				regressions++
			case "unresolved":
				unresolved++
			}
			change := fmt.Sprintf("%+.1f%%", 100*worse)
			if d.Absolute {
				change = fmt.Sprintf("%+g", worse)
			}
			fmt.Printf("   %-22s %14s %14s %10s  %s (%s)\n", d.Name, num(va.Value), num(vb.Value), change, verdict, boundText(d))
		}
	}
	fmt.Printf("\n%d regressions, %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return fmt.Errorf("%d regressions beyond bound", regressions)
	}
	return nil
}

// judge returns the verdict on one pair and by what share of a's value b
// is worse (negative: better; for an absolute bound, by what difference).
// A pair within its bound whose within-run spread — the quartile distance
// of the segment values over their median, on either side — exceeds the
// bound is unresolved, not unchanged: the run could not have shown a change
// of the size the bound allows. A difference below the metric's floor is
// no change, whatever its share: a set-up of a few milliseconds moves by a
// quarter between two runs of one commit.
func judge(d metricDef, a, b value) (string, float64) {
	worse := b.Value - a.Value
	if d.Better == "higher" {
		worse = -worse
	}
	if d.Absolute {
		if worse > d.Bound {
			return "REGRESSION", worse
		}
		return "unchanged", worse
	}
	if a.Value == 0 {
		return "unresolved", 0
	}
	small := math.Abs(worse) < d.Floor
	worse /= a.Value
	switch {
	case worse > d.Bound && !small:
		return "REGRESSION", worse
	case worse < -d.Bound && !small:
		return "improved", worse
	}
	for _, v := range []value{a, b} {
		if !small && v.Value != 0 && quartileDistance(v.Segs)/v.Value > d.Bound {
			return "unresolved", worse
		}
	}
	return "unchanged", worse
}

// quartileDistance is the distance between the first and third quartile
// of vs, the quartiles taken as Python's statistics.quantiles(vs, n=4)
// takes them (0 for fewer than two values).
func quartileDistance(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	slices.Sort(s)
	at := func(q float64) float64 { // q-th quantile at position q*(n+1), 1-based
		pos := q * float64(len(s)+1)
		lo := min(max(int(pos), 1), len(s)-1)
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.75) - at(0.25)
}
