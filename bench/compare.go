package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// loadSide reads one side of a comparison: a result file, or a directory of
// run-<i>.json files.
func loadSide(path string) ([]suiteResult, error) {
	paths := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "run-*.json")); err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("%s: no run-*.json files", path)
		}
		sort.Strings(paths)
	}
	var out []suiteResult
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var s suiteResult
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// values collects one end-to-end metric of one workload over a side's runs.
func values(side []suiteResult, workload, metric string) []float64 {
	var out []float64
	for _, s := range side {
		if m, ok := s.Workloads[workload].EndToEnd.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict is one row of a comparison.
type verdict struct {
	workload, metric string
	base, new        float64
	status           string // ok, regressed, unresolved
}

// judge applies a metric's bound to the two sides' medians. A side whose own
// runs spread wider than the bound cannot resolve a change of that size:
// the row is unresolved, not unchanged. So is a row without a base to take
// a share of. Differences below the metric's floor are no change at all,
// whatever share of a small base they are.
func judge(def metricDef, base, new []float64) (b, n float64, status string) {
	b, n = exactMedian(base), exactMedian(new)
	if b == 0 {
		return b, n, "unresolved"
	}
	worse := n - b
	if def.Better == "higher" {
		worse = -worse
	}
	if def.Floor > 0 && worse < def.Floor && iqr(base) < def.Floor && iqr(new) < def.Floor {
		return b, n, "ok"
	}
	if spread(base) > def.Bound || spread(new) > def.Bound {
		return b, n, "unresolved"
	}
	if worse/b > def.Bound {
		return b, n, "regressed"
	}
	return b, n, "ok"
}

// failedOps is the number of failed operations over a side's runs of one
// workload, both modes.
func failedOps(side []suiteResult, workload string) float64 {
	n := 0
	for _, s := range side {
		w := s.Workloads[workload]
		n += w.EndToEnd.Failed + w.PerLayer.Failed
	}
	return float64(n)
}

// failedRow is the workload's failed_ops row. Latencies and throughput are
// taken from correct operations only, so a side with failures can look
// faster: one failed operation on the new side is a regression, and a base
// with failures is nothing to compare against.
func failedRow(workload string, base, new []suiteResult) verdict {
	v := verdict{workload, "failed_ops", failedOps(base, workload), failedOps(new, workload), "ok"}
	switch {
	case v.new > 0:
		v.status = "regressed"
	case v.base > 0:
		v.status = "unresolved"
	}
	return v
}

func compareSides(base, new []suiteResult) []verdict {
	var out []verdict
	for _, w := range workloads {
		out = append(out, failedRow(w.name, base, new))
		for _, def := range endToEnd {
			b, n := values(base, w.name, def.Name), values(new, w.name, def.Name)
			if len(b) == 0 || len(n) == 0 {
				out = append(out, verdict{w.name, def.Name, 0, 0, "unresolved"})
				continue
			}
			bm, nm, st := judge(def, b, n)
			out = append(out, verdict{w.name, def.Name, bm, nm, st})
		}
	}
	return out
}

// compareMain prints one row per workload and end-to-end metric, and one for
// the workload's failed operations, and fails when any regressed.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("--compare takes two result files or directories: BASE NEW")
	}
	base, err := loadSide(args[0])
	if err != nil {
		return err
	}
	new, err := loadSide(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %-22s %14s %14s %8s  %s\n", "workload", "metric", "base", "new", "new/base", "verdict")
	regressed := 0
	for _, v := range compareSides(base, new) {
		ratio := 0.0
		if v.base != 0 {
			ratio = v.new / v.base
		}
		fmt.Printf("%-20s %-22s %14.6g %14.6g %8.4f  %s\n", v.workload, v.metric, v.base, v.new, ratio, v.status)
		if v.status == "regressed" {
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d row(s) regressed", regressed)
	}
	return nil
}
