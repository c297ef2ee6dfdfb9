package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} // unsorted on purpose
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v, want the sample", got)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestSupportedNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{100, 90, true}, {99, 90, false}, {1000, 99, true}, {999, 99, false}, {150, 90, true}, {20, 50, true}, {19, 50, false}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4), the
// rule the benchmark's spread limit is stated in.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20}, 7.5, 22.5}, // the exclusive method extrapolates at n=2
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 5, 5, 5}, 5, 5},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{90, 100, 110, 100, 100, 95, 105, 100, 100, 100}); math.Abs(got-0.025) > 1e-12 {
		t.Errorf("spread = %v, want 0.025", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput", Better: "higher", Bound: 0.10}
	floored := metricDef{Name: "setup", Better: "lower", Bound: 0.25, Floor: 0.05}
	for _, c := range []struct {
		name      string
		def       metricDef
		base, new []float64
		want      string
	}{
		{"within bound", lower, []float64{100, 101, 99}, []float64{108, 109, 107}, "ok"},
		{"improved", lower, []float64{100}, []float64{50}, "ok"},
		{"worse than bound", lower, []float64{100, 101, 99}, []float64{112, 113, 111}, "regressed"},
		{"higher is better, dropped", higher, []float64{100}, []float64{85}, "regressed"},
		{"higher is better, rose", higher, []float64{100}, []float64{150}, "ok"},
		{"a side too noisy to tell", lower, []float64{80, 100, 125}, []float64{130, 131, 129}, "unresolved"},
		{"exact count moved", metricDef{Better: "lower", Bound: 0.01}, []float64{9, 9, 9}, []float64{10, 10, 10}, "regressed"},
		{"no base to take a share of", lower, []float64{0, 0, 0}, []float64{5, 5, 5}, "unresolved"},
		{"under the floor", floored, []float64{0.0019, 0.0024, 0.0025}, []float64{0.0031, 0.0032, 0.0030}, "ok"},
		{"over the floor", floored, []float64{0.100, 0.101, 0.099}, []float64{0.160, 0.161, 0.159}, "regressed"},
	} {
		if _, _, got := judge(c.def, c.base, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// Latencies and throughput are taken from correct operations only: a new
// side with a failed operation is a regression however fast it looks.
func TestCompareCountsFailedOperations(t *testing.T) {
	side := func(failed int) []suiteResult {
		run := result{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]measured{}}
		for _, d := range endToEnd {
			run.Metrics[d.Name] = measured{Value: 10, Unit: d.Unit}
		}
		s := suiteResult{Workloads: map[string]workloadResult{}}
		for _, w := range workloads {
			s.Workloads[w.name] = workloadResult{EndToEnd: run, PerLayer: result{Correct: true, Attempted: 100}}
		}
		return []suiteResult{s}
	}
	status := func(base, new []suiteResult) map[string]int {
		out := map[string]int{}
		for _, v := range compareSides(base, new) {
			out[v.status]++
		}
		return out
	}
	rows := len(workloads) * (len(endToEnd) + 1)
	if got := status(side(0), side(0)); got["ok"] != rows {
		t.Errorf("equal sides without failures: %v, want %d ok", got, rows)
	}
	if got := status(side(0), side(1)); got["regressed"] != len(workloads) {
		t.Errorf("a failed operation on the new side: %v, want %d regressed", got, len(workloads))
	}
	if got := status(side(1), side(0)); got["unresolved"] != len(workloads) || got["regressed"] != 0 {
		t.Errorf("a failed operation on the base side: %v, want %d unresolved", got, len(workloads))
	}
}
