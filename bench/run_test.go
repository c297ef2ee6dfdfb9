package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/datagen"
)

// smallConfig runs a workload at a tenth of its size for a fraction of a
// second: enough for every code path, too little for any number to mean
// anything.
var smallConfig = config{seed: 42, seconds: 0.5, small: true}

func checkMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("metric %s in %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
}

// Every workload, end to end: no failed operation, every end-to-end metric
// present with its unit and — as the contract demands of a bounded metric —
// not zero.
func TestSmokeTimed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runTimed(w, smallConfig)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v: an end-to-end metric must never be zero", name, m.Value)
				}
			}
		})
	}
}

// Every workload, traced. The decorators must not change the path: the
// fixed pass with tapped sources reports the same pushes, fetches, tuples,
// bytes, OQL queries and row fingerprint as with undecorated ones — a tap
// that hid an optional interface would reroute pushes through a fallback.
// The trace file must hold the spans the per-layer numbers were taken from.
func TestSmokeTracedAndPathEquivalence(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, tr, err := runTraced(w, smallConfig)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer)
			if tr.plainCost != tr.tappedCost {
				t.Errorf("counters with tapped sources %+v, undecorated %+v", tr.tappedCost, tr.plainCost)
			}
			if tr.plainRows != tr.tappedRows || tr.plainRows.n == 0 {
				t.Errorf("rows with tapped sources %v, undecorated %v", tr.tappedRows, tr.plainRows)
			}
			if tr.plainCost.pushes+tr.plainCost.fetches == 0 {
				t.Error("the fixed pass made no source call")
			}
			v := func(name string) float64 { return res.Metrics[name].Value }
			for _, name := range []string{"bench.samples", "bench.coverage_ratio", "wire.calls_per_op", "wire.self_ms_per_op"} {
				if v(name) <= 0 {
					t.Errorf("%s = %v, want it measured", name, v(name))
				}
			}
			for _, name := range []string{"bench.error_rate", "proc.goroutines_leaked", "wire.retries", "wire.redials", "route.failovers", "frontdoor.shed_count"} {
				if v(name) != 0 {
					t.Errorf("%s = %v, want 0", name, v(name))
				}
			}
			// What a workload has no layer for is not measured, not 0.
			if noPlanning := w.name == "feed_ingest_lookup"; res.unmeasured["mediator.plan_share"] != noPlanning {
				t.Errorf("mediator.plan_share unmeasured = %v, want %v", !noPlanning, noPlanning)
			}
			switch w.name {
			case "feed_ingest_lookup":
				if v("feed.ingest_scaling_ratio") <= 0 || v("feed.push_eq_us") <= 0 || v("feed.quarantined") <= 0 {
					t.Errorf("feed probes not taken: %v", res.Metrics)
				}
			default:
				if v("planlint.lint_us") <= 0 || v("xmlenc.parse_mb_s") <= 0 {
					t.Errorf("planning or codec probes not taken")
				}
			}
			if w.name == "point_frontdoor" || w.name == "q2_djoin" {
				if v("mediator.plan_share") <= 0 || v("mediator.compose_us") <= 0 || v("optimizer.optimize_us") <= 0 {
					t.Errorf("planning stages not measured")
				}
			}

			path := filepath.Join(t.TempDir(), "trace.json")
			if err := writeTrace(path, w.name, tr.spans); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var file struct{ Spans []span }
			if err := json.Unmarshal(b, &file); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(file.Spans, tr.spans) {
				t.Error("the trace file does not round-trip the spans")
			}
			ops := 0
			for _, s := range file.Spans {
				if s.Name == spanClientOp {
					ops++
				}
				if s.Parent < 0 || s.EndNS < s.StartNS {
					t.Fatalf("malformed span %+v", s)
				}
			}
			if float64(ops) != v("bench.samples") {
				t.Errorf("%d client.op spans in the trace, bench.samples = %v", ops, v("bench.samples"))
			}
		})
	}
}

// The corpora are pinned, the oracles are not fitted to them: on a corpus no
// workload uses they still give the answers the generator recorded for the
// paper's literals.
func TestOraclesHoldOnAnotherCorpus(t *testing.T) {
	p := datagen.DefaultParams(300)
	p.Seed = corpusSeed + 1
	if _, err := pointQueries(datagen.Generate(p)); err != nil {
		t.Error(err)
	}
}

// BENCHMARK.json declares what this package measures; the two must agree.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", file.Command, file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d declared as %+v, defined as %s: %s", i, file.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	declared := append([]metricDef{}, endToEnd...)
	for i := range declared {
		declared[i].Floor = 0 // BENCHMARK.json has no key for it
	}
	if !reflect.DeepEqual(file.EndToEnd, declared) {
		t.Errorf("end_to_end declared as\n%+v\ndefined as\n%+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer declared as\n%+v\ndefined as\n%+v", file.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
