package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// A timed run sets the workload up repeatedly and reports the median as
// setup_s (the last set-up is the deployment measured): set-up takes between
// 4 ms and 0.1 s, and a single one would be the noisiest number reported. It
// repeats until setupBudget is spent, at least setupMin and at most setupMax
// times.
const (
	setupMin    = 5
	setupMax    = 200
	setupBudget = 1500 * time.Millisecond
)

// phase is a batch of completed operations.
type phase struct {
	samples []sample
	elapsed time.Duration
	// between is the part of elapsed a client spent between cycles, in
	// beginCycle, where no operation was in flight (mean over clients).
	between time.Duration
}

// tally counts attempted and failed operations over a whole run and keeps
// the first failures for the report.
type tally struct {
	attempted, failed int
	first             []string
}

func (t *tally) add(samples []sample) {
	for _, s := range samples {
		t.attempted++
		if s.failed != "" {
			t.failed++
			if len(t.first) < 3 {
				t.first = append(t.first, s.failed)
			}
		}
	}
}

// client runs one closed loop: operation i+1 is issued when operation i has
// returned. It runs exactly n operations when n > 0, and otherwise until the
// deadline has passed and a cycle boundary is reached. With a recorder every
// operation is a client.op span followed by its stage-by-stage replay. The
// time spent in beginCycle is returned beside the samples.
func client(w workload, inst instance, c, n int, deadline time.Time, rec *recorder) (out []sample, between time.Duration, err error) {
	cy, _ := inst.(cycler)
	rp, _ := inst.(replayer)
	for i := 0; ; i++ {
		if i%w.cycle == 0 {
			if (n > 0 && i >= n) || (n == 0 && !time.Now().Before(deadline)) {
				return out, between, nil
			}
			if cy != nil {
				start := time.Now()
				err := cy.beginCycle()
				between += time.Since(start)
				if err != nil {
					return out, between, err
				}
			}
		}
		var sp *openSpan
		if rec != nil {
			sp = rec.begin(spanClientOp, nil)
		}
		s := inst.op(c, i)
		if sp != nil {
			if s.failed != "" {
				sp.attr("error", s.failed)
			}
			sp.end()
		}
		out = append(out, s)
		if rec != nil && s.failed == "" {
			replayO2(inst, rec, sp.s.ID)
			if rp != nil {
				if err := rp.replay(i); err != nil {
					return out, between, err
				}
			}
		}
	}
}

// fixedPass runs the workload's fixed single-client pass and returns the
// per-operation cost counters over it.
func fixedPass(w workload, inst instance, t *tally) (phase, costs, error) {
	before := inst.costs()
	start := time.Now()
	samples, between, err := client(w, inst, 0, w.warmOps, time.Time{}, nil)
	t.add(samples)
	return phase{samples, time.Since(start), between}, inst.costs().sub(before), err
}

// timedPhase runs the given number of closed-loop clients for d.
func timedPhase(w workload, inst instance, clients int, d time.Duration, rec *recorder, t *tally) (phase, error) {
	per := make([][]sample, clients)
	between := make([]time.Duration, clients)
	errs := make([]error, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c], between[c], errs[c] = client(w, inst, c, 0, deadline, rec)
		}(c)
	}
	wg.Wait()
	ph := phase{elapsed: time.Since(start)}
	for c := range per {
		ph.samples = append(ph.samples, per[c]...)
		ph.between += between[c] / time.Duration(clients)
		if errs[c] != nil {
			return ph, errs[c]
		}
	}
	t.add(ph.samples)
	return ph, nil
}

// latencies returns the latencies and first-row times, in ms, of the
// operations that completed correctly.
func (p phase) latencies() (lat, first []float64) {
	for _, s := range p.samples {
		if s.failed != "" {
			continue
		}
		lat = append(lat, ms(s.latency))
		if s.firstRow > 0 {
			first = append(first, ms(s.firstRow))
		}
	}
	return lat, first
}

func (p phase) rows() digest {
	var d digest
	for _, s := range p.samples {
		d.merge(s.rows)
	}
	return d
}

// runTimed is a --trace 0 run: set-up (several times), the fixed pass, a
// forced collection, then the timed phase with no bench code on the path.
func runTimed(w workload, cfg config) (result, error) {
	w = w.sized(cfg)
	budget := setupBudget
	if cfg.small {
		budget = 0
	}
	var t tally
	var setups []float64
	var inst instance
	began := time.Now()
	for k := 0; k < setupMin || k < setupMax && time.Since(began) < budget; k++ {
		if inst != nil {
			inst.close()
		}
		// Every set-up starts from a collected heap: set-up is mostly
		// allocation, and what the previous deployment left behind would
		// otherwise decide when the collector runs.
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = w.setup(cfg, nil); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()

	_, cost, err := fixedPass(w, inst, &t)
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph, err := timedPhase(w, inst, w.clients, seconds(cfg.seconds), nil, &t)
	if err != nil {
		return result{}, err
	}
	runtime.ReadMemStats(&m1)

	lat, first := ph.latencies()
	ops := float64(len(lat))
	if ops == 0 {
		return result{}, fmt.Errorf("no operation completed: %v", t.first)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	warm := float64(w.warmOps)
	v := map[string]float64{
		"setup_s":              median(setups),
		"latency_p50_ms":       percentile(lat, 50),
		"latency_p90_ms":       percentile(lat, 90),
		"first_row_p50_ms":     percentile(first, 50),
		"throughput_ops_s":     ops / (ph.elapsed - ph.between).Seconds(),
		"source_calls_per_op":  float64(cost.pushes+cost.fetches) / warm,
		"bytes_shipped_per_op": float64(cost.bytes) / warm,
		"allocs_per_op":        float64(m1.Mallocs-m0.Mallocs) / ops,
		"alloc_bytes_per_op":   float64(m1.TotalAlloc-m0.TotalAlloc) / ops,
		"peak_rss_mb":          rss,
	}
	return t.result(endToEnd, v), nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func (t *tally) result(defs []metricDef, v map[string]float64) result {
	r := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed}
	r.fill(defs, v)
	return r
}

// tracedRun is what a --trace 1 run leaves behind besides its metrics.
type tracedRun struct {
	spans []span
	// The path-equivalence evidence: the fixed pass's counters and row
	// fingerprint with undecorated and with decorated sources.
	plainCost, tappedCost costs
	plainRows, tappedRows digest
}

// runTraced is a --trace 1 run. The same deployment is measured twice with
// one client: undecorated (fixed pass, then 3/10 of the run) and with every
// source tapped (fixed pass, then 4/10 of the run, each operation followed
// by its replay); the direct probes come last. The fixed passes must agree
// on every counter and on the rows, or the decorators changed the path.
func runTraced(w workload, cfg config) (result, tracedRun, error) {
	w = w.sized(cfg)
	var t tally
	var tr tracedRun
	goroutines := runtime.NumGoroutine()

	plain, err := w.setup(cfg, nil)
	if err != nil {
		return result{}, tr, fmt.Errorf("set-up: %w", err)
	}
	pass, cost, err := fixedPass(w, plain, &t)
	var base phase
	if err == nil {
		base, err = timedPhase(w, plain, 1, seconds(cfg.seconds*0.3), nil, &t)
	}
	plain.close()
	if err != nil {
		return result{}, tr, err
	}
	tr.plainCost, tr.plainRows = cost, pass.rows()

	rec := newRecorder()
	inst, err := w.setup(cfg, rec)
	if err != nil {
		return result{}, tr, fmt.Errorf("traced set-up: %w", err)
	}
	defer inst.close() // closing twice is harmless
	pass, cost, err = fixedPass(w, inst, &t)
	if err != nil {
		return result{}, tr, err
	}
	tr.tappedCost, tr.tappedRows = cost, pass.rows()
	if tr.tappedCost != tr.plainCost || tr.tappedRows != tr.plainRows {
		t.failed++
		t.first = append(t.first, fmt.Sprintf("decorated sources changed the path: counters %+v rows %v, undecorated %+v rows %v",
			tr.tappedCost, tr.tappedRows, tr.plainCost, tr.plainRows))
	}
	// The fixed pass ran untraced operations through the taps; only the
	// traced phase's spans are kept.
	rec.reset()

	sampler := startProcSampler()
	traced, err := timedPhase(w, inst, 1, seconds(cfg.seconds*0.4), rec, &t)
	gcShare, heapPeak := sampler.finish()
	if err != nil {
		return result{}, tr, err
	}

	pr := newProbes(rec)
	if p, ok := inst.(prober); ok {
		p.probe(pr)
	}
	if pr.err != nil {
		return result{}, tr, fmt.Errorf("probe: %w", pr.err)
	}
	inst.close()
	leaked := goroutinesLeft(goroutines)

	tr.spans = rec.snapshot()
	v := layerMetrics(tr.spans, traced, base)
	for k, x := range pr.values {
		v[k] = x
	}
	derive(v, w, tr.plainCost)
	v["proc.gc_cpu_share"] = gcShare
	v["proc.heap_live_peak_mb"] = heapPeak
	v["proc.goroutines_leaked"] = float64(leaked)
	v["bench.error_rate"] = float64(t.failed) / float64(t.attempted)
	return t.result(perLayer, v), tr, nil
}

// goroutinesLeft reports how many goroutines outlive tear-down, giving
// connection handlers a moment to see their sockets close.
func goroutinesLeft(before int) int {
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return 0
		}
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine() - before
}
