// Command bench is the repository's benchmark: four pinned workloads over
// the YAT mediator stack, each measured end to end with no bench code on the
// path (--trace 0) and layer by layer through timing decorators and direct
// probes (--trace 1), every answer checked against an oracle computed from
// the generators' ground truth. See README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//	bash bench/run.sh [--seed N] [--seconds S] [--repeat N]      all workloads, both modes
//	bash bench/run.sh --compare BASE NEW                          apply BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// notMeasured stands in the report for the value of a metric the run did not
// take: its layer is not on the workload's path, or it had too few samples.
const notMeasured = "n/a"

// outDir is where result and trace files go, relative to the repository
// root the benchmark is started from.
const outDir = "bench/out"

func main() {
	// The sandbox has two cores; pinning the scheduler to two makes a run
	// on a larger machine measure the same configuration.
	runtime.GOMAXPROCS(2)
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: all four, each in a child process)")
		seed    = flag.Int64("seed", 42, "seed of the operation order and the lookup keys")
		secs    = flag.Float64("seconds", 20, "length of the measured phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, sources undecorated; 1: per-layer metrics, sources tapped")
		repeat  = flag.Int("repeat", 1, "without --workload: run everything this many times, into run-<i>.json")
		compare = flag.Bool("compare", false, "compare two result files or directories: --compare BASE NEW")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *secs}
	var err error
	switch {
	case *compare:
		err = compareMain(flag.Args())
	case *name != "":
		err = single(*name, cfg, *trace == 1)
	default:
		err = all(cfg, *repeat)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// single runs one workload in this process, prints every metric by name and
// unit, and ends with the result line.
func single(name string, cfg config, traced bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	var res result
	var err error
	if traced {
		var tr tracedRun
		if res, tr, err = runTraced(w, cfg); err == nil {
			err = os.MkdirAll(outDir, 0o755)
		}
		if err == nil {
			err = writeTrace(filepath.Join(outDir, "trace-"+name+".json"), name, tr.spans)
		}
	} else {
		res, err = runTimed(w, cfg)
	}
	if err != nil {
		return err
	}
	fmt.Printf("workload %s  seed %d  %gs measured  closed loop, %d client(s)  traced=%v\n",
		name, cfg.seed, cfg.seconds, w.clients, traced)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		value := fmt.Sprintf("%.6g", res.Metrics[n].Value)
		if res.unmeasured[n] {
			value = notMeasured
		}
		fmt.Printf("  %-28s %14s %s\n", n, value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}
