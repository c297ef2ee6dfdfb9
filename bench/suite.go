package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// environment records where a suite ran.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// workloadResult is both runs of one workload.
type workloadResult struct {
	Clients  int    `json:"clients"`
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

// suiteResult is one run of the whole benchmark (result.json, run-<i>.json).
type suiteResult struct {
	Env       environment               `json:"env"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Loop      string                    `json:"loop"`
	Workloads map[string]workloadResult `json:"workloads"`
}

func currentEnv() environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit}
}

// all runs every workload in both modes, each in a fresh child process of
// this binary so that peak RSS and heap figures belong to one workload, and
// writes result.json (or run-<i>.json with --repeat).
func all(cfg config, repeat int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	failed := false
	for r := 1; r <= repeat; r++ {
		suite := suiteResult{Env: currentEnv(), Seed: cfg.seed, Seconds: cfg.seconds,
			Loop: "closed", Workloads: map[string]workloadResult{}}
		for _, w := range workloads {
			wr := workloadResult{Clients: w.clients}
			for trace, into := range []*result{&wr.EndToEnd, &wr.PerLayer} {
				res, err := child(self, w.name, cfg, trace)
				if err != nil {
					return fmt.Errorf("%s --trace %d: %w", w.name, trace, err)
				}
				*into = res
				failed = failed || !res.Correct
			}
			suite.Workloads[w.name] = wr
		}
		name := "result.json"
		if repeat > 1 {
			name = fmt.Sprintf("run-%d.json", r)
		}
		b, err := json.MarshalIndent(suite, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(outDir, name)
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	if failed {
		return fmt.Errorf("operations failed; see the result lines above")
	}
	return nil
}

// child runs one workload in one mode in a child process, passing its
// report through, and parses the result line.
func child(self, name string, cfg config, trace int) (result, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(cfg.seed),
		"--seconds", fmt.Sprint(cfg.seconds), "--trace", fmt.Sprint(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	os.Stdout.Write(out.Bytes())
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("no result line: %w", err)
	}
	// The result line gives a metric that was not measured as 0; the report
	// lines above it say which those are.
	for _, line := range lines[:len(lines)-1] {
		if f := strings.Fields(line); len(f) == 3 && f[1] == notMeasured {
			delete(res.Metrics, f[0])
		}
	}
	return res, nil // a run with failed operations still reports; the caller sees Correct
}
