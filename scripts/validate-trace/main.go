// Command validate-trace checks a Chrome trace-event JSON export (the
// yat-mediator -trace-out file) for structural validity — an object with a
// non-trivial traceEvents array of complete ("X") events carrying a trace
// id — and optionally probes metrics endpoints for valid JSON snapshots.
// Used by scripts/smoke.sh so CI needs no jq/python.
//
// Usage:
//
//	validate-trace TRACE.json [http://host:port/metrics ...]
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

type traceFile struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: validate-trace TRACE.json [metrics-url ...]")
		os.Exit(2)
	}
	if err := validateTrace(os.Args[1]); err != nil {
		fmt.Fprintf(os.Stderr, "validate-trace: %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
	for _, url := range os.Args[2:] {
		if err := validateMetrics(url); err != nil {
			fmt.Fprintf(os.Stderr, "validate-trace: %s: %v\n", url, err)
			os.Exit(1)
		}
	}
}

func validateTrace(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	if len(tf.TraceEvents) < 2 {
		return fmt.Errorf("only %d trace events; expected a plan-shaped tree", len(tf.TraceEvents))
	}
	for i, ev := range tf.TraceEvents {
		if ev.Phase != "X" {
			return fmt.Errorf("event %d has phase %q, want complete events (X)", i, ev.Phase)
		}
		id, _ := ev.Args["trace_id"].(string)
		if !strings.HasPrefix(id, "t") {
			return fmt.Errorf("event %d (%s) lacks a trace id", i, ev.Name)
		}
	}
	fmt.Printf("%s: %d trace events, ok\n", path, len(tf.TraceEvents))
	return nil
}

func validateMetrics(url string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var snap map[string]any
	if err := json.Unmarshal(b, &snap); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	for _, key := range []string{"counters", "gauges", "histograms"} {
		if _, ok := snap[key]; !ok {
			return fmt.Errorf("snapshot lacks %q", key)
		}
	}
	fmt.Printf("%s: ok\n", url)
	return nil
}
