package mediator

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/tab"
)

// drainStream consumes a Stream to completion and returns the materialized
// rows plus the settled Result.
func drainStream(t *testing.T, s *Stream) (*tab.Tab, *Result) {
	t.Helper()
	out := tab.New(s.Cols()...)
	for c := range s.Chunks() {
		for _, r := range c.Rows {
			out.AddRow(r)
		}
	}
	res, err := s.Result()
	if err != nil {
		t.Fatalf("stream failed: %v", err)
	}
	return out, res
}

func TestStreamMidStreamKillAllowPartial(t *testing.T) {
	// A wrapper dying after the first chunks have streamed: AllowPartial
	// keeps the stream alive, hands over every row the live sources can
	// derive, and reports the outage in SourceErrors. The workload is big
	// enough that the O₂ branch spans several chunks, so the kill lands
	// while the works branch is still unopened.
	const n = 400
	poolsIdle := leakCheck(t)
	m, killWais := deployFaulty(t, n, nil, nil)
	full, err := m.ExecutePlan(context.Background(), crossSourceUnion(), ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if full.Tab.Len() <= 2*tab.DefaultStreamChunk {
		t.Fatalf("workload too small for a mid-stream kill: %d rows", full.Tab.Len())
	}

	s, err := m.StreamPlan(context.Background(), crossSourceUnion(),
		ExecOptions{Parallelism: 1, AllowPartial: true, StreamBuffer: tab.DefaultStreamChunk})
	if err != nil {
		t.Fatal(err)
	}
	got := tab.New(s.Cols()...)
	first := <-s.Chunks()
	if first == nil {
		t.Fatal("stream produced no chunk before the kill")
	}
	for _, r := range first.Rows {
		got.AddRow(r)
	}
	// The pump is at most one buffered chunk ahead: the union's second
	// branch (the works wrapper) has not been contacted yet. Take it down.
	killWais()
	for c := range s.Chunks() {
		for _, r := range c.Rows {
			got.AddRow(r)
		}
	}
	res, err := s.Result()
	if err != nil {
		t.Fatalf("AllowPartial stream failed outright after the kill: %v", err)
	}
	if got.Len() == 0 || got.Len() >= full.Tab.Len() {
		t.Fatalf("partial streamed rows = %d, want strictly between 0 and %d", got.Len(), full.Tab.Len())
	}
	if len(res.SourceErrors) != 1 || res.SourceErrors[0].Source != "xmlartwork" {
		t.Fatalf("SourceErrors = %v, want exactly xmlartwork", res.SourceErrors)
	}

	// Without AllowPartial the same stream surfaces the typed
	// unavailability error from Result.
	strict, err := m.StreamPlan(context.Background(), crossSourceUnion(), ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for range strict.Chunks() {
	}
	_, err = strict.Result()
	var ue *algebra.UnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("strict stream with a dead source = %v, want UnavailableError", err)
	}
	if ue.Source != "xmlartwork" {
		t.Errorf("unavailable source = %q, want xmlartwork", ue.Source)
	}
	poolsIdle(m)
}

func TestStreamCloseCancelsInFlightWrapper(t *testing.T) {
	// Abandoning a stream must tear down in-flight wrapper calls promptly:
	// the works wrapper is stalled by a long delay injector, the consumer
	// reads the fast O₂ branch and walks away; Close has to return well
	// before the delay elapses, proving cancellation reached the transport.
	const stall = 3 * time.Second
	waisInj := faults.New(faults.Config{Seed: 11, Rate: 1,
		Kinds: []faults.Kind{faults.Delay}, Delay: stall, After: setupExchanges})
	poolsIdle := leakCheck(t)
	m, _ := deployFaulty(t, faultWorkloadN, nil, waisInj)
	s, err := m.StreamPlan(context.Background(), crossSourceUnion(), ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	first := <-s.Chunks()
	if first == nil || first.Len() == 0 {
		t.Fatal("no rows from the live branch before abandoning")
	}
	// Give the pump a moment to run ahead into the stalled works branch.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	s.Close()
	if d := time.Since(start); d > 1500*time.Millisecond {
		t.Fatalf("Close took %v with a %v wrapper stall; cancellation did not propagate", d, stall)
	}
	poolsIdle(m)
}

func TestStreamTraceRecordsFirstRow(t *testing.T) {
	// EXPLAIN ANALYZE annotates spans with the time-to-first-row mark.
	m, _, _ := paperSetup(t)
	res, err := m.ExecuteContext(context.Background(), datagen.Q1Src,
		ExecOptions{Parallelism: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("traced run returned no trace")
	}
	if out := obs.Render(res.Trace); !strings.Contains(out, "first=") {
		t.Errorf("rendered trace lacks first-row marks:\n%s", out)
	}
}

func TestStreamOptionsValidated(t *testing.T) {
	m, _, _ := paperSetup(t)
	for _, bad := range []ExecOptions{
		{BatchChunk: -1},
		{StreamBuffer: -5},
	} {
		if _, err := m.ExecuteContext(context.Background(), datagen.Q1Src, bad); err == nil {
			t.Errorf("ExecuteContext accepted invalid options %+v", bad)
		}
		if _, err := m.StreamContext(context.Background(), datagen.Q1Src, bad); err == nil {
			t.Errorf("StreamContext accepted invalid options %+v", bad)
		}
		if _, err := m.ExecutePlan(context.Background(), crossSourceUnion(), bad); err == nil {
			t.Errorf("ExecutePlan accepted invalid options %+v", bad)
		}
	}
}
