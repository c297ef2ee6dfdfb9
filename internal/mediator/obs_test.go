package mediator

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/o2wrap"
	"repro/internal/obs"
	"repro/internal/waiswrap"
	"repro/internal/wire"
)

// statsCounts projects the traced slice of algebra.Stats into obs.Counts for
// exact comparison with a trace's TreeCounts.
func statsCounts(s algebra.Stats) obs.Counts {
	return obs.Counts{
		Fetches:     s.SourceFetches,
		Pushes:      s.SourcePushes,
		Tuples:      s.TuplesShipped,
		CacheHits:   s.CacheHits,
		CacheMisses: s.CacheMisses,
		Retries:     s.Retries,
		Redials:     s.Redials,
	}
}

// TestProfileSumsMatchStats is the tracing subsystem's accounting
// invariant (the paper-facing acceptance criterion): for Fig. 9's Q2 over
// live wire wrappers, the per-node counts of the span tree sum to the
// query's global Stats exactly — no double counting, no dropped work — on
// every schedule (serial/parallel × batched/one-binding-per-push DJoin).
func TestProfileSumsMatchStats(t *testing.T) {
	m, _ := deployFaulty(t, faultWorkloadN, nil, nil)
	modes := []struct {
		name string
		opts ExecOptions
	}{
		{"serial-batched", ExecOptions{Parallelism: 1}},
		{"serial-per-binding", ExecOptions{Parallelism: 1, BatchChunk: 1}},
		{"parallel-batched", ExecOptions{Parallelism: 8, Timeout: time.Minute}},
		{"parallel-per-binding", ExecOptions{Parallelism: 8, BatchChunk: 1, Timeout: time.Minute}},
	}
	for _, mode := range modes {
		opts := mode.opts
		opts.Trace = true
		res, err := m.ExecuteContext(context.Background(), datagen.Q2Src, opts)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if res.Trace == nil {
			t.Fatalf("%s: Trace requested but Result.Trace is nil", mode.name)
		}
		if res.Trace.SpanCount() < 2 {
			t.Fatalf("%s: trace has %d spans; expected a plan-shaped tree", mode.name, res.Trace.SpanCount())
		}
		if got, want := res.Trace.Rows, res.Tab.Len(); got != want {
			t.Errorf("%s: root span rows = %d, result rows = %d", mode.name, got, want)
		}
		if got, want := res.Trace.TreeCounts(), statsCounts(res.Stats); got != want {
			t.Errorf("%s: span tree counts %+v != global stats %+v", mode.name, got, want)
		}
	}
}

// TestStatsConsistencyAcrossSchedules pins the Stats counters across DJoin
// schedules: batched and one-binding-per-push runs each return identical
// rows and identical counters whether evaluated serially or in parallel,
// and enabling tracing changes no counter (tracing observes the
// evaluation; it must not alter it).
func TestStatsConsistencyAcrossSchedules(t *testing.T) {
	m, _ := deployFaulty(t, faultWorkloadN, nil, nil)
	ctx := context.Background()
	for _, mode := range []struct {
		name  string
		chunk int
	}{{"batched", 0}, {"per-binding", 1}} {
		serial, err := m.ExecuteContext(ctx, datagen.Q2Src, ExecOptions{Parallelism: 1, BatchChunk: mode.chunk})
		if err != nil {
			t.Fatalf("%s serial: %v", mode.name, err)
		}
		par, err := m.ExecuteContext(ctx, datagen.Q2Src, ExecOptions{Parallelism: 8, BatchChunk: mode.chunk, Timeout: time.Minute})
		if err != nil {
			t.Fatalf("%s parallel: %v", mode.name, err)
		}
		traced, err := m.ExecuteContext(ctx, datagen.Q2Src, ExecOptions{Parallelism: 1, BatchChunk: mode.chunk, Trace: true})
		if err != nil {
			t.Fatalf("%s traced: %v", mode.name, err)
		}
		if !serial.Tab.Equal(par.Tab) || !serial.Tab.Equal(traced.Tab) {
			t.Errorf("%s: rows diverge across serial/parallel/traced", mode.name)
		}
		if serial.Stats != par.Stats {
			t.Errorf("%s: serial stats %+v != parallel stats %+v", mode.name, serial.Stats, par.Stats)
		}
		if serial.Stats != traced.Stats {
			t.Errorf("%s: tracing changed the counters: %+v != %+v", mode.name, serial.Stats, traced.Stats)
		}
	}
	// The two modes must agree on rows but differ in push accounting
	// (batching is the point); sanity-check the workload exercises it.
	batched, _ := m.ExecuteContext(ctx, datagen.Q2Src, ExecOptions{Parallelism: 1})
	perBinding, _ := m.ExecuteContext(ctx, datagen.Q2Src, ExecOptions{Parallelism: 1, BatchChunk: 1})
	if !batched.Tab.Equal(perBinding.Tab) {
		t.Error("batched and per-binding DJoin disagree on rows")
	}
	if perBinding.Stats.SourcePushes < 5*batched.Stats.SourcePushes {
		t.Errorf("batched pushes (%d) should undercut per-binding pushes (%d) at least fivefold",
			batched.Stats.SourcePushes, perBinding.Stats.SourcePushes)
	}
}

// deployObserved mirrors deployFaulty with a wire Observer attached to each
// wrapper server, so tests can read the request spans the wrappers record.
func deployObserved(t *testing.T, n int) (*Mediator, []*obs.Observer) {
	t.Helper()
	w := datagen.Generate(datagen.DefaultParams(n))
	ow := o2wrap.New("o2artifact", w.DB)
	schema := ow.ExportSchema()
	ww := waiswrap.New("xmlartwork", datagen.NewWaisEngine(w.Works))
	exps := []wire.Exported{
		{Source: ow, Interface: ow.ExportInterface(),
			Structures: map[string]wire.StructureRef{
				"artifacts": {Model: schema, Pattern: "Artifact"},
				"persons":   {Model: schema, Pattern: "Person"},
			}},
		{Source: ww, Interface: ww.ExportInterface(),
			Structures: map[string]wire.StructureRef{
				"works": {Model: ww.ExportStructure(), Pattern: "Works"},
			}},
	}
	m := New()
	var observers []*obs.Observer
	for i := range exps {
		exps[i].Obs = obs.NewObserver(nil)
		observers = append(observers, exps[i].Obs)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := wire.Serve(ln, exps[i])
		c, err := wire.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		t.Cleanup(func() { c.Close() })
		iface, err := c.ImportInterface()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Connect(c, iface); err != nil {
			t.Fatal(err)
		}
		sts, err := c.ImportStructures()
		if err != nil {
			t.Fatal(err)
		}
		for doc, ref := range sts {
			m.ImportStructure(doc, ref.Model, ref.Pattern)
		}
	}
	m.RegisterFunc("contains", waiswrap.Contains)
	if err := m.LoadProgram(datagen.View1Src); err != nil {
		t.Fatal(err)
	}
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")
	return m, observers
}

// TestTraceIDPropagatesOverWire is the cross-process half of the tracing
// story: wrapper-side request spans carry the mediator's trace id, shipped
// as a tag on the wire requests, so one distributed trace can be assembled
// from both sides of the connection. Every data request is a <query>, so
// the wrappers record exactly one such span per push and fetch the query's
// Stats count, each carrying the id.
func TestTraceIDPropagatesOverWire(t *testing.T) {
	m, observers := deployObserved(t, faultWorkloadN)
	// querySpans returns the wrapper-side data-request spans recorded since
	// the marks, and advances them.
	marks := make([]int, len(observers))
	querySpans := func() (out []*obs.Span) {
		for i, o := range observers {
			spans := o.Spans()
			for _, sp := range spans[marks[i]:] {
				if sp.Name == "query" {
					out = append(out, sp)
				}
			}
			marks[i] = len(spans)
		}
		return out
	}
	querySpans() // skip the deployment's own traffic

	res, err := m.ExecuteContext(context.Background(), datagen.Q2Src, ExecOptions{Parallelism: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.ID == "" {
		t.Fatal("no trace collected")
	}
	spans := querySpans()
	for _, sp := range spans {
		if sp.ID != res.Trace.ID {
			t.Errorf("wrapper span has trace id %q, want the caller's %q", sp.ID, res.Trace.ID)
		}
	}
	if want := res.Stats.SourcePushes + res.Stats.SourceFetches; want == 0 || len(spans) != want {
		t.Fatalf("%d wrapper-side data-request spans for %d pushes + %d fetches",
			len(spans), res.Stats.SourcePushes, res.Stats.SourceFetches)
	}
	// An untraced query must not tag its requests: the wrapper spans it
	// records have empty trace ids.
	if _, err := m.ExecuteContext(context.Background(), datagen.Q2Src, ExecOptions{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	for _, sp := range querySpans() {
		if sp.ID != "" {
			t.Errorf("untraced query produced wrapper span with trace id %q", sp.ID)
		}
	}
}

// TestHealthAndMetricsConcurrentWithQueries is the observability plane's
// -race regression: Health() snapshots and the HTTP metrics endpoint are
// read continuously while traced queries execute against fault-injected
// wrappers. Any unsynchronized access between the query path, the breaker
// bookkeeping and the metrics plane is a test failure under -race.
func TestHealthAndMetricsConcurrentWithQueries(t *testing.T) {
	inj := func(seed int64) *faults.Injector {
		return faults.New(faults.Config{
			Rate: 0.05, Seed: seed, After: setupExchanges,
			Kinds: []faults.Kind{faults.Drop, faults.Truncate, faults.Garble},
		})
	}
	m, _ := deployFaulty(t, faultWorkloadN, inj(7), inj(11))
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	plane, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // poll breaker state
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				m.Health()
			}
		}
	}()
	go func() { // poll the metrics endpoint
		defer wg.Done()
		url := fmt.Sprintf("http://%s/metrics", plane.Addr)
		for {
			select {
			case <-done:
				return
			default:
				resp, err := http.Get(url)
				if err != nil {
					continue
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var snap map[string]any
				if err := json.Unmarshal(b, &snap); err != nil {
					t.Errorf("metrics endpoint returned invalid JSON: %v", err)
				}
			}
		}
	}()
	for i := 0; i < 6; i++ {
		opts := ExecOptions{Parallelism: 4, Timeout: time.Minute, Trace: i%2 == 0}
		if _, err := m.ExecuteContext(context.Background(), datagen.Q2Src, opts); err != nil {
			t.Fatalf("query %d under faults: %v", i, err)
		}
	}
	close(done)
	wg.Wait()

	// The registry saw every query.
	snap := reg.Snapshot()
	counters := snap["counters"].(map[string]int64)
	if counters["queries_total"] != 6 {
		t.Errorf("queries_total = %d, want 6", counters["queries_total"])
	}
	if counters["source_pushes_total"] == 0 {
		t.Error("source_pushes_total stayed zero across six queries")
	}
}
