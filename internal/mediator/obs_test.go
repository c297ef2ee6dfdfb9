package mediator

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
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

// TestProfileSumsMatchStats is the tracing subsystem's accounting
// invariant (the paper-facing acceptance criterion): over live wire
// wrappers, the per-node counts of the span tree sum to the query's global
// Stats exactly, as a whole struct — no double counting, no dropped work —
// on every schedule (serial/parallel × batched/one-binding-per-push DJoin)
// and with every counter at work in some mode: a result cache small enough
// to evict, transport faults the wire client recovers from, a plan that
// fetches whole documents and Binds them at the mediator, and one that
// calls a function there.
func TestProfileSumsMatchStats(t *testing.T) {
	ctx := context.Background()
	m, _ := deployFaulty(t, faultWorkloadN, nil, nil)
	cached, _ := deployFaulty(t, faultWorkloadN, nil, nil)
	cached.EnableCache(4)
	faulty, _ := deployFaulty(t, faultWorkloadN,
		faults.New(faults.Config{Seed: 7, Rate: 1, Kinds: []faults.Kind{faults.Garble}, After: setupExchanges, Max: 1}),
		faults.New(faults.Config{Seed: 5, KillNth: setupExchanges + 1}))
	query := func(m *Mediator, src string) func(ExecOptions) (*Result, error) {
		return func(opts ExecOptions) (*Result, error) { return m.ExecuteContext(ctx, src, opts) }
	}
	naive := func(src string) func(ExecOptions) (*Result, error) {
		return func(opts ExecOptions) (*Result, error) {
			plan, err := m.Compose(src)
			if err != nil {
				return nil, err
			}
			return m.ExecutePlan(ctx, plan, opts)
		}
	}
	modes := []struct {
		name string
		run  func(ExecOptions) (*Result, error)
		opts ExecOptions
	}{
		{"serial-batched", query(m, datagen.Q2Src), ExecOptions{Parallelism: 1}},
		{"serial-per-binding", query(m, datagen.Q2Src), ExecOptions{Parallelism: 1, BatchChunk: 1}},
		{"parallel-batched", query(m, datagen.Q2Src), ExecOptions{Parallelism: 8, Timeout: time.Minute}},
		{"parallel-per-binding", query(m, datagen.Q2Src), ExecOptions{Parallelism: 8, BatchChunk: 1, Timeout: time.Minute}},
		// Four entries hold less than one Q2 run pushes: both runs evict,
		// and the second hits what the first left behind.
		{"evicting-cache-cold", query(cached, datagen.Q2Src), ExecOptions{Parallelism: 1}},
		{"evicting-cache-warm", query(cached, datagen.Q2Src), ExecOptions{Parallelism: 1}},
		{"recovered", query(faulty, datagen.Q2Src), ExecOptions{Parallelism: 1}},
		{"naive-fetch", naive(datagen.Q2Src), ExecOptions{Parallelism: 1}},
		{"mediator-call", naive(`MAKE $t MATCH artworks WITH doc[ *work[ title: $t, style: $s ] ] WHERE contains($s, "Impression")`),
			ExecOptions{Parallelism: 4, Timeout: time.Minute}},
	}
	var seen algebra.Stats
	for _, mode := range modes {
		opts := mode.opts
		opts.Trace = true
		res, err := mode.run(opts)
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
		if got, want := res.Trace.TreeCounts(), res.Stats; got != want {
			t.Errorf("%s: span tree counts %+v != global stats %+v", mode.name, got, want)
		}
		seen.Add(res.Stats)
	}
	v := reflect.ValueOf(seen)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("no mode exercises %s: its span accounting goes unchecked", v.Type().Field(i).Name)
		}
	}
}

// TestMetricsCarryEveryCounter pins /metrics to Result.Stats: after queries
// that evict from a small cache, fetch and Bind at the mediator and call a
// function there, each *_total counter is the sum of its Stats field over
// the queries — all eleven of them.
func TestMetricsCarryEveryCounter(t *testing.T) {
	ctx := context.Background()
	m, _ := deployFaulty(t, faultWorkloadN, nil, nil)
	m.EnableCache(4)
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	naive := func(src string) (*Result, error) {
		plan, err := m.Compose(src)
		if err != nil {
			return nil, err
		}
		return m.ExecutePlan(ctx, plan, ExecOptions{Parallelism: 1})
	}
	var sum algebra.Stats
	for i, run := range []func() (*Result, error){
		func() (*Result, error) { return m.ExecuteContext(ctx, datagen.Q2Src, ExecOptions{Parallelism: 1}) },
		func() (*Result, error) { return m.ExecuteContext(ctx, datagen.Q2Src, ExecOptions{Parallelism: 1}) },
		func() (*Result, error) { return naive(datagen.Q2Src) },
		func() (*Result, error) {
			return naive(`MAKE $t MATCH artworks WITH doc[ *work[ title: $t, style: $s ] ] WHERE contains($s, "Impression")`)
		},
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		sum.Add(res.Stats)
	}
	for _, c := range []struct {
		name string
		want int64
	}{
		{"source_fetches_total", int64(sum.SourceFetches)},
		{"source_pushes_total", int64(sum.SourcePushes)},
		{"tuples_shipped_total", int64(sum.TuplesShipped)},
		{"bytes_shipped_total", sum.BytesShipped},
		{"func_calls_total", int64(sum.FuncCalls)},
		{"bind_rows_total", int64(sum.BindRows)},
		{"cache_hits_total", int64(sum.CacheHits)},
		{"cache_misses_total", int64(sum.CacheMisses)},
		{"cache_evictions_total", int64(sum.CacheEvictions)},
		{"retries_total", int64(sum.Retries)},
		{"redials_total", int64(sum.Redials)},
	} {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d (the sum over Result.Stats)", c.name, got, c.want)
		}
	}
	if sum.FuncCalls == 0 || sum.BindRows == 0 || sum.CacheEvictions == 0 {
		t.Errorf("the queries must call a function, Bind and evict: %+v", sum)
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
