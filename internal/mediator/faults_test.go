package mediator

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/filter"
	"repro/internal/o2wrap"
	"repro/internal/waiswrap"
	"repro/internal/wire"
)

// setupExchanges is the number of wire exchanges each source serves before
// query traffic starts: hello, interface-request, structures-request.
// Fault injectors skip them (Config.After) so deployment always succeeds
// and faults land on query traffic.
const setupExchanges = 3

// trackingListener records accepted connections so a test can kill a
// wrapper outright — listener and established connections both — to
// simulate a source that is fully down.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *trackingListener) kill() {
	l.Listener.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

// deployFaulty builds the Figure 2 deployment over TCP with per-source
// fault injectors (nil = clean) and returns the mediator plus a kill switch
// for the xmlartwork wrapper.
func deployFaulty(t *testing.T, n int, o2Inj, waisInj *faults.Injector) (*Mediator, func()) {
	t.Helper()
	w := datagen.Generate(datagen.DefaultParams(n))
	ow := o2wrap.New("o2artifact", w.DB)
	schema := ow.ExportSchema()
	ww := waiswrap.New("xmlartwork", datagen.NewWaisEngine(w.Works))
	deploys := []struct {
		exp wire.Exported
		inj *faults.Injector
	}{
		{wire.Exported{Source: ow, Interface: ow.ExportInterface(),
			Structures: map[string]wire.StructureRef{
				"artifacts": {Model: schema, Pattern: "Artifact"},
				"persons":   {Model: schema, Pattern: "Person"},
			}}, o2Inj},
		{wire.Exported{Source: ww, Interface: ww.ExportInterface(),
			Structures: map[string]wire.StructureRef{
				"works": {Model: ww.ExportStructure(), Pattern: "Works"},
			}}, waisInj},
	}
	m := New()
	var killWais func()
	for i, d := range deploys {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tl := &trackingListener{Listener: ln}
		if i == 1 {
			killWais = tl.kill
		}
		var serveLn net.Listener = tl
		if d.inj != nil {
			serveLn = d.inj.Listener(tl)
		}
		srv := wire.Serve(serveLn, d.exp)
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
	return m, killWais
}

const faultWorkloadN = 60

// cleanQ2 runs Q2 once on a fault-free deployment and returns the result.
func cleanQ2(t *testing.T) *Result {
	t.Helper()
	m, _ := deployFaulty(t, faultWorkloadN, nil, nil)
	res, err := m.ExecuteContext(context.Background(), datagen.Q2Src, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tab.Len() == 0 {
		t.Fatal("clean Q2 returned no rows; workload too small for a meaningful matrix")
	}
	return res
}

func TestFaultMatrixQ2(t *testing.T) {
	// One injected fault of each transport kind, on each source, under
	// serial and parallel execution: the rows must come out identical to
	// the clean run, with the recovery visible in the retry counters.
	clean := cleanQ2(t)
	kinds := []faults.Kind{faults.Drop, faults.Truncate, faults.Garble}
	for _, par := range []int{1, 4} {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s-par%d", kind, par), func(t *testing.T) {
				o2Inj := faults.New(faults.Config{Seed: 7, Rate: 1,
					Kinds: []faults.Kind{kind}, After: setupExchanges, Max: 1})
				waisInj := faults.New(faults.Config{Seed: 11, Rate: 1,
					Kinds: []faults.Kind{kind}, After: setupExchanges, Max: 1})
				m, _ := deployFaulty(t, faultWorkloadN, o2Inj, waisInj)
				res, err := m.ExecuteContext(context.Background(), datagen.Q2Src,
					ExecOptions{Parallelism: par})
				if err != nil {
					t.Fatalf("Q2 under %s faults: %v", kind, err)
				}
				if !res.Tab.EqualUnordered(clean.Tab) {
					t.Errorf("rows differ from clean run under %s faults:\n%s\nvs clean:\n%s",
						kind, res.Tab, clean.Tab)
				}
				if got := o2Inj.Injected() + waisInj.Injected(); got == 0 {
					t.Fatal("no fault was injected; the matrix tested nothing")
				}
				if res.Stats.Retries+res.Stats.Redials == 0 {
					t.Errorf("stats report no retries/redials after an injected %s fault", kind)
				}
			})
		}
	}
}

func TestFaultMatrixDelayBeyondDeadline(t *testing.T) {
	// A wrapper stalled past the query deadline is a budget failure, not an
	// outage: both serial and parallel execution must surface the typed
	// context error.
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			o2Inj := faults.New(faults.Config{Seed: 3, Rate: 1,
				Kinds: []faults.Kind{faults.Delay}, Delay: 2 * time.Second, After: setupExchanges})
			waisInj := faults.New(faults.Config{Seed: 3, Rate: 1,
				Kinds: []faults.Kind{faults.Delay}, Delay: 2 * time.Second, After: setupExchanges})
			m, _ := deployFaulty(t, faultWorkloadN, o2Inj, waisInj)
			_, err := m.ExecuteContext(context.Background(), datagen.Q2Src,
				ExecOptions{Parallelism: par, Timeout: 150 * time.Millisecond})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Q2 under stall = %v, want context.DeadlineExceeded", err)
			}
		})
	}
}

func TestFaultMatrixKillMidQuery(t *testing.T) {
	// The connection serving the first query exchange on the works wrapper
	// (the batched DJoin push) is killed mid-flight; the retry layer must
	// recover and reproduce the clean rows exactly.
	clean := cleanQ2(t)
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			waisInj := faults.New(faults.Config{Seed: 5, KillNth: setupExchanges + 1})
			m, _ := deployFaulty(t, faultWorkloadN, nil, waisInj)
			res, err := m.ExecuteContext(context.Background(), datagen.Q2Src,
				ExecOptions{Parallelism: par})
			if err != nil {
				t.Fatalf("Q2 with killed batch conn: %v", err)
			}
			if !res.Tab.EqualUnordered(clean.Tab) {
				t.Errorf("rows differ from clean run after mid-query kill:\n%s", res.Tab)
			}
			if waisInj.Counts()[faults.Kill] != 1 {
				t.Fatalf("kill count = %d, want 1", waisInj.Counts()[faults.Kill])
			}
			if res.Stats.Retries+res.Stats.Redials == 0 {
				t.Error("stats report no recovery work after the kill")
			}
		})
	}
}

func TestOnePercentFaultRateQ2ByteIdentical(t *testing.T) {
	// The acceptance scenario: a 1% fault rate on both wrappers across
	// repeated Q2 runs must never change a row — serial execution is
	// deterministic, so the result must be byte-identical — while the
	// retry counters expose the recovery work.
	// One binding per push gives the chatty traffic shape (one exchange per
	// distinct binding set); batched pushdown would leave a 1% rate almost
	// nothing to hit.
	opts := ExecOptions{Parallelism: 1, BatchChunk: 1}
	cm, _ := deployFaulty(t, faultWorkloadN, nil, nil)
	clean, err := cm.ExecuteContext(context.Background(), datagen.Q2Src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Tab.Len() == 0 {
		t.Fatal("clean Q2 returned no rows")
	}
	o2Inj := faults.New(faults.Config{Seed: 17, Rate: 0.01,
		Kinds: []faults.Kind{faults.Drop, faults.Truncate, faults.Garble}, After: setupExchanges})
	waisInj := faults.New(faults.Config{Seed: 23, Rate: 0.01,
		Kinds: []faults.Kind{faults.Drop, faults.Truncate, faults.Garble}, After: setupExchanges})
	m, _ := deployFaulty(t, faultWorkloadN, o2Inj, waisInj)
	totalRetries := 0
	for i := 0; i < 40; i++ {
		res, err := m.ExecuteContext(context.Background(), datagen.Q2Src, opts)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Tab.String() != clean.Tab.String() {
			t.Fatalf("run %d rows not byte-identical to clean run:\n%s\nvs:\n%s",
				i, res.Tab, clean.Tab)
		}
		totalRetries += res.Stats.Retries + res.Stats.Redials
	}
	if o2Inj.Injected()+waisInj.Injected() == 0 {
		t.Fatal("1% rate injected nothing across 40 runs; raise the run count")
	}
	if totalRetries == 0 {
		t.Error("faults were injected but no retry/redial was ever reported")
	}
}

// crossSourceUnion is a hand-built plan with one branch per source: titles
// from the O₂ artifacts extent unioned with titles from the Wais works
// document. Unlike the join-shaped Q1/Q2, each branch survives alone, so it
// demonstrates partial results from live sources.
func crossSourceUnion() algebra.Op {
	return &algebra.Union{
		L: &algebra.Bind{Doc: "artifacts",
			F: filter.MustParse(`set[ *class[ artifact.tuple[ title: $t ] ] ]`)},
		R: &algebra.Bind{Doc: "works",
			F: filter.MustParse(`works[ *work[ title: $t ] ]`)},
	}
}

func TestAllowPartialReturnsLiveSourceRows(t *testing.T) {
	m, killWais := deployFaulty(t, faultWorkloadN, nil, nil)
	plan := crossSourceUnion()
	full, err := m.ExecutePlan(context.Background(), plan, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.SourceErrors) != 0 {
		t.Fatalf("clean run reported source errors: %v", full.SourceErrors)
	}
	live, err := m.ExecutePlan(context.Background(), crossSourceUnion(), ExecOptions{Parallelism: 1})
	if err != nil || live.Tab.Len() != full.Tab.Len() {
		t.Fatalf("second clean run: %v, %d rows", err, live.Tab.Len())
	}

	// Take the works wrapper fully down: listener and connections.
	killWais()

	// Without AllowPartial the query fails with the typed unavailability
	// error naming the dead source.
	_, err = m.ExecutePlan(context.Background(), crossSourceUnion(), ExecOptions{Parallelism: 1})
	var ue *algebra.UnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("strict execution with a dead source = %v, want UnavailableError", err)
	}
	if ue.Source != "xmlartwork" {
		t.Errorf("unavailable source = %q, want xmlartwork", ue.Source)
	}

	// With AllowPartial the rows derivable from the live source come back,
	// with the outage reported in SourceErrors instead of failing.
	partial, err := m.ExecutePlan(context.Background(), crossSourceUnion(),
		ExecOptions{Parallelism: 1, AllowPartial: true})
	if err != nil {
		t.Fatalf("AllowPartial execution failed outright: %v", err)
	}
	if partial.Tab.Len() == 0 || partial.Tab.Len() >= full.Tab.Len() {
		t.Fatalf("partial rows = %d, want strictly between 0 and %d", partial.Tab.Len(), full.Tab.Len())
	}
	if len(partial.SourceErrors) != 1 || partial.SourceErrors[0].Source != "xmlartwork" {
		t.Fatalf("SourceErrors = %v, want exactly xmlartwork", partial.SourceErrors)
	}
	// Parallel execution degrades the same way.
	partialPar, err := m.ExecutePlan(context.Background(), crossSourceUnion(),
		ExecOptions{Parallelism: 4, AllowPartial: true})
	if err != nil {
		t.Fatalf("parallel AllowPartial: %v", err)
	}
	if !partialPar.Tab.EqualUnordered(partial.Tab) {
		t.Errorf("parallel partial rows differ from serial:\n%s\nvs:\n%s", partialPar.Tab, partial.Tab)
	}
}

func TestBreakerFailsFastWhileOpen(t *testing.T) {
	// Once the works wrapper is down and its breaker open, queries stop
	// paying the dial-and-retry tax: the open breaker answers immediately.
	// route's default breaker opens after 3 consecutive transport failures
	// and stays open for 2s.
	m, killWais := deployFaulty(t, faultWorkloadN, nil, nil)
	killWais()
	for i := 0; i < 3; i++ {
		if _, err := m.ExecutePlan(context.Background(), crossSourceUnion(), ExecOptions{Parallelism: 1}); err == nil {
			t.Fatal("query against dead source must fail")
		}
	}
	if st := m.Health()["xmlartwork"]; st.State != "open" {
		t.Fatalf("xmlartwork health = %+v, want open", st)
	}
	start := time.Now()
	res, err := m.ExecutePlan(context.Background(), crossSourceUnion(),
		ExecOptions{Parallelism: 1, AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("open breaker did not fail fast: query took %v", elapsed)
	}
	if len(res.SourceErrors) != 1 || res.Tab.Len() == 0 {
		t.Errorf("fail-fast partial result: %d rows, errors %v", res.Tab.Len(), res.SourceErrors)
	}
	if st := m.Health()["o2artifact"]; st.State != "closed" {
		t.Errorf("healthy source health = %+v, want closed", st)
	}
}
