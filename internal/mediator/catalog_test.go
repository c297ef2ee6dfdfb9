package mediator

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/filter"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/pattern"
	"repro/internal/tab"
	"repro/internal/waiswrap"
	"repro/internal/yatl"
)

// figure8Setup is the paper deployment with both containment assumptions of
// Figure 8 declared — what yat.NewCulturalMediator builds.
func figure8Setup(t testing.TB) *Mediator {
	m, _, _ := paperSetup(t)
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")
	return m
}

// TestFigure8PruningPassesTypedVerification: source pruning under a declared
// Containment sources $t from the semistructured works where the original
// plan read it from O₂'s String title, so the root type legitimately widens.
// The typed check used to refuse exactly the paper's own Figure 8 rewrite
// ("type changed after round1/pruneColumns"); round 1 now checks the plan a
// prune the assumption licensed was given against the old baseline and then
// re-baselines on the pruned plan, and the gate answers what the ungated run
// does.
func TestFigure8PruningPassesTypedVerification(t *testing.T) {
	for _, src := range []string{datagen.Q1Src, datagen.Q1XQuerySrc} {
		m := figure8Setup(t)
		plain, err := m.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Tab.Len() == 0 || plain.Stats.SourcePushes+plain.Stats.SourceFetches == 0 {
			t.Fatalf("Q1 must answer from a source: %+v\n%s", plain.Stats, plain.Tab)
		}
		m.CheckInvariants = true
		gated, err := m.Query(src)
		if err != nil {
			t.Fatalf("Q1 refused under CheckInvariants with the Figure 8 assumptions declared: %v", err)
		}
		if !reflect.DeepEqual(renderRows(gated.Tab), renderRows(plain.Tab)) {
			t.Errorf("gated rows differ:\n%s\nvs\n%s", gated.Tab, plain.Tab)
		}
		if gated.Plan != plain.Plan {
			t.Errorf("the gate changed the plan:\n%s\nvs\n%s", gated.Plan, plain.Plan)
		}
	}
}

// collidingSource exports one document of its own and, while bad, one a
// connected source already owns.
type collidingSource struct {
	regSource
	bad bool
}

func (s *collidingSource) Documents() []string {
	if s.bad {
		return []string{s.name + ".doc", "works"}
	}
	return []string{s.name + ".doc"}
}

// TestRefusedConnectLeavesNothing: a Connect refused for a document
// collision used to leave the source listed, owning the documents it got to
// before the collision, and unconnectable under its name.
func TestRefusedConnectLeavesNothing(t *testing.T) {
	m, _, _ := paperSetup(t)
	overWorks := &algebra.SourceQuery{Source: "xmlartwork", Plan: &algebra.Bind{
		Doc: "works", F: filter.MustParse(`works[ *work@$w ]`)}}
	overOwn := &algebra.Bind{Doc: "late.doc", F: filter.MustParse(`doc[ *x: $x ]`)}
	state := func() (srcs []string, health map[string]SourceHealth, works, own int) {
		srcs = m.Sources()
		return srcs, m.Health(), len(m.Lint(overWorks)), len(m.Lint(overOwn))
	}
	srcs, health, works, own := state()
	if works != 0 || own != 1 {
		t.Fatalf("before: lint(works) = %d diagnostics, lint(late.doc) = %d; want 0 and 1 (unknown document)", works, own)
	}
	before := m.cat.Load()

	src := &collidingSource{regSource: regSource{name: "late"}, bad: true}
	if err := m.Connect(src, nil); err == nil {
		t.Fatal("a source exporting another source's document must be refused")
	}
	if m.cat.Load() != before {
		t.Error("a refused Connect published a catalog")
	}
	srcs2, health2, works2, own2 := state()
	if !reflect.DeepEqual(srcs2, srcs) || !reflect.DeepEqual(health2, health) || works2 != works || own2 != own {
		t.Errorf("a refused Connect left traces: sources %v (was %v), health %v (was %v), lint %d/%d (was %d/%d)",
			srcs2, srcs, health2, health, works2, own2, works, own)
	}

	src.bad = false
	if err := m.Connect(src, nil); err != nil {
		t.Fatalf("the corrected source must connect under the same name: %v", err)
	}
	if ds := m.Lint(overOwn); len(ds) != 0 {
		t.Errorf("late.doc still unknown after the corrected Connect: %v", ds)
	}
}

// TestSourcesListedByName: Sources and Describe (the console's status) list
// sources sorted by name, not in the catalog map's order, which differs from
// one call to the next.
func TestSourcesListedByName(t *testing.T) {
	m := New()
	names := []string{"zeta", "alpha", "omega", "mid", "beta", "kappa"}
	for _, n := range names {
		if err := m.Connect(&regSource{name: n}, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := slices.Clone(names)
	slices.Sort(want)
	var status strings.Builder
	status.WriteString("sources:\n")
	for _, n := range want {
		fmt.Fprintf(&status, "  %s exports %s.doc\n", n, n)
	}
	status.WriteString("views: \n")
	for i := 0; i < 20; i++ {
		if got := m.Sources(); !slices.Equal(got, want) {
			t.Fatalf("Sources() = %v, want %v", got, want)
		}
		if got := m.Describe(); got != status.String() {
			t.Fatalf("Describe() =\n%s\nwant\n%s", got, status.String())
		}
	}
}

// TestFailedLoadProgramLeavesNothing: a program is registered whole or not
// at all.
func TestFailedLoadProgramLeavesNothing(t *testing.T) {
	m, _, _ := paperSetup(t)
	views, before := m.Views(), m.cat.Load()
	err := m.LoadProgram(`
one() := MAKE r[ t: $t ] MATCH works WITH works[ *work[ title: $t ] ] ;
artworks() := MAKE r[ t: $t ] MATCH works WITH works[ *work[ title: $t ] ] ;
three() := MAKE r[ t: $t ] MATCH works WITH ;`)
	if err == nil {
		t.Fatal("a program whose third rule is malformed must be refused")
	}
	if err := m.DefineView(&yatl.Rule{Name: "inputless"}); err == nil {
		t.Fatal("a rule without inputs must not translate")
	}
	if got := m.Views(); !reflect.DeepEqual(got, views) || m.cat.Load() != before {
		t.Errorf("views after a failed LoadProgram = %v, want %v (same catalog: %v)", got, views, m.cat.Load() == before)
	}
}

// planUncached is planning without the plan map: the text composed and
// optimized under the catalog, as StreamContext does on a miss.
func planUncached(t testing.TB, m *Mediator, cat *catalog, src string) algebra.Op {
	t.Helper()
	naive, err := cat.compose(src)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.New(m.optimizerOptions(cat)).Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

// TestPlanningIsAFunctionOfTheCatalog pins what the plan map keyed by
// (catalog, CheckInvariants, text) leans on: planning the same text against
// one catalog gives the same plan, byte for byte; the map then answers it
// with the very plan value; every registration publishes a different catalog
// value with an empty map; toggling CheckInvariants or setting Trace plans
// anew; a text that fails to plan is not stored; and an optimized plan is a
// value any number of executions can share.
func TestPlanningIsAFunctionOfTheCatalog(t *testing.T) {
	m := figure8Setup(t)
	cat := m.cat.Load()
	plan := func(cat *catalog, src string) (algebra.Op, bool) {
		t.Helper()
		p, cached, err := m.plan(cat, src)
		if err != nil {
			t.Fatal(err)
		}
		return p.plan, cached
	}
	marshal := func(opt algebra.Op) string {
		t.Helper()
		s, err := algebra.MarshalPlan(opt)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, src := range []string{datagen.Q1Src, datagen.Q2Src, datagen.Q1XQuerySrc, datagen.Q2XQuerySrc} {
		first, cached := plan(cat, src)
		if cached {
			t.Errorf("the first plan of %q under a fresh catalog was answered by the map", src)
		}
		want := marshal(first)
		for i := 0; i < 300; i++ {
			if got := marshal(planUncached(t, m, cat, src)); got != want {
				t.Fatalf("planning %q, run %d:\n%s\nfirst run:\n%s", src, i, got, want)
			}
		}
		if again, cached := plan(cat, src); !cached || again != first {
			t.Errorf("second plan of %q: cached = %v, same plan value = %v; want the first plan back", src, cached, again == first)
		}
	}

	m.CheckInvariants = !m.CheckInvariants
	if _, cached := plan(cat, datagen.Q2Src); cached {
		t.Errorf("CheckInvariants = %v was served the plan made under %v", m.CheckInvariants, !m.CheckInvariants)
	}
	m.CheckInvariants = !m.CheckInvariants
	if _, cached := plan(cat, datagen.Q2Src); !cached {
		t.Error("toggling CheckInvariants back planned again; both entries should be held")
	}

	var lines int
	m.Trace = func(string) { lines++ }
	for i := 0; i < 2; i++ {
		before := lines
		if _, cached := plan(cat, datagen.Q2Src); cached || lines == before {
			t.Errorf("traced plan %d: cached = %v, %d trace lines; want planned with its rewriting traced", i, cached, lines-before)
		}
	}
	m.Trace = nil

	held := cat.plans.Len()
	for i := 0; i < 2; i++ {
		if p, cached, err := m.plan(cat, `MAKE $t MATCH nowhere WITH doc[ *x: $t ]`); err == nil || p != nil || cached {
			t.Fatalf("a text over an unknown document planned: %v, cached = %v, err = %v", p, cached, err)
		}
	}
	if got := cat.plans.Len(); got != held {
		t.Errorf("a text that failed to plan was stored: %d entries, want %d", got, held)
	}

	// A text of maxPlanText bytes is stored; one byte more, and it is
	// planned on every execution.
	literal := func(n int) string {
		const pre, post = `MAKE $t MATCH works WITH works[ *work[ title: $t ] ] WHERE $t = "`, `"`
		return pre + strings.Repeat("x", n-len(pre)-len(post)) + post
	}
	for _, c := range []struct {
		n      int
		stored bool
	}{{maxPlanText, true}, {maxPlanText + 1, false}} {
		src := literal(c.n)
		first, _ := plan(cat, src)
		again, cached := plan(cat, src)
		if cached != c.stored || (again == first) != c.stored {
			t.Errorf("a %d-byte text planned twice: cached = %v, same plan value = %v; want both %v", c.n, cached, again == first, c.stored)
		}
	}

	registrations := map[string]func() error{
		"Connect":         func() error { return m.Connect(&regSource{name: "extra"}, nil) },
		"ImportStructure": func() error { m.ImportStructure("extra.doc", pattern.NewModel("extra"), "X"); return nil },
		"RegisterFunc":    func() error { m.RegisterFunc("extra", waiswrap.Contains); return nil },
		"Assume":          func() error { m.Assume("extra.doc", "works"); return nil },
		"DefineView": func() error {
			return m.DefineView(&yatl.MustParse(`extra() := MAKE r[ t: $t ] MATCH works WITH works[ *work[ title: $t ] ] ;`).Rules[0])
		},
		"LoadProgram": func() error {
			return m.LoadProgram(`extra2() := MAKE r[ t: $t ] MATCH works WITH works[ *work[ title: $t ] ] ;`)
		},
		"EnableCache": func() error { m.EnableCache(8); return nil },
		"SetMetrics":  func() error { m.SetMetrics(obs.NewRegistry()); return nil },
	}
	for name, register := range registrations {
		before := m.cat.Load()
		plan(before, datagen.Q1Src)
		if err := register(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.cat.Load() == before {
			t.Errorf("%s did not publish a new catalog value", name)
		}
		if _, cached := plan(m.cat.Load(), datagen.Q1Src); cached {
			t.Errorf("after %s the plan map answered a plan made under the previous catalog", name)
		}
	}
	if m.cat.Load() == cat || len(cat.views) != 1 || len(cat.sources) != 2 || len(cat.assume) != 2 {
		t.Errorf("the catalog held since before the registrations changed under its holder: %d views, %d sources, %d assumptions",
			len(cat.views), len(cat.sources), len(cat.assume))
	}

	naive, err := m.Compose(datagen.Q2Src)
	if err != nil {
		t.Fatal(err)
	}
	shared := m.Optimize(naive)
	tables := make([]*tab.Tab, 8)
	var wg sync.WaitGroup
	for i := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := m.StreamPlan(context.Background(), shared, ExecOptions{Parallelism: 1 + i%3})
			if err != nil {
				t.Error(err)
				return
			}
			res, err := s.Drain()
			if err != nil {
				t.Error(err)
				return
			}
			tables[i] = res.Tab
		}()
	}
	wg.Wait()
	for i, got := range tables {
		if got == nil || got.Len() == 0 || !got.Equal(tables[0]) {
			t.Errorf("execution %d of the shared plan value:\n%s\nwant:\n%s", i, got, tables[0])
		}
	}
}

// TestQueryVariableNamedLikeAViewVariable: FuzzPlan's find. Q1 with its
// variable for cplace spelled $t — the name view1 uses for the title —
// composed to a residual Bind that rebound the view's own $t column: the
// gate refused the query, and without the gate it silently answered nothing.
// Composition now renames the view's kept column instead, so the query
// costs what Q1 costs and the view's Tree is gone from its plan.
func TestQueryVariableNamedLikeAViewVariable(t *testing.T) {
	const captured = `MAKE $s MATCH artworks WITH doc[ *work[ title: $s, more.cplace: $t ] ] WHERE $t = "Giverny"`
	for _, gate := range []bool{false, true} {
		m := figure8Setup(t)
		m.CheckInvariants = gate
		want, err := m.Query(datagen.Q1Src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Query(captured)
		if err != nil {
			t.Fatalf("CheckInvariants=%v: %v", gate, err)
		}
		if !reflect.DeepEqual(renderRows(got.Tab), renderRows(want.Tab)) {
			t.Errorf("CheckInvariants=%v: rows\n%s\nwant Q1's\n%s", gate, got.Tab, want.Tab)
		}
		if got.Stats != want.Stats {
			t.Errorf("CheckInvariants=%v: stats %+v, want Q1's %+v", gate, got.Stats, want.Stats)
		}
		if n := strings.Count(got.Plan, "Tree("); n != 1 {
			t.Errorf("CheckInvariants=%v: %d Trees, want only the query's own:\n%s", gate, n, got.Plan)
		}
	}
}

// TestViewNamedTwice: two mentions of one view each produced the view Tree's
// output column, which the gate refused as a duplicate join column. The
// second mention now gets a column of its own.
func TestViewNamedTwice(t *testing.T) {
	const twice = `MAKE $s MATCH artworks WITH doc[ *work[ title: $s ] ], artworks WITH doc[ *work[ title: $s2, more.cplace: $c ] ] WHERE $s = $s2 and $c = "Giverny"`
	for _, setup := range []func(testing.TB) *Mediator{
		func(t testing.TB) *Mediator { m, _, _ := paperSetup(t); return m },
		figure8Setup,
	} {
		m := setup(t)
		naive, err := queryNaive(m, twice)
		if err != nil {
			t.Fatal(err)
		}
		if naive.Tab.Len() != 1 {
			t.Errorf("naive plan: %d rows, want 1:\n%s", naive.Tab.Len(), naive.Tab)
		}
		for _, gate := range []bool{false, true} {
			m.CheckInvariants = gate
			got, err := m.Query(twice)
			if err != nil {
				t.Fatalf("CheckInvariants=%v: %v", gate, err)
			}
			if !reflect.DeepEqual(renderRows(got.Tab), renderRows(naive.Tab)) {
				t.Errorf("CheckInvariants=%v: rows\n%s\nwant the naive plan's\n%s", gate, got.Tab, naive.Tab)
			}
		}
	}
}

// TestOptionsValidatedBeforePlanning: StreamContext used to compose and
// optimize a text before validating its options, so a bad-options request
// paid a full planning and, with a bad text too, reported the planning
// error. It now refuses the options first and plans nothing.
func TestOptionsValidatedBeforePlanning(t *testing.T) {
	m := figure8Setup(t)
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	opts := ExecOptions{Parallelism: 1, BatchChunk: -1}
	_, err := m.StreamContext(context.Background(), `MAKE $t MATCH`, opts)
	if want := opts.Validate(); err == nil || err.Error() != want.Error() {
		t.Errorf("err = %v, want the options error %v", err, want)
	}
	if n := reg.Counter("plan_cache_misses_total").Value(); n != 0 {
		t.Errorf("plan_cache_misses_total = %d; a request with invalid options was planned", n)
	}
}

// TestWarmPlanAllocatesAlmostNothing: a text the catalog's map holds costs a
// lookup, not a planning.
func TestWarmPlanAllocatesAlmostNothing(t *testing.T) {
	m := figure8Setup(t)
	m.CheckInvariants = true
	cat := m.cat.Load()
	cold := testing.AllocsPerRun(3, func() { planUncached(t, m, cat, datagen.Q2Src) })
	if _, _, err := m.plan(cat, datagen.Q2Src); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(100, func() {
		if _, cached, _ := m.plan(cat, datagen.Q2Src); !cached {
			t.Fatal("warm plan of Q2 was a miss")
		}
	})
	t.Logf("Q2 plan: %.0f allocations cold, %.0f warm", cold, warm)
	if warm > 5 {
		t.Errorf("warm plan of Q2: %.0f allocations (cold: %.0f), want at most 5", warm, cold)
	}
}

// TestPlanMapMissCostsAlmostNothing: traffic whose texts never repeat (a new
// literal per query) gains nothing from the map, and on a full map every miss
// also evicts; that costs at most a few allocations over planning without
// the map.
func TestPlanMapMissCostsAlmostNothing(t *testing.T) {
	m := figure8Setup(t)
	m.CheckInvariants = true
	cat := m.cat.Load()
	n := 0
	text := func() string {
		n++
		return fmt.Sprintf(`MAKE $t MATCH artworks WITH doc[ *work[ title: $t, more.cplace: $cl ] ] WHERE $cl = "%06d"`, n)
	}
	for i := 0; i < planEntries; i++ {
		if _, _, err := m.plan(cat, text()); err != nil {
			t.Fatal(err)
		}
	}
	miss := testing.AllocsPerRun(50, func() {
		if _, cached, err := m.plan(cat, text()); err != nil || cached {
			t.Fatalf("a new text: cached = %v, err = %v; want a miss", cached, err)
		}
	})
	uncached := testing.AllocsPerRun(50, func() { planUncached(t, m, cat, text()) })
	t.Logf("Q1 with a new literal: %.0f allocations planned through a full map, %.0f without it", miss, uncached)
	if miss > uncached+5 {
		t.Errorf("a miss on a full map: %.0f allocations, planning without the map: %.0f; want at most 5 more", miss, uncached)
	}
	if got := cat.plans.Len(); got != planEntries {
		t.Errorf("%d entries after %d misses, want the bound %d", got, planEntries+51, planEntries)
	}
}
