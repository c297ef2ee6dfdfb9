package mediator

import (
	"context"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/filter"
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
// ("type changed after round1/pruneColumns"); it re-baselines after a prune
// the assumption licensed, and the gate answers what the ungated run does.
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
		sort.Strings(srcs)
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

// TestPlanningIsAFunctionOfTheCatalog pins what a plan cache keyed by
// (catalog, text) would lean on: planning the same text against one catalog
// gives the same plan, byte for byte; every registration publishes a
// different catalog value; and an optimized plan is a value any number of
// executions can share.
func TestPlanningIsAFunctionOfTheCatalog(t *testing.T) {
	m := figure8Setup(t)
	cat := m.cat.Load()
	marshal := func(src string) string {
		t.Helper()
		_, opt, err := m.plan(cat, src)
		if err != nil {
			t.Fatal(err)
		}
		s, err := algebra.MarshalPlan(opt)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, src := range []string{datagen.Q1Src, datagen.Q2Src, datagen.Q1XQuerySrc, datagen.Q2XQuerySrc} {
		want := marshal(src)
		for i := 0; i < 300; i++ {
			if got := marshal(src); got != want {
				t.Fatalf("planning %q, run %d:\n%s\nfirst run:\n%s", src, i, got, want)
			}
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
	}
	for name, register := range registrations {
		before := m.cat.Load()
		if err := register(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.cat.Load() == before {
			t.Errorf("%s did not publish a new catalog value", name)
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
	plan := m.Optimize(naive)
	tables := make([]*tab.Tab, 8)
	var wg sync.WaitGroup
	for i := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := m.StreamPlan(context.Background(), plan, ExecOptions{Parallelism: 1 + i%3})
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
// Such a composition is now left uneliminated, and answers what Q1 does.
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
	}
}
