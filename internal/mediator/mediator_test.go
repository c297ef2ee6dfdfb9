package mediator

import (
	"context"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/o2"
	"repro/internal/o2wrap"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/tab"
	"repro/internal/waiswrap"
)

// setup builds the full application of Section 2: the O₂ wrapper over the
// trading database, the XML-Wais wrapper over the works, a mediator with
// both connected, capabilities imported and view1 loaded.
func setup(t testing.TB, db *o2.DB, works data.Forest) (*Mediator, *o2wrap.Wrapper, *waiswrap.Wrapper) {
	if t != nil {
		t.Helper()
	}
	ow := o2wrap.New("o2artifact", db)
	ww := waiswrap.New("xmlartwork", datagen.NewWaisEngine(works))
	m := New()
	if err := m.Connect(ow, ow.ExportInterface()); err != nil {
		t.Fatal(err)
	}
	if err := m.Connect(ww, ww.ExportInterface()); err != nil {
		t.Fatal(err)
	}
	ws := ww.ExportStructure()
	m.ImportStructure("works", ws, "Works")
	schema := ow.ExportSchema()
	m.ImportStructure("artifacts", schema, "Artifact")
	m.ImportStructure("persons", schema, "Person")
	m.RegisterFunc("contains", waiswrap.Contains)
	for name, fn := range ow.Funcs() {
		m.RegisterFunc(name, fn)
	}
	if err := m.LoadProgram(datagen.View1Src); err != nil {
		t.Fatal(err)
	}
	return m, ow, ww
}

func paperSetup(t testing.TB) (*Mediator, *o2wrap.Wrapper, *waiswrap.Wrapper) {
	return setup(t, datagen.PaperDB(), datagen.PaperWorks())
}

func titles(res *tab.Tab) []string {
	var out []string
	for _, r := range res.Rows {
		cell := r[0]
		if cell.Kind == tab.CTree && cell.Tree.Child("title") != nil {
			out = append(out, cell.Tree.Child("title").Atom.S)
			continue
		}
		if a, ok := cell.AsAtom(); ok {
			out = append(out, a.Text())
			continue
		}
		out = append(out, cell.String())
	}
	return out
}

func TestConnectAndImports(t *testing.T) {
	m, _, _ := paperSetup(t)
	if len(m.Sources()) != 2 {
		t.Fatalf("sources = %v", m.Sources())
	}
	if m.Interface("o2artifact") == nil || m.Interface("xmlartwork") == nil {
		t.Error("interfaces not imported")
	}
	if len(m.Views()) != 1 || m.View("artworks") == nil {
		t.Errorf("views = %v", m.Views())
	}
	if !strings.Contains(m.Describe(), "artworks") {
		t.Error("Describe must list views")
	}
	// duplicate connections rejected
	ow := o2wrap.New("o2artifact", datagen.PaperDB())
	if err := m.Connect(ow, nil); err == nil {
		t.Error("duplicate source must be rejected")
	}
	ow2 := o2wrap.New("other", datagen.PaperDB())
	if err := m.Connect(ow2, nil); err == nil {
		t.Error("duplicate document export must be rejected")
	}
}

func TestMaterializeView(t *testing.T) {
	m, _, _ := paperSetup(t)
	res, err := m.Materialize("artworks")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("documents = %d", res.Len())
	}
	doc := res.Rows[0][0].Tree
	if len(doc.Children("work")) != 2 {
		t.Errorf("integrated works = %d, want 2:\n%s", len(doc.Children("work")), doc.Indent())
	}
	if _, err := m.Materialize("nosuch"); err == nil {
		t.Error("unknown view must fail")
	}
}

func TestQ1NaiveAndOptimizedAgree(t *testing.T) {
	m, _, _ := paperSetup(t)
	naive, err := queryNaive(m, datagen.Q1Src)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := m.Query(datagen.Q1Src)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Tab.Len() != 1 || titles(naive.Tab)[0] != "Nympheas" {
		t.Fatalf("naive Q1 = %s", naive.Tab)
	}
	if !naive.Tab.EqualUnordered(opt.Tab) {
		t.Errorf("naive:\n%s\noptimized:\n%s\nplan:\n%s", naive.Tab, opt.Tab, opt.Plan)
	}
}

func TestFigure8Q1PlanShape(t *testing.T) {
	m, _, _ := paperSetup(t)
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")
	res, err := m.Query(datagen.Q1Src)
	if err != nil {
		t.Fatal(err)
	}
	// The composed Bind–Tree pair is eliminated and the O₂ branch pruned:
	// the optimized plan touches only the Wais source.
	if strings.Contains(res.Plan, "artifacts") {
		t.Errorf("O2 branch not pruned:\n%s", res.Plan)
	}
	if strings.Contains(res.Plan, "Tree(") && strings.Count(res.Plan, "Tree(") > 1 {
		t.Errorf("view Tree not eliminated:\n%s", res.Plan)
	}
	if !strings.Contains(res.Plan, "SourceQuery(xmlartwork)") {
		t.Errorf("works bind not pushed to Wais:\n%s", res.Plan)
	}
	if res.Tab.Len() != 1 || titles(res.Tab)[0] != "Nympheas" {
		t.Errorf("Q1 = %s", res.Tab)
	}
	// No whole-document fetches: everything arrived through pushed queries.
	if res.Stats.SourceFetches != 0 {
		t.Errorf("fetches = %d, want 0 (pushdown)", res.Stats.SourceFetches)
	}
	if res.Stats.SourcePushes == 0 {
		t.Error("expected pushed source queries")
	}
}

func TestFigure9Q2PlanShape(t *testing.T) {
	m, ow, ww := paperSetup(t)
	res, err := m.Query(datagen.Q2Src)
	if err != nil {
		t.Fatal(err)
	}
	// Q2 = impressionist artworks sold under 200,000: Waterloo Bridge
	// (price 150,000) qualifies; Nympheas (1,500,000) does not.
	if res.Tab.Len() != 1 {
		t.Fatalf("Q2 rows = %d\n%s\nplan:\n%s", res.Tab.Len(), res.Tab, res.Plan)
	}
	row := res.Tab.Rows[0][0].Tree
	if row.Child("title").Atom.S != "Waterloo Bridge" {
		t.Errorf("Q2 = %s", row)
	}
	// Figure 9 plan shape: a DJoin whose left side queries Wais with a
	// pushed contains, and whose right side is a parameterized O₂ query.
	for _, frag := range []string{"DJoin", "SourceQuery(xmlartwork)", "SourceQuery(o2artifact)", "contains("} {
		if !strings.Contains(res.Plan, frag) {
			t.Errorf("plan missing %q:\n%s", frag, res.Plan)
		}
	}
	// The Wais source ran a full-text search; the O₂ source received the
	// title/artist parameters inline.
	if !strings.Contains(ww.LastSearch, "Impressionist") {
		t.Errorf("Wais search = %q", ww.LastSearch)
	}
	if !strings.Contains(ow.LastOQL, `"Waterloo Bridge"`) && !strings.Contains(ow.LastOQL, `"Nympheas"`) {
		t.Errorf("O2 did not receive passed bindings:\n%s", ow.LastOQL)
	}
	if res.Stats.SourceFetches != 0 {
		t.Errorf("fetches = %d, want 0", res.Stats.SourceFetches)
	}
}

func TestQ2NaiveAgreesWithOptimized(t *testing.T) {
	m, _, _ := paperSetup(t)
	naive, err := queryNaive(m, datagen.Q2Src)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := m.Query(datagen.Q2Src)
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Tab.EqualUnordered(opt.Tab) {
		t.Errorf("naive:\n%s\noptimized:\n%s", naive.Tab, opt.Tab)
	}
}

func TestScaledWorkloadSemanticsPreserved(t *testing.T) {
	// The optimizer must preserve semantics on generated workloads of
	// several sizes, for Q1 (with assumptions) and Q2.
	for _, n := range []int{10, 50, 200} {
		w := datagen.Generate(datagen.DefaultParams(n))
		m, _, _ := setup(t, w.DB, w.Works)
		m.Assume("artifacts", "works", "$y > 1800")
		m.Assume("persons", "works", "$y > 1800")

		naive1, err := queryNaive(m, datagen.Q1Src)
		if err != nil {
			t.Fatalf("n=%d naive Q1: %v", n, err)
		}
		opt1, err := m.Query(datagen.Q1Src)
		if err != nil {
			t.Fatalf("n=%d opt Q1: %v", n, err)
		}
		if !naive1.Tab.EqualUnordered(opt1.Tab) {
			t.Errorf("n=%d: Q1 mismatch: naive %d rows, optimized %d rows\nplan:\n%s",
				n, naive1.Tab.Len(), opt1.Tab.Len(), opt1.Plan)
		}
		if naive1.Tab.Len() != len(w.GivernyTitles) {
			t.Errorf("n=%d: Q1 rows = %d, ground truth %d", n, naive1.Tab.Len(), len(w.GivernyTitles))
		}

		naive2, err := queryNaive(m, datagen.Q2Src)
		if err != nil {
			t.Fatalf("n=%d naive Q2: %v", n, err)
		}
		opt2, err := m.Query(datagen.Q2Src)
		if err != nil {
			t.Fatalf("n=%d opt Q2: %v", n, err)
		}
		if !naive2.Tab.EqualUnordered(opt2.Tab) {
			t.Errorf("n=%d: Q2 mismatch (naive %d vs opt %d)\nplan:\n%s",
				n, naive2.Tab.Len(), opt2.Tab.Len(), opt2.Plan)
		}
		if naive2.Tab.Len() != len(w.Q2Titles) {
			t.Errorf("n=%d: Q2 rows = %d, ground truth %d", n, naive2.Tab.Len(), len(w.Q2Titles))
		}
	}
}

func TestOptimizedTransfersLess(t *testing.T) {
	w := datagen.Generate(datagen.DefaultParams(300))
	m, _, _ := setup(t, w.DB, w.Works)
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")
	naive, err := queryNaive(m, datagen.Q2Src)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := m.Query(datagen.Q2Src)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats.BytesShipped >= naive.Stats.BytesShipped {
		t.Errorf("optimized shipped %d bytes, naive %d — pushdown must reduce transfer",
			opt.Stats.BytesShipped, naive.Stats.BytesShipped)
	}
	if opt.Stats.SourceFetches != 0 || naive.Stats.SourceFetches == 0 {
		t.Errorf("fetches: opt=%d naive=%d", opt.Stats.SourceFetches, naive.Stats.SourceFetches)
	}
}

func TestQueryDirectSourceDocument(t *testing.T) {
	// Queries can also target source documents directly (no view).
	m, _, _ := paperSetup(t)
	res, err := m.Query(`MAKE $t MATCH works WITH works[ *work[ title: $t ] ]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tab.Len() != 2 {
		t.Errorf("rows = %d", res.Tab.Len())
	}
}

func TestQueryErrors(t *testing.T) {
	m, _, _ := paperSetup(t)
	if _, err := m.Query(`MAKE $t MATCH ghosts WITH g[ *x[ a: $t ] ]`); err == nil {
		t.Error("unknown document must fail at composition")
	}
	if _, err := m.Query(`not a query`); err == nil {
		t.Error("syntax error must surface")
	}
	// cyclic views
	if err := m.LoadProgram(`loop() := MAKE doc[ t: $x ] MATCH loop WITH doc[ *t: $x ] ;`); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(`MAKE $x MATCH loop WITH doc[ *t: $x ]`); err == nil {
		t.Error("cyclic view must be detected")
	}
}

func TestMethodPredicateMediatorSide(t *testing.T) {
	// current_price can also be evaluated mediator-side through the
	// registered callback when the plan is not pushed.
	m, ow, _ := paperSetup(t)
	_ = ow
	res, err := m.Query(`MAKE $t
MATCH artifacts WITH set[ *class@$art[ artifact.tuple[ title: $t ] ] ]
WHERE current_price($art) > 1000000`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tab.Len() != 1 || titles(res.Tab)[0] != "Nympheas" {
		t.Errorf("method query = %s\nplan:\n%s", res.Tab, res.Plan)
	}
}

func TestLabelVariableQueryOverO2(t *testing.T) {
	// Figure 7 (lower right): semistructured query over structured data —
	// retrieve the attribute names of person objects. Type information
	// expands the label variable into a union of concrete binds.
	m, _, _ := paperSetup(t)
	res, err := m.Query(`MAKE row[ attr: $l, v: $v ]
MATCH persons WITH set[ *class[ person.tuple[ *~$l: $v ] ] ]`)
	if err != nil {
		t.Fatal(err)
	}
	attrs := map[string]bool{}
	for _, r := range res.Tab.Rows {
		attrs[r[0].Tree.Child("attr").Atom.S] = true
	}
	if !attrs["name"] || !attrs["auction"] {
		t.Errorf("attribute names = %v\nplan:\n%s", attrs, res.Plan)
	}
}

func TestWaisEngineReceivesPushedSearch(t *testing.T) {
	m, _, ww := paperSetup(t)
	before := ww.E.SearchesRun
	if _, err := m.Query(datagen.Q2Src); err != nil {
		t.Fatal(err)
	}
	if ww.E.SearchesRun <= before {
		t.Error("optimized Q2 must run a full-text search at the source")
	}
}

const fusedProgram = `
fused_artworks() :=
MAKE doc[ *artwork($t) := work[ title: $t, owners[ *owner: &person($o) ] ] ]
MATCH artifacts WITH set[ *class[ artifact.tuple[ title: $t,
      owners.list[ *class[ person.tuple[ name: $o ] ] ] ] ] ] ;

fused_persons() :=
MAKE people[ *person($o) := person[ name: $o ] ]
MATCH persons WITH set[ *class[ person.tuple[ name: $o ] ] ] ;
`

func TestMaterializeProgramSkolemFusion(t *testing.T) {
	// Two rules connected through Skolem functions: artworks() references
	// &person($o); persons() constructs person($o) := trees. Materializing
	// the program in one context fuses the identifiers (object fusion).
	m, _, _ := paperSetup(t)
	if err := m.LoadProgram(fusedProgram); err != nil {
		t.Fatal(err)
	}
	forests, store, err := m.MaterializeProgram()
	if err != nil {
		t.Fatal(err)
	}
	artworks := forests["fused_artworks"]
	if len(artworks) != 1 {
		t.Fatalf("artworks forest = %d trees", len(artworks))
	}
	people := forests["fused_persons"]
	if len(people) != 1 || len(people[0].Children("person")) != 2 {
		t.Fatalf("people = %v", people)
	}
	// Every owner reference resolves to a person tree built by the OTHER rule.
	refs := 0
	artworks[0].Walk(func(n *data.Node) bool {
		if n.IsRef() {
			refs++
			target := store.Lookup(n.Ref)
			if target == nil || target.Label != "person" {
				t.Errorf("reference %s does not resolve to a person: %v", n.Ref, target)
			}
		}
		return true
	})
	if refs == 0 {
		t.Fatal("no references constructed")
	}
}

func TestMaterializeProgramRecordsEachViewOnce(t *testing.T) {
	// The views share one evaluation context, but /metrics must see each
	// view's source traffic once: the program's totals are the sum of the
	// views materialized one at a time.
	m, _, _ := paperSetup(t)
	if err := m.LoadProgram(fusedProgram); err != nil {
		t.Fatal(err)
	}
	if len(m.Views()) < 3 {
		t.Fatalf("views = %v, want at least 3", m.Views())
	}
	counters := func(run func()) map[string]int64 {
		reg := obs.NewRegistry()
		m.SetMetrics(reg)
		defer m.SetMetrics(nil)
		run()
		return reg.Snapshot()["counters"].(map[string]int64)
	}
	each := counters(func() {
		for _, v := range m.Views() {
			if _, err := m.Materialize(v); err != nil {
				t.Fatal(err)
			}
		}
	})
	whole := counters(func() {
		if _, _, err := m.MaterializeProgram(); err != nil {
			t.Fatal(err)
		}
	})
	if each["source_fetches_total"] == 0 || each["bytes_shipped_total"] == 0 {
		t.Fatalf("fixture ships nothing: %v", each)
	}
	for _, name := range []string{"queries_total", "source_fetches_total", "source_pushes_total",
		"tuples_shipped_total", "bytes_shipped_total"} {
		if whole[name] != each[name] {
			t.Errorf("%s = %d over the program, %d over its views one at a time", name, whole[name], each[name])
		}
	}
}

func TestPruningNeverDropsQueryPredicates(t *testing.T) {
	// Regression: a user predicate on an O₂-side column ($p) must survive
	// even when the containment assumption could prune that branch for
	// queries that do not observe it. Found by the randomized equivalence
	// test; the assumption absorbs only its declared modulo conjuncts.
	w := datagen.Generate(datagen.DefaultParams(120))
	m, _, _ := setup(t, w.DB, w.Works)
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")
	q := `MAKE f: $t
MATCH artworks WITH doc[ *work[ price: $p, title: $t, style: $s ] ]
WHERE $p < 200000`
	naive, err := queryNaive(m, q)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := m.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Tab.EqualUnordered(opt.Tab) {
		t.Fatalf("price predicate lost: naive %d rows, optimized %d rows\n%s",
			naive.Tab.Len(), opt.Tab.Len(), opt.Plan)
	}
	// The same query without the price predicate still prunes the O₂ branch.
	free := `MAKE f: $t MATCH artworks WITH doc[ *work[ title: $t, style: $s ] ]`
	res, err := m.Query(free)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Plan, "artifacts") {
		t.Errorf("assumption-based pruning regressed:\n%s", res.Plan)
	}
}

func TestSameSourceJoinPushedAsOneOQL(t *testing.T) {
	// A query joining two extents of the same O₂ database is pushed as a
	// single OQL query with two from-ranges.
	db := datagen.PaperDB()
	// make the join non-empty: a collector named like an artist
	if _, err := db.NewObject("Person",
		o2Tuple("Claude Monet", 999)); err != nil {
		t.Fatal(err)
	}
	m, ow, _ := setup(t, db, datagen.PaperWorks())
	res, err := m.Query(`MAKE pair[ t: $t, n: $n ]
MATCH artifacts WITH set[ *class[ artifact.tuple[ title: $t, creator: $c ] ] ],
      persons WITH set[ *class[ person.tuple[ name: $n ] ] ]
WHERE $c = $n`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tab.Len() != 2 {
		t.Fatalf("rows = %d\n%s", res.Tab.Len(), res.Plan)
	}
	if strings.Count(res.Plan, "SourceQuery") != 1 {
		t.Errorf("expected a single merged source query:\n%s", res.Plan)
	}
	if !strings.Contains(ow.LastOQL, "R2 in persons") {
		t.Errorf("OQL lacks the second range:\n%s", ow.LastOQL)
	}
	if res.Stats.SourcePushes != 1 || res.Stats.SourceFetches != 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

// queryNaive executes the unoptimized composition of a query: the view is
// materialized and the query evaluated on the result (the naive strategy of
// Section 5.2).
func queryNaive(m *Mediator, src string) (*Result, error) {
	plan, err := m.Compose(src)
	if err != nil {
		return nil, err
	}
	return m.ExecutePlan(context.Background(), plan, ExecOptions{Parallelism: 1})
}

func TestOptimizerAblation(t *testing.T) {
	m, _, _ := paperSetup(t)
	full, err := m.Query(datagen.Q2Src)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := m.Compose(datagen.Q2Src)
	if err != nil {
		t.Fatal(err)
	}
	tuned := m.OptimizerOptions()
	tuned.DisablePushdown = true
	tuned.InfoPassing = false
	plan, err := optimizer.New(tuned).OptimizeChecked(naive)
	if err != nil {
		t.Fatal(err)
	}
	noPush, err := m.ExecutePlan(context.Background(), plan, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Tab.EqualUnordered(noPush.Tab) {
		t.Error("ablation variants must agree on rows")
	}
	if strings.Contains(noPush.Plan, "SourceQuery") {
		t.Errorf("DisablePushdown left source queries:\n%s", noPush.Plan)
	}
	if !strings.Contains(full.Plan, "SourceQuery") {
		t.Errorf("full optimizer must push:\n%s", full.Plan)
	}
	if noPush.Stats.SourceFetches == 0 || full.Stats.SourceFetches != 0 {
		t.Errorf("fetch stats: noPush=%d full=%d",
			noPush.Stats.SourceFetches, full.Stats.SourceFetches)
	}
}

func TestViewOverViewComposition(t *testing.T) {
	// A second view defined over the first one: composition must substitute
	// recursively, and the optimizer eliminates both Bind–Tree frontiers.
	m, _, _ := paperSetup(t)
	if err := m.LoadProgram(`
summary() :=
MAKE catalog[ *entry($t) := entry[ title: $t, by: $a ] ]
MATCH artworks WITH doc[ *work[ title: $t, artist: $a ] ] ;`); err != nil {
		t.Fatal(err)
	}
	naive, err := queryNaive(m, `MAKE $t MATCH summary WITH catalog[ *entry[ title: $t ] ]`)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := m.Query(`MAKE $t MATCH summary WITH catalog[ *entry[ title: $t ] ]`)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Tab.Len() != 2 || !naive.Tab.EqualUnordered(opt.Tab) {
		t.Fatalf("view-over-view: naive %d, optimized %d\n%s",
			naive.Tab.Len(), opt.Tab.Len(), opt.Plan)
	}
	if strings.Count(opt.Plan, "Tree(") > 1 {
		t.Errorf("nested view Trees not eliminated:\n%s", opt.Plan)
	}
}

func TestDescendantQueryOverView(t *testing.T) {
	// A GPE-style descendant query (**) over the integrated view: it cannot
	// be pushed (capabilities reject **), but must evaluate correctly.
	m, _, _ := paperSetup(t)
	q := `MAKE $x MATCH artworks WITH doc[ *work@$w[ **technique: $x ] ]`
	naive, err := queryNaive(m, q)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := m.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Tab.Len() != 1 || !naive.Tab.EqualUnordered(opt.Tab) {
		t.Fatalf("descendant query: naive %d, optimized %d", naive.Tab.Len(), opt.Tab.Len())
	}
	if a, _ := naive.Tab.Rows[0][0].AsAtom(); a.S != "Oil on canvas" {
		t.Errorf("technique = %v", a)
	}
}
