package optimizer

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/filter"
	"repro/internal/o2wrap"
	"repro/internal/tab"
	"repro/internal/typecheck"
	"repro/internal/waiswrap"
)

// culturalOpts assembles full optimizer options from real wrapper
// interfaces, together with a context evaluating against those wrappers.
func culturalOpts(n int) (Options, *algebra.Context, *datagen.Workload) {
	w := datagen.Generate(datagen.DefaultParams(n))
	ow := o2wrap.New("o2artifact", w.DB)
	ww := waiswrap.New("xmlartwork", datagen.NewWaisEngine(w.Works))
	ctx := algebra.NewContext()
	ctx.Sources["o2artifact"] = ow
	ctx.Sources["xmlartwork"] = ww
	ctx.Funcs["contains"] = waiswrap.Contains
	schema := ow.ExportSchema()
	opts := Options{
		Interfaces: map[string]*capability.Interface{
			"o2artifact": ow.ExportInterface(),
			"xmlartwork": ww.ExportInterface(),
		},
		SourceDocs: map[string]string{
			"artifacts": "o2artifact", "persons": "o2artifact", "works": "xmlartwork",
		},
		Structures: typecheck.NewSchemas(map[string]typecheck.Structure{
			"artifacts": {Model: schema, Pattern: "Artifact"},
			"persons":   {Model: schema, Pattern: "Person"},
			"works":     {Model: ww.ExportStructure(), Pattern: "Works"},
		}),
		InfoPassing:     true,
		CheckInvariants: true,
	}
	return opts, ctx, w
}

// q2LikePlan is the composed Q2 shape after round 1: a cross-source join
// under the style/price selections.
func q2LikePlan() algebra.Op {
	return &algebra.Select{
		From: &algebra.Join{
			L: &algebra.Select{
				From: &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
					`set[ *class[ artifact.tuple[ title: $t, year: $y, creator: $c, price: $p ] ] ]`)},
				Pred: algebra.MustParseExpr(`$y > 1800`),
			},
			R: &algebra.Bind{Doc: "works", F: filter.MustParse(
				`works[ *work[ artist: $a, title: $t', style: $s ] ]`)},
			Pred: algebra.MustParseExpr(`$c = $a AND $t = $t'`),
		},
		Pred: algebra.MustParseExpr(`$s = "Impressionist" AND $p < 200000`),
	}
}

func TestFullPipelinePushesBothSources(t *testing.T) {
	opts, ctx, _ := culturalOpts(120)
	var traces []string
	opts.Trace = func(s string) { traces = append(traces, s) }
	o := New(opts)
	plan := q2LikePlan()
	opt, err := o.OptimizeChecked(plan)
	if err != nil {
		t.Fatalf("invariant broken during optimization: %v", err)
	}
	s := algebra.Describe(opt)
	for _, frag := range []string{"SourceQuery(o2artifact)", "SourceQuery(xmlartwork)", "DJoin", "contains("} {
		if !strings.Contains(s, frag) {
			t.Errorf("optimized plan missing %q:\n%s", frag, s)
		}
	}
	if len(traces) == 0 {
		t.Error("trace must record rewritings")
	}
	// Semantics preserved against the unoptimized plan.
	want, err := exec.RunSerial(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	opts2, ctx2, _ := culturalOpts(120)
	_ = opts2
	got, err := exec.RunSerial(opt, ctx2)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Sorted().EqualUnordered(got.Project(want.Cols...)) {
		t.Errorf("pipeline changed semantics: %d vs %d rows", want.Len(), got.Len())
	}
	if want.Len() == 0 {
		t.Fatal("degenerate fixture")
	}
}

func TestRound3SwapsSides(t *testing.T) {
	// When only the LEFT side ends in a source query, round 3 swaps the
	// join before converting it to a DJoin.
	opts, ctx, _ := culturalOpts(60)
	o := New(opts)
	o.fresh = newFreshVars(&algebra.Doc{Name: "x"})
	plan := &algebra.Join{
		L: &algebra.SourceQuery{Source: "o2artifact",
			Plan: &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
				`set[ *class[ artifact.tuple[ title: $t2, price: $p ] ] ]`)}},
		R:    &algebra.Literal{T: leftTitles(ctx, t)},
		Pred: algebra.MustParseExpr(`$t2 = $t`),
	}
	out := o.round3(plan)
	s := algebra.Describe(out)
	if !strings.Contains(s, "DJoin") {
		t.Fatalf("round 3 did not convert:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if !strings.Contains(lines[1], "Literal") {
		t.Errorf("literal side must become the outer loop:\n%s", s)
	}
	got, err := exec.RunSerial(out, ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.RunSerial(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || got.Len() == 0 {
		t.Errorf("rows: swapped %d vs original %d", got.Len(), want.Len())
	}
}

func leftTitles(ctx *algebra.Context, t *testing.T) *tab.Tab {
	t.Helper()
	res, err := exec.RunSerial(&algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work[ title: $t ] ]`)}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	res.Rows = res.Rows[:3]
	return res
}

func TestRound3LeavesNonEquiJoins(t *testing.T) {
	opts, _, _ := culturalOpts(20)
	o := New(opts)
	plan := &algebra.Join{
		L: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work[ title: $t ] ]`)},
		R: &algebra.SourceQuery{Source: "o2artifact",
			Plan: &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
				`set[ *class[ artifact.tuple[ price: $p ] ] ]`)}},
		Pred: algebra.MustParseExpr(`$p > 100`),
	}
	out := o.round3(plan)
	if strings.Contains(algebra.Describe(out), "DJoin") {
		t.Errorf("non-equi join must not convert:\n%s", algebra.Describe(out))
	}
}

func TestSplitForCapabilities(t *testing.T) {
	opts, ctx, _ := culturalOpts(40)
	o := New(opts)
	o.fresh = newFreshVars(&algebra.Doc{Name: "x"})
	b := &algebra.Bind{Doc: "works", F: filter.MustParse(
		`works[ *work[ title: $t, style: $s ] ]`)}
	out := o.splitForCapabilities(b)
	s := algebra.Describe(out)
	if !strings.Contains(s, "Bind(works, works[ *work@$w") {
		t.Fatalf("split did not produce a document-level bind:\n%s", s)
	}
	want, err := exec.RunSerial(b, ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.RunSerial(out, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !want.EqualUnordered(got.Project(want.Cols...)) {
		t.Error("split changed semantics")
	}
	// Directly acceptable binds stay intact.
	ok := &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w ]`)}
	if o.splitForCapabilities(ok) != algebra.Op(ok) {
		t.Error("acceptable bind must not split")
	}
	// O2 binds are acceptable as-is: no split either.
	o2b := &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
		`set[ *class[ artifact.tuple[ title: $t ] ] ]`)}
	if o.splitForCapabilities(o2b) != algebra.Op(o2b) {
		t.Error("O2 bind must not split")
	}
}

func TestIntroduceEquivalences(t *testing.T) {
	opts, ctx, _ := culturalOpts(40)
	o := New(opts)
	o.fresh = newFreshVars(&algebra.Doc{Name: "x"})
	split := o.splitForCapabilities(&algebra.Bind{Doc: "works", F: filter.MustParse(
		`works[ *work[ title: $t, style: $s ] ]`)})
	plan := &algebra.Select{From: split, Pred: algebra.MustParseExpr(`$s = "Impressionist"`)}
	out := o.introduceEquivalences(plan)
	s := algebra.Describe(out)
	if !strings.Contains(s, `contains(`) {
		t.Fatalf("equivalence not applied:\n%s", s)
	}
	// idempotent: a second pass must not duplicate the contains select
	again := o.introduceEquivalences(out)
	if strings.Count(algebra.Describe(again), "contains(") != strings.Count(s, "contains(") {
		t.Error("introduceEquivalences is not idempotent")
	}
	// semantics preserved
	want, err := exec.RunSerial(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.RunSerial(out, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !want.EqualUnordered(got) {
		t.Errorf("equivalence changed semantics: %d vs %d rows", want.Len(), got.Len())
	}
	// No equivalence for non-string or non-matching predicates.
	numeric := &algebra.Select{From: split, Pred: algebra.MustParseExpr(`$s = 5`)}
	if strings.Contains(algebra.Describe(o.introduceEquivalences(numeric)), "contains(") {
		t.Error("numeric equality must not introduce contains")
	}
}

func TestPruneJoinBranchWithAssumption(t *testing.T) {
	opts, ctx, _ := culturalOpts(60)
	opts.Assume = []Containment{{Drop: "artifacts", Keep: "works"}}
	o := New(opts)
	join := &algebra.Join{
		L: &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
			`set[ *class[ artifact.tuple[ title: $t ] ] ]`)},
		R: &algebra.Bind{Doc: "works", F: filter.MustParse(
			`works[ *work[ title: $t', style: $s ] ]`)},
		Pred: algebra.MustParseExpr(`$t = $t'`),
	}
	pruned := o.pruneColumns(join, varSet([]string{"$t", "$s"}))
	s := algebra.Describe(pruned)
	if strings.Contains(s, "artifacts") {
		t.Fatalf("branch not pruned:\n%s", s)
	}
	if !strings.Contains(s, "$t=$t'") {
		t.Errorf("join-equality rename missing:\n%s", s)
	}
	got, err := exec.RunSerial(pruned, ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.RunSerial(&algebra.Project{From: join, Cols: []string{"$t", "$s"}}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !want.EqualUnordered(got.Project("$t", "$s")) {
		t.Errorf("pruning changed semantics under the (true) assumption: %d vs %d rows",
			want.Len(), got.Len())
	}
	// Without the assumption nothing is pruned.
	o2 := New(Options{})
	if !strings.Contains(algebra.Describe(o2.pruneColumns(join, varSet([]string{"$t", "$s"}))), "artifacts") {
		t.Error("pruning requires a declared assumption")
	}
	// With a needed column that has no equality image, pruning must refuse.
	o3 := New(opts)
	kept := o3.pruneColumns(join, varSet([]string{"$t", "$s", "$t'"}))
	_ = kept // $t and $t' both needed: rename works for both ($t=$t', $t' direct)
}

func TestExpandLabelVarsDirect(t *testing.T) {
	opts, ctx, _ := culturalOpts(30)
	o := New(opts)
	b := &algebra.Bind{Doc: "persons", F: filter.MustParse(
		`set[ *class[ person.tuple[ *~$l: $v ] ] ]`)}
	out := o.expandLabelVars(b)
	s := algebra.Describe(out)
	if !strings.Contains(s, "Union") || !strings.Contains(s, "Map($l") {
		t.Fatalf("label variable not expanded:\n%s", s)
	}
	want, err := exec.RunSerial(b, ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.RunSerial(out, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Sorted().EqualUnordered(got.Project(want.Cols...).Sorted()) {
		t.Errorf("expansion changed semantics:\n%s\nvs\n%s", want.Sorted(), got.Sorted())
	}
	// Each expanded branch is now acceptable to O2.
	iface := opts.Interfaces["o2artifact"]
	algebra.Walk(out, func(op algebra.Op) bool {
		if bind, ok := op.(*algebra.Bind); ok && bind.Doc != "" {
			if err := iface.AcceptsFilter(bind.Doc, bind.F); err != nil {
				t.Errorf("expanded branch not acceptable: %v", err)
			}
		}
		return true
	})
}

func TestFreeVarsAndDocsUnder(t *testing.T) {
	plan := &algebra.DJoin{
		L: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w ]`)},
		R: &algebra.Select{
			From: &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
				`set[ *class[ artifact.tuple[ title: $t2 ] ] ]`)},
			Pred: algebra.MustParseExpr(`$t2 = $outer`),
		},
	}
	fv := freeVars(plan.R)
	if !fv["$outer"] || fv["$t2"] {
		t.Errorf("freeVars = %v", fv)
	}
	docs := docsUnder(plan)
	if len(docs) != 2 {
		t.Errorf("docsUnder = %v", docs)
	}
}

func TestMergeSourceJoins(t *testing.T) {
	opts, ctx, _ := culturalOpts(50)
	o := New(opts)
	join := &algebra.Join{
		L: &algebra.SourceQuery{Source: "o2artifact",
			Plan: &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
				`set[ *class[ artifact.tuple[ title: $t, creator: $c ] ] ]`)}},
		R: &algebra.SourceQuery{Source: "o2artifact",
			Plan: &algebra.Bind{Doc: "persons", F: filter.MustParse(
				`set[ *class[ person.tuple[ name: $n ] ] ]`)}},
		Pred: algebra.MustParseExpr(`$c = $n`),
	}
	out := o.mergeSourceJoins(join)
	s := algebra.Describe(out)
	if strings.Count(s, "SourceQuery") != 1 {
		t.Fatalf("join not merged into one pushed query:\n%s", s)
	}
	want, err := exec.RunSerial(join, ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.RunSerial(out, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !want.EqualUnordered(got) {
		t.Errorf("merge changed semantics: %d vs %d rows", want.Len(), got.Len())
	}
	// Different sources never merge.
	cross := &algebra.Join{
		L: join.L,
		R: &algebra.SourceQuery{Source: "xmlartwork",
			Plan: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w ]`)}},
		Pred: algebra.TrueExpr(),
	}
	if strings.Count(algebra.Describe(o.mergeSourceJoins(cross)), "SourceQuery") != 2 {
		t.Error("cross-source join must not merge")
	}
	// A source without the join operation never merges.
	waisJoin := &algebra.Join{
		L: &algebra.SourceQuery{Source: "xmlartwork",
			Plan: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w ]`)}},
		R: &algebra.SourceQuery{Source: "xmlartwork",
			Plan: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w2 ]`)}},
		Pred: algebra.TrueExpr(),
	}
	if strings.Count(algebra.Describe(o.mergeSourceJoins(waisJoin)), "SourceQuery") != 2 {
		t.Error("Wais declares no join: must not merge")
	}
}
