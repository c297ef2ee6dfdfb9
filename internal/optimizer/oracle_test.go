package optimizer_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/filter"
	"repro/internal/mediator"
	"repro/internal/o2wrap"
	"repro/internal/optimizer"
	"repro/internal/pattern"
	"repro/internal/tab"
	"repro/internal/typecheck"
	"repro/internal/waiswrap"
)

// The analysis oracle: every diagnostic (code, path, operator and message,
// in order) and the rendered type annotation of a fixed set of plans, checked
// in as testdata/analysis_oracle.json. The plans are the ones the
// verification and inference tests build, the random plans of
// TestOptimizerPreservesInvariantsOnRandomPlans each beside one seeded
// mutation, and the input and round plans of the paper's queries. A plan
// must get the recorded diagnostics; a plan without any must also render
// byte for byte as recorded.

var updateOracle = flag.Bool("update", false,
	"rewrite testdata/analysis_oracle.json from this build instead of checking against it")

const oracleFile = "analysis_oracle.json"

type oracleEntry struct {
	Name   string                 `json:"name"`
	Diags  []typecheck.Diagnostic `json:"diags"`
	Render string                 `json:"render"`
}

// analyze runs the plan analysis under cfg.
func analyze(name string, plan algebra.Op, cfg *typecheck.Config) oracleEntry {
	ann, ds := typecheck.Check(plan, cfg)
	return oracleEntry{Name: name, Diags: ds, Render: typecheck.Render(plan, ann)}
}

// analyzeAt runs the analysis the mediator runs, under its catalog.
func analyzeAt(name string, m *mediator.Mediator, plan algebra.Op) oracleEntry {
	ann, _ := m.TypecheckPlan(plan)
	return oracleEntry{Name: name, Diags: m.Lint(plan), Render: typecheck.Render(plan, ann)}
}

func configOf(opts optimizer.Options) *typecheck.Config {
	return &typecheck.Config{Interfaces: opts.Interfaces, SourceDocs: opts.SourceDocs, Structures: opts.Structures}
}

// lintConfig is one source "src" exporting "docs" with bind, select and eq
// over an all-permissive filter pattern, and docs declared as
// doc[ *item[ name, num ] ].
func lintConfig() *typecheck.Config {
	iface := capability.NewInterface("src")
	fm := pattern.NewModel("F")
	fm.Define("Doc", &pattern.P{Kind: pattern.KAny})
	iface.FModels = []*pattern.Model{fm}
	iface.Binds["docs"] = capability.BindCap{FModel: "F", FPattern: "Doc"}
	iface.Operations = []capability.Operation{
		{Name: "bind", Kind: "algebra"},
		{Name: "select", Kind: "algebra"},
		{Name: "eq", Kind: "boolean"},
	}
	m := pattern.NewModel("test")
	m.Define("Doc", pattern.NodeItems("doc",
		pattern.Starred(pattern.Node("item",
			pattern.Node("name", pattern.Str()),
			pattern.Node("num", pattern.Int())))))
	return &typecheck.Config{
		Interfaces: map[string]*capability.Interface{"src": iface},
		SourceDocs: map[string]string{"docs": "src", "other": "elsewhere"},
		Structures: typecheck.NewSchemas(map[string]capability.StructureRef{"docs": {Model: m, Pattern: "Doc"}}),
	}
}

// typeConfig declares three documents and nothing else.
func typeConfig() *typecheck.Config {
	docsModel := pattern.MustParseModel(`model docs
Doc := doc[ *&Item ]
Item := item[ name: String, num: Int ]`)
	worksModel := pattern.MustParseModel(`model Artworks_Structure
Works := works[ *&Work ]
Work  := work[ artist: String, title: String, style: String ]`)
	classModel := pattern.MustParseModel(`model o2
Artifact := class[ artifact: tuple[ title: String, year: Int, price: Int ] ]`)
	return &typecheck.Config{Structures: typecheck.NewSchemas(map[string]capability.StructureRef{
		"docs":      {Model: docsModel, Pattern: "Doc"},
		"works":     {Model: worksModel, Pattern: "Works"},
		"artifacts": {Model: classModel, Pattern: "Artifact"},
	})}
}

func bind(doc, f string) *algebra.Bind {
	return &algebra.Bind{Doc: doc, F: filter.MustParse(f)}
}

func sel(from algebra.Op, pred string) *algebra.Select {
	return &algebra.Select{From: from, Pred: algebra.MustParseExpr(pred)}
}

// lintPlans are the plans of the verification tests, over lintConfig, with
// every diagnostic code those tests leave out.
func lintPlans() map[string]algebra.Op {
	d := func(f string) *algebra.Bind { return bind("docs", f) }
	tree := func(c *algebra.Cons) algebra.Op {
		return &algebra.TreeOp{From: d(`doc[ *item[ name: $n, num: $v ] ]`), C: c}
	}
	djoin := &algebra.DJoin{L: d(`doc[ *item[ name: $n ] ]`),
		R: sel(d(`doc[ *item[ num: $v ] ]`), `$v > 1 AND $n = "a"`)}
	lit := &algebra.Literal{T: tab.New("$n", "$x")}
	return map[string]algebra.Op{
		"clean":   sel(d(`doc[ *item[ name: $n, num: $v ] ]`), `$v > 10`),
		"unbound": sel(d(`doc[ *item[ name: $n ] ]`), `$missing = "x"`),
		"unbound-deep": &algebra.Join{L: d(`doc[ *item[ name: $n ] ]`),
			R: sel(d(`doc[ *item[ num: $v ] ]`), `$ghost = 1`), Pred: algebra.MustParseExpr(`$n = $v`)},
		"djoin-param":       djoin,
		"djoin-param-alone": djoin.R,
		"batch-shape": &algebra.DJoin{L: d(`doc[ *item[ name: $n ] ]`),
			R: sel(d(`doc[ *item[ num: $v ] ]`), `$ghost = 1`)},
		"project-unknown": &algebra.Project{From: d(`doc[ *item[ name: $n ] ]`), Cols: []string{"$n", "$nope"}},
		"pushed-lt":       &algebra.SourceQuery{Source: "src", Plan: sel(d(`doc[ *item[ num: $v ] ]`), `$v < 5`)},
		"pushed-project": &algebra.SourceQuery{Source: "src", Plan: &algebra.Project{
			From: d(`doc[ *item[ num: $v, name: $n ] ]`), Cols: []string{"$v"}}},
		"pushed-ghost":   &algebra.SourceQuery{Source: "ghost", Plan: d(`doc[ *item[ name: $n ] ]`)},
		"pushed-foreign": &algebra.SourceQuery{Source: "src", Plan: bind("other", `doc[ *item[ name: $n ] ]`)},
		"skolem-arity": &algebra.Union{
			L: tree(&algebra.Cons{Label: "p", Skolem: "person", SkolemArgs: []string{"$n"}}),
			R: tree(&algebra.Cons{Label: "q", Kids: []algebra.ConsItem{
				{C: &algebra.Cons{Label: "owner", RefTo: "person", RefArgs: []string{"$n", "$v"}}},
			}}),
		},
		"pattern":        d(`doc[ *item[ bogus: $b ] ]`),
		"union-arity":    &algebra.Union{L: d(`doc[ *item[ name: $n ] ]`), R: d(`doc[ *item[ name: $n, num: $v ] ]`)},
		"join-duplicate": &algebra.Join{L: d(`doc[ *item[ name: $n ] ]`), R: d(`doc[ *item[ name: $n ] ]`), Pred: algebra.TrueExpr()},
		"param-unbound":  &algebra.Bind{Col: "$w", F: filter.MustParse(`item[ name: $n ]`)},
		"param-bound": &algebra.DJoin{L: d(`doc@$w`),
			R: &algebra.Bind{Col: "$w", F: filter.MustParse(`item[ name: $n ]`)}},
		"unknown-doc": bind("nowhere", `doc[ *item[ name: $n ] ]`),
		"nested-query": &algebra.SourceQuery{Source: "src", Plan: &algebra.SourceQuery{
			Source: "src", Plan: d(`doc[ *item[ name: $n ] ]`)}},
		"djoin-degenerate": &algebra.DJoin{L: d(`doc[ *item[ name: $n ] ]`),
			R: sel(d(`doc[ *item[ num: $v ] ]`), `$v > 1`)},
		"path-nesting": sel(&algebra.Join{L: d(`doc[ *item[ name: $n ] ]`),
			R: sel(d(`doc[ *item[ num: $v ] ]`), `$zap > 1`), Pred: algebra.MustParseExpr(`$n = $v`)}, `$v > 10`),

		"nil-input":       &algebra.Select{Pred: algebra.MustParseExpr(`$n = "x"`)},
		"nil-pushed":      &algebra.SourceQuery{Source: "src"},
		"nil-predicate":   &algebra.Select{From: d(`doc[ *item[ name: $n ] ]`)},
		"nil-expression":  &algebra.MapExpr{From: d(`doc[ *item[ name: $n ] ]`), Col: "$m"},
		"nil-join-pred":   &algebra.Join{L: d(`doc[ *item[ name: $n ] ]`), R: d(`doc[ *item[ num: $v ] ]`)},
		"doc-and-input":   &algebra.Bind{Doc: "docs", From: lit, F: filter.MustParse(`doc[ *item[ name: $n ] ]`)},
		"no-source":       &algebra.Bind{F: filter.MustParse(`item[ name: $n ]`)},
		"bind-unknown":    &algebra.Bind{From: lit, Col: "$w", F: filter.MustParse(`item[ name: $m ]`)},
		"bind-rebinds":    &algebra.Bind{From: lit, Col: "$x", F: filter.MustParse(`item[ name: $n ]`)},
		"map-duplicate":   &algebra.MapExpr{From: lit, Col: "$x", E: algebra.MustParseExpr(`$n = "a"`)},
		"map-unbound":     &algebra.MapExpr{From: lit, Col: "$m", E: algebra.MustParseExpr(`$q = "a"`)},
		"group-keys":      &algebra.Group{From: lit, Keys: []string{"$n", "$k", "$g"}, Into: "$g"},
		"sort-unknown":    &algebra.Sort{From: &algebra.Distinct{From: lit}, Cols: []string{"$x", "$s"}},
		"tree-unbound":    &algebra.TreeOp{From: lit, C: algebra.MustParseCons(`e[ a: $n, b: $gone ]`)},
		"intersect-arity": &algebra.Intersect{L: lit, R: d(`doc[ *item[ name: $n ] ]`)},
		"djoin-duplicate": &algebra.DJoin{L: lit, R: d(`doc[ *item[ name: $n ] ]`)},
		"pushed-docless": &algebra.SourceQuery{Source: "src", Plan: &algebra.Bind{From: d(`doc[ *item@$i ]`),
			Col: "$i", F: filter.MustParse(`item[ name: $n ]`)}},
		"pushed-join": &algebra.SourceQuery{Source: "src", Plan: &algebra.Join{
			L: d(`doc[ *item[ name: $n ] ]`), R: d(`doc[ *item[ num: $v ] ]`), Pred: algebra.MustParseExpr(`$n = $v`)}},
		"pushed-distinct": &algebra.SourceQuery{Source: "src", Plan: &algebra.Distinct{From: d(`doc[ *item[ name: $n ] ]`)}},
		"pushed-djoin-inner": &algebra.DJoin{L: d(`doc[ *item[ name: $n ] ]`), R: &algebra.SourceQuery{Source: "src",
			Plan: sel(d(`doc[ *item[ num: $v ] ]`), `$v = $n AND $v = $ghost`)}},
		"skolem-consistent": &algebra.Union{
			L: tree(&algebra.Cons{Label: "p", Skolem: "person", SkolemArgs: []string{"$n"}}),
			R: tree(&algebra.Cons{Label: "q", Skolem: "person", SkolemArgs: []string{"$v"}}),
		},
	}
}

// typePlans are the plans of the inference tests, over typeConfig.
func typePlans() map[string]algebra.Op {
	worksBind := bind("works", `works[ *work[ artist: $a, title: $t, style: $s ] ]`)
	proj := &algebra.Project{From: sel(worksBind, `$s = "x"`), Cols: []string{"$artist=$a", "$t"}}
	mapped := &algebra.MapExpr{From: proj, Col: "$flag", E: algebra.MustParseExpr(`$t = "y"`)}
	artBind := bind("artifacts", `set[ *class[ artifact[ tuple[ title: $t2, price: $p ] ] ] ]`)
	join := &algebra.Join{L: mapped, R: artBind, Pred: algebra.MustParseExpr(`$t = $t2`)}
	grp := &algebra.Group{From: &algebra.Distinct{From: &algebra.Sort{From: join, Cols: []string{"$t"}}},
		Keys: []string{"$artist", "$p"}, Into: "$rows"}
	dj := &algebra.DJoin{L: bind("works", `works@$doc2`), R: &algebra.SourceQuery{Source: "src",
		Plan: &algebra.Bind{Col: "$doc2", F: filter.MustParse(`work[ artist: $a2 ]`)}}}
	dj2 := &algebra.DJoin{L: bind("works", `works[ *work@$w ]`), R: &algebra.SourceQuery{Source: "src",
		Plan: &algebra.Bind{Col: "$w", F: filter.MustParse(`work[ artist: $a2 ]`)}}}
	lit := &algebra.Literal{T: tab.New("$a2")}
	tree := &algebra.TreeOp{From: bind("works", `works[ *work[ artist: $a, title: $t ] ]`),
		C: algebra.MustParseCons(`entry[ by: $a, what: $t ]`), OutCol: "$e"}
	return map[string]algebra.Op{
		"bind-doc":        bind("docs", `doc[ *item[ name: $n, num: $v ] ]`),
		"extent-wrapped":  bind("artifacts", `set[ *class[ artifact[ tuple[ title: $t, year: $y ] ] ] ]`),
		"incompatible":    bind("docs", `doc[ *work[ artist: $a ] ]`),
		"all-operators":   grp,
		"djoin-dead":      dj,
		"djoin":           dj2,
		"union":           &algebra.Union{L: dj2, R: dj2},
		"intersect":       &algebra.Intersect{L: dj2, R: dj2},
		"empty-literal":   lit,
		"union-dead":      &algebra.Union{L: lit, R: lit},
		"tree":            tree,
		"tree-reread":     &algebra.Bind{From: tree, Col: "$e", F: filter.MustParse(`entry[ by: $b ]`)},
		"render":          sel(bind("docs", `doc[ *item[ num: $v ] ]`), `$v > 1`),
		"union-positions": &algebra.Union{L: bind("docs", `doc[ *item[ name: $n, num: $v ] ]`), R: bind("docs", `doc[ *item[ num: $v, name: $n ] ]`)},
	}
}

// optimizerPlans are the plans of the optimizer tests, each with the
// options its test optimizes under.
func optimizerPlans() map[string]struct {
	plan algebra.Op
	opts optimizer.Options
} {
	cultural, _, _ := optimizer.CulturalOpts(10)
	assumed := cultural
	assumed.Assume = []optimizer.Containment{{Drop: "artifacts", Keep: "works"}}
	typedWorks := optimizer.Options{Structures: typecheck.NewSchemas(
		map[string]capability.StructureRef{"works": optimizer.WorksStructure()})}
	view := optimizer.ViewPlan(optimizer.ViewRows(), `doc[ *w($t, $a) := work[ title: $t, artist: $a, more: $fields ] ]`)
	titles := tab.New("$t")
	for _, s := range []string{"Ta", "Tb", "Tc"} {
		titles.Add(tab.AtomCell(data.String(s)))
	}
	o2 := func(src string) *algebra.SourceQuery {
		return &algebra.SourceQuery{Source: "o2artifact", Plan: bind("artifacts", src)}
	}
	type entry = struct {
		plan algebra.Op
		opts optimizer.Options
	}
	return map[string]entry{
		"split-bind-doc":  {bind("works", `works[ *work[ title: $t, *($fields) ] ]`), cultural},
		"split-doc-var":   {bind("works", `works[ *work@$w[ title: $t ] ]`), cultural},
		"compose-view":    {&algebra.Bind{From: view, Col: "$doc", F: filter.MustParse(`doc[ *work[ title: $qt, more.cplace: $cl ] ]`)}, optimizer.Options{}},
		"compose-missing": {&algebra.Bind{From: view, Col: "$doc", F: filter.MustParse(`doc[ *work[ title: $qt, price: $pr ] ]`)}, optimizer.Options{}},
		"select-pushdown": {sel(&algebra.Join{L: bind("works", `works[ *work[ title: $t ] ]`),
			R: bind("works", `works[ *work[ title: $t2, style: $s ] ]`), Pred: algebra.MustParseExpr(`$t = $t2`)},
			`$s = "Impressionist" AND $t != "x"`), cultural},
		"project-stack": {&algebra.Project{From: &algebra.Project{From: &algebra.Literal{T: tab.New("$a", "$b")},
			Cols: []string{"$x=$a", "$b"}}, Cols: []string{"$y=$x"}}, optimizer.Options{}},
		"type-driven": {bind("works", `works[ *work[ artist: $a, title: $t, style: $s, size: $si, cplace: $cl ] ]`), typedWorks},
		"idempotent":  {sel(bind("works", `works[ *work[ title: $t ] ]`), `$t = "Ta"`), optimizer.Options{}},
		"q2-like":     {optimizer.Q2LikePlan(), cultural},
		"round3-swap": {&algebra.Join{L: o2(`set[ *class[ artifact.tuple[ title: $t2, price: $p ] ] ]`),
			R: &algebra.Literal{T: titles}, Pred: algebra.MustParseExpr(`$t2 = $t`)}, cultural},
		"round3-non-equi": {&algebra.Join{L: bind("works", `works[ *work[ title: $t ] ]`),
			R: o2(`set[ *class[ artifact.tuple[ price: $p ] ] ]`), Pred: algebra.MustParseExpr(`$p > 100`)}, cultural},
		"equivalences": {sel(bind("works", `works[ *work[ title: $t, style: $s ] ]`), `$s = "Impressionist"`), cultural},
		"prune": {&algebra.Project{From: &algebra.Join{L: bind("artifacts", `set[ *class[ artifact.tuple[ title: $t ] ] ]`),
			R: bind("works", `works[ *work[ title: $t', style: $s ] ]`), Pred: algebra.MustParseExpr(`$t = $t'`)},
			Cols: []string{"$t", "$s"}}, assumed},
		"label-vars": {bind("persons", `set[ *class[ person.tuple[ *~$l: $v ] ] ]`), cultural},
		"merge-joins": {&algebra.Join{L: o2(`set[ *class[ artifact.tuple[ title: $t, creator: $c ] ] ]`),
			R:    &algebra.SourceQuery{Source: "o2artifact", Plan: bind("persons", `set[ *class[ person.tuple[ name: $n ] ] ]`)},
			Pred: algebra.MustParseExpr(`$c = $n`)}, cultural},
		"wais-join": {&algebra.Join{L: &algebra.SourceQuery{Source: "xmlartwork", Plan: bind("works", `works[ *work@$w ]`)},
			R: &algebra.SourceQuery{Source: "xmlartwork", Plan: bind("works", `works[ *work@$w2 ]`)}, Pred: algebra.TrueExpr()}, cultural},
		"broken-input":  {sel(bind("works", `works[ *work[ title: $t ] ]`), `$ghost = 1`), cultural},
		"typed-orig":    {sel(bind("docs", `doc[ *item[ name: $n ] ]`), `$n = "x"`), optimizer.TypedOpts()},
		"typed-broken":  {sel(bind("docs", `doc[ *item[ num: $n ] ]`), `$n = "x"`), optimizer.TypedOpts()},
		"typed-refined": {bind("docs", `doc[ *item[ name@$f ] ]`), optimizer.TypedOpts()},
	}
}

// mutate rebuilds plan with the i-th seeded mutation: a projected column
// dropped, a selection variable renamed, a union branch a column short, or
// a DJoin's inner parameter renamed.
func mutate(plan algebra.Op, i int) algebra.Op {
	cols := plan.Columns()
	switch i % 4 {
	case 0:
		if out, ok := replaceFirst(plan, func(op algebra.Op) algebra.Op {
			if p, ok := op.(*algebra.Project); ok && len(p.Cols) > 1 {
				return &algebra.Project{From: p.From, Cols: p.Cols[1:]}
			}
			return nil
		}); ok {
			return out
		}
		return &algebra.Sort{From: &algebra.Project{From: plan, Cols: cols[1:]}, Cols: cols[:1]}
	case 1:
		if out, ok := replaceFirst(plan, func(op algebra.Op) algebra.Op {
			if s, ok := op.(*algebra.Select); ok {
				v := s.Pred.Vars()[0]
				return sel(s.From, strings.Replace(s.Pred.String(), v, v+"x", 1))
			}
			return nil
		}); ok {
			return out
		}
		return sel(plan, cols[0]+`x != "zzz"`)
	case 2:
		return &algebra.Union{L: plan, R: &algebra.Project{From: plan, Cols: cols[:len(cols)-1]}}
	default:
		return &algebra.DJoin{L: plan, R: sel(bind("works", `works[ *work[ title: $tq ] ]`), `$tq = `+cols[0]+`x`)}
	}
}

// replaceFirst rebuilds op with the first operator, in pre-order, that fn
// replaces.
func replaceFirst(op algebra.Op, fn func(algebra.Op) algebra.Op) (algebra.Op, bool) {
	if r := fn(op); r != nil {
		return r, true
	}
	done := false
	out := algebra.MapChildren(op, func(c algebra.Op) algebra.Op {
		if done {
			return c
		}
		r, ok := replaceFirst(c, fn)
		done = ok
		return r
	})
	return out, done
}

// paperMediator is the Section 2 deployment in process: the O₂ and XML-Wais
// wrappers connected, their structures imported and view1 loaded.
func paperMediator(t *testing.T) *mediator.Mediator {
	ow := o2wrap.New("o2artifact", datagen.PaperDB())
	ww := waiswrap.New("xmlartwork", datagen.NewWaisEngine(datagen.PaperWorks()))
	m := mediator.New()
	for _, err := range []error{m.Connect(ow, ow.ExportInterface()), m.Connect(ww, ww.ExportInterface())} {
		if err != nil {
			t.Fatal(err)
		}
	}
	m.ImportStructure("works", ww.ExportStructure(), "Works")
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
	return m
}

func oracleEntries(t *testing.T) []oracleEntry {
	var out []oracleEntry
	add := func(prefix string, plans map[string]algebra.Op, cfg *typecheck.Config) {
		for _, name := range sortedKeys(plans) {
			out = append(out, analyze(prefix+"/"+name, plans[name], cfg))
		}
	}
	add("lint", lintPlans(), lintConfig())
	add("types", typePlans(), typeConfig())
	ops := optimizerPlans()
	for _, name := range sortedKeys(ops) {
		e := ops[name]
		out = append(out, analyze("optimizer/"+name, e.plan, configOf(e.opts)))
		rounds, _ := optimizer.New(e.opts).Rounds(e.plan)
		for i, r := range rounds {
			out = append(out, analyze(fmt.Sprintf("optimizer/%s/round%d", name, i+1), r, configOf(e.opts)))
		}
	}
	cultural, _, _ := optimizer.CulturalOpts(30)
	for i, plan := range optimizer.RandomPlans(500) {
		out = append(out, analyze(fmt.Sprintf("random/%03d", i), plan, configOf(cultural)))
		out = append(out, analyze(fmt.Sprintf("random/%03d/mutated", i), mutate(plan, i), configOf(cultural)))
	}
	m := paperMediator(t)
	for _, q := range []struct{ name, src string }{
		{"Q1", datagen.Q1Src}, {"Q2", datagen.Q2Src},
		{"Q1-xquery", datagen.Q1XQuerySrc}, {"Q2-xquery", datagen.Q2XQuerySrc},
		{"descendant-xquery", `doc("works")/works//technique`},
	} {
		naive, err := m.Compose(q.src)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		out = append(out, analyzeAt(q.name+"/input", m, naive))
		rounds, _ := optimizer.New(m.OptimizerOptions()).Rounds(naive)
		for i, r := range rounds {
			out = append(out, analyzeAt(fmt.Sprintf("%s/round%d", q.name, i+1), m, r))
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestAnalysisOracle(t *testing.T) {
	got := oracleEntries(t)
	seen := map[string]bool{}
	for _, e := range got {
		for _, d := range e.Diags {
			seen[d.Code] = true
		}
	}
	for _, code := range []string{
		typecheck.CodeNilPlan, typecheck.CodeUnboundVar, typecheck.CodeUnknownColumn, typecheck.CodeDuplicateCol,
		typecheck.CodeArity, typecheck.CodeSkolemArity, typecheck.CodePattern, typecheck.CodeCapability,
		typecheck.CodeUnknownDoc, typecheck.CodeMalformed, typecheck.CodeBatchShape,
	} {
		if !seen[code] {
			t.Errorf("no recorded plan gets a %s diagnostic", code)
		}
	}
	path := filepath.Join("testdata", oracleFile)
	if *updateOracle {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []oracleEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d plans analyzed, the oracle records %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name {
			t.Fatalf("plan %d is %s, the oracle records %s", i, g.Name, w.Name)
		}
		if (len(g.Diags) != 0 || len(w.Diags) != 0) && !reflect.DeepEqual(g.Diags, w.Diags) {
			t.Errorf("%s: diagnostics\n%v\nthe oracle records\n%v", w.Name, g.Diags, w.Diags)
		}
		if g.Render != w.Render {
			t.Errorf("%s: renders\n%s\nthe oracle records\n%s", w.Name, g.Render, w.Render)
		}
	}
}
