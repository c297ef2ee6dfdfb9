package optimizer

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/filter"
	"repro/internal/pattern"
	"repro/internal/tab"
	"repro/internal/typecheck"
)

func worksDoc(n int) *data.Node {
	doc := data.Elem("works")
	for i := 0; i < n; i++ {
		w := data.Elem("work",
			data.Text("artist", "Artist "+string(rune('A'+i%5))),
			data.Text("title", "T"+string(rune('a'+i%7))),
			data.Text("style", "Impressionist"),
			data.Text("size", "10 x 10"),
		)
		if i%3 == 0 {
			w.Add(data.Text("cplace", "Giverny"))
		}
		doc.Add(w)
	}
	return doc
}

func evalCtx(n int) *algebra.Context {
	ctx := algebra.NewContext()
	ctx.Catalog["works"] = data.Forest{worksDoc(n)}
	return ctx
}

func TestSplitBindDoc(t *testing.T) {
	b := &algebra.Bind{Doc: "works",
		F: filter.MustParse(`works[ *work[ title: $t, *($fields) ] ]`)}
	fresh := newFreshVars(b)
	docBind, residual, ok := SplitBindDoc(b, fresh.fresh)
	if !ok {
		t.Fatal("split failed")
	}
	residual.From = docBind
	ctx1, ctx2 := evalCtx(9), evalCtx(9)
	direct, err := exec.RunSerial(b, ctx1)
	if err != nil {
		t.Fatal(err)
	}
	split, err := exec.RunSerial(residual, ctx2)
	if err != nil {
		t.Fatal(err)
	}
	// The split plan carries the extra document variable; project it away.
	proj := split.Project(direct.Cols...)
	if !direct.EqualUnordered(proj) {
		t.Errorf("split changed semantics:\n%s\nvs\n%s", direct, proj)
	}
	// With a pre-existing document variable, it is reused.
	b2 := &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w[ title: $t ] ]`)}
	db2, _, ok := SplitBindDoc(b2, fresh.fresh)
	if !ok || !strings.Contains(db2.F.String(), "$w") {
		t.Errorf("doc var not reused: %v", db2.F)
	}
	// Non-splittable shapes.
	for _, src := range []string{`works[ *work@$w ]`, `works[ work[ a: $x ] ]`, `works@$r[ *work[ a: $x ] ]`} {
		nb := &algebra.Bind{Doc: "works", F: filter.MustParse(src)}
		if _, _, ok := SplitBindDoc(nb, fresh.fresh); ok {
			t.Errorf("split should fail for %s", src)
		}
	}
}

// viewPlan builds a small Tree over literal rows for composition tests.
func viewPlan(rows *tab.Tab, cons string) *algebra.TreeOp {
	return &algebra.TreeOp{From: &algebra.Literal{T: rows}, C: algebra.MustParseCons(cons)}
}

func viewRows() *tab.Tab {
	tb := tab.New("$t", "$a", "$fields")
	add := func(title, artist string, extra ...*data.Node) {
		tb.Add(tab.AtomCell(data.String(title)), tab.AtomCell(data.String(artist)),
			tab.SeqCell(data.Forest(extra)))
	}
	add("Nympheas", "Monet", data.Text("cplace", "Giverny"))
	add("Bridge", "Monet")
	add("Dancers", "Degas", data.Text("cplace", "Paris"))
	add("Dancers", "Degas", data.Text("cplace", "Paris")) // duplicate row: one group
	return tb
}

func TestEliminateBindTreeBasic(t *testing.T) {
	tree := viewPlan(viewRows(), `doc[ *w($t, $a) := work[ title: $t, artist: $a, more: $fields ] ]`)
	bind := &algebra.Bind{From: tree, Col: "$doc",
		F: filter.MustParse(`doc[ *work[ title: $qt, more.cplace: $cl ] ]`)}
	out, ok := EliminateBindTree(bind, tree, newFreshVars(bind).fresh)
	if !ok {
		t.Fatal("composition failed")
	}
	if strings.Contains(algebra.Describe(out), "Tree(") {
		t.Errorf("Tree not eliminated:\n%s", algebra.Describe(out))
	}
	want, err := exec.RunSerial(bind, algebra.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.RunSerial(out, algebra.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if !want.Project("$qt", "$cl").EqualUnordered(got) {
		t.Errorf("composition changed semantics:\nwant\n%s\ngot\n%s", want.Project("$qt", "$cl"), got)
	}
	if got.Len() != 2 {
		t.Errorf("rows = %d (Nympheas, Dancers)", got.Len())
	}
}

func TestEliminateBindTreeConstants(t *testing.T) {
	tree := viewPlan(viewRows(), `doc[ *w($t) := work[ title: $t, kind: "painting" ] ]`)
	// Constant agreement: filter checks the constructed constant.
	ok1 := &algebra.Bind{From: tree, Col: "$doc",
		F: filter.MustParse(`doc[ *work[ title: $qt, kind: "painting" ] ]`)}
	out, ok := EliminateBindTree(ok1, tree, newFreshVars(ok1).fresh)
	if !ok {
		t.Fatal("composition failed")
	}
	got, err := exec.RunSerial(out, algebra.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Errorf("rows = %d, want 3 distinct titles", got.Len())
	}
	// Constant disagreement: statically empty.
	bad := &algebra.Bind{From: tree, Col: "$doc",
		F: filter.MustParse(`doc[ *work[ title: $qt, kind: "sculpture" ] ]`)}
	out2, ok := EliminateBindTree(bad, tree, newFreshVars(bad).fresh)
	if !ok {
		t.Fatal("composition failed")
	}
	if _, isLit := out2.(*algebra.Literal); !isLit {
		t.Errorf("disagreeing constant should yield an empty literal:\n%s", algebra.Describe(out2))
	}
	// Constant bound to a variable.
	cv := &algebra.Bind{From: tree, Col: "$doc",
		F: filter.MustParse(`doc[ *work[ title: $qt, kind: $k ] ]`)}
	out3, ok := EliminateBindTree(cv, tree, newFreshVars(cv).fresh)
	if !ok {
		t.Fatal("composition failed")
	}
	got3, err := exec.RunSerial(out3, algebra.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := got3.Rows[0][got3.ColIndex("$k")].AsAtom(); a.S != "painting" {
		t.Errorf("$k = %v", a)
	}
}

func TestEliminateBindTreeMissingElement(t *testing.T) {
	tree := viewPlan(viewRows(), `doc[ *w($t) := work[ title: $t ] ]`)
	bind := &algebra.Bind{From: tree, Col: "$doc",
		F: filter.MustParse(`doc[ *work[ ghost: $g ] ]`)}
	out, ok := EliminateBindTree(bind, tree, newFreshVars(bind).fresh)
	if !ok {
		t.Fatal("composition failed")
	}
	got, err := exec.RunSerial(out, algebra.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("rows = %d, want 0 (element never constructed)", got.Len())
	}
}

func TestEliminateBindTreeRefusesCrossStars(t *testing.T) {
	tree := viewPlan(viewRows(), `doc[ *w($t) := work[ title: $t ], *v($a) := artist[ name: $a ] ]`)
	bind := &algebra.Bind{From: tree, Col: "$doc",
		F: filter.MustParse(`doc[ *work[ title: $qt ], *artist[ name: $qa ] ]`)}
	if _, ok := EliminateBindTree(bind, tree, newFreshVars(bind).fresh); ok {
		t.Error("two var-binding star items must refuse composition (cross-product hazard)")
	}
}

func TestEliminateBindTreeSkolemLabelVar(t *testing.T) {
	tree := viewPlan(viewRows(), `doc[ *w($t) := work[ title: $t ] ]`)
	// label variable over a fixed construction label binds the constant
	bind := &algebra.Bind{From: tree, Col: "$doc",
		F: filter.MustParse(`doc[ *~$l[ title: $qt ] ]`)}
	out, ok := EliminateBindTree(bind, tree, newFreshVars(bind).fresh)
	if !ok {
		t.Fatal("composition failed")
	}
	got, err := exec.RunSerial(out, algebra.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := got.Rows[0][got.ColIndex("$l")].AsAtom(); a.S != "work" {
		t.Errorf("$l = %v", a)
	}
}

func TestSelectionPushdownThroughJoin(t *testing.T) {
	l := &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work[ title: $t ] ]`)}
	r := &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work[ title: $t2, style: $s ] ]`)}
	plan := &algebra.Select{
		From: &algebra.Join{L: l, R: r, Pred: algebra.MustParseExpr(`$t = $t2`)},
		Pred: algebra.MustParseExpr(`$s = "Impressionist" AND $t != "x"`),
	}
	out := pushSelections(plan)
	s := algebra.Describe(out)
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if !strings.Contains(lines[0], "Join") {
		t.Errorf("selects not pushed below join:\n%s", s)
	}
	// Semantics preserved.
	a, err := exec.RunSerial(plan, evalCtx(10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := exec.RunSerial(out, evalCtx(10))
	if err != nil {
		t.Fatal(err)
	}
	if !a.EqualUnordered(b) {
		t.Error("pushdown changed semantics")
	}
}

func TestSimplifyProjects(t *testing.T) {
	base := &algebra.Literal{T: tab.New("$a", "$b")}
	plan := &algebra.Project{
		From: &algebra.Project{From: base, Cols: []string{"$x=$a", "$b"}},
		Cols: []string{"$y=$x"},
	}
	out := simplifyProjects(plan)
	p, ok := out.(*algebra.Project)
	if !ok || len(p.Cols) != 1 || p.Cols[0] != "$y=$a" {
		t.Errorf("collapsed projection = %s", algebra.Describe(out))
	}
	ident := &algebra.Project{From: base, Cols: []string{"$a", "$b"}}
	if simplifyProjects(ident) != base {
		t.Error("identity projection not removed")
	}
}

func worksStructure() capability.StructureRef {
	m := pattern.MustParseModel(`model artworks
Works := works[ *&Work ]
Work  := work[ artist: String, title: String, style: String, size: String, *&Field ]
Field := Symbol[ *( Int | Float | Bool | String | &Field ) ]`)
	return capability.StructureRef{Model: m, Pattern: "Works"}
}

func TestTypeDrivenFilterSimplification(t *testing.T) {
	// Figure 7 (lower middle): only title and artist are wanted; mandatory
	// unused items (style, size) are dropped from the filter, the optional
	// cplace is kept (it filters).
	o := New(Options{Structures: typecheck.NewSchemas(map[string]capability.StructureRef{"works": worksStructure()})})
	b := &algebra.Bind{Doc: "works",
		F: filter.MustParse(`works[ *work[ artist: $a, title: $t, style: $s, size: $si, cplace: $cl ] ]`)}
	out := o.pruneColumns(b, algebra.SetOf([]string{"$t", "$cl"}))
	nb := out.(*algebra.Bind)
	fs := nb.F.String()
	if strings.Contains(fs, "style") || strings.Contains(fs, "size") || strings.Contains(fs, "artist") {
		t.Errorf("mandatory unused items not dropped: %s", fs)
	}
	if !strings.Contains(fs, "cplace") {
		t.Errorf("optional item wrongly dropped: %s", fs)
	}
	// Semantics on data that satisfies the structure are unchanged for the
	// needed columns.
	a, err := exec.RunSerial(b, evalCtx(10))
	if err != nil {
		t.Fatal(err)
	}
	bres, err := exec.RunSerial(nb, evalCtx(10))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Project("$t", "$cl").EqualUnordered(bres.Project("$t", "$cl")) {
		t.Error("type-driven simplification changed semantics")
	}
}

func TestTypeSimplificationKeepsConstraints(t *testing.T) {
	o := New(Options{Structures: typecheck.NewSchemas(map[string]capability.StructureRef{"works": worksStructure()})})
	b := &algebra.Bind{Doc: "works",
		F: filter.MustParse(`works[ *work[ title: $t, style: "Impressionist" ] ]`)}
	out := o.pruneColumns(b, algebra.SetOf([]string{"$t"}))
	if !strings.Contains(out.(*algebra.Bind).F.String(), "Impressionist") {
		t.Error("constant constraints must never be dropped")
	}
}

func TestOptimizeIsIdempotentOnSimplePlans(t *testing.T) {
	o := New(Options{})
	plan := &algebra.Select{
		From: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work[ title: $t ] ]`)},
		Pred: algebra.MustParseExpr(`$t = "Ta"`),
	}
	once, _ := o.Optimize(plan)
	twice, _ := o.Optimize(once)
	if algebra.Describe(once) != algebra.Describe(twice) {
		t.Errorf("not idempotent:\n%s\nvs\n%s", algebra.Describe(once), algebra.Describe(twice))
	}
}

func TestPropertyPushdownPreservesSemantics(t *testing.T) {
	f := func(nWorks uint8, constIdx uint8) bool {
		n := int(nWorks%16) + 1
		title := "T" + string(rune('a'+constIdx%7))
		plan := &algebra.Select{
			From: &algebra.Join{
				L:    &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work[ title: $t ] ]`)},
				R:    &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work[ title: $t2, artist: $a ] ]`)},
				Pred: algebra.MustParseExpr(`$t = $t2`),
			},
			Pred: algebra.Eq(algebra.Var{Name: "$t"}, algebra.Const{Atom: data.String(title)}),
		}
		out := pushSelections(plan)
		a, err1 := exec.RunSerial(plan, evalCtx(n))
		b, err2 := exec.RunSerial(out, evalCtx(n))
		if err1 != nil || err2 != nil {
			return false
		}
		return a.EqualUnordered(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPushableTable pins what round 2 pushes, conjunct by conjunct, over
// O₂'s artifacts. The table is typecheck's (typecheck.TestPredFeasibleTable);
// the optimizer's one own answer is the bare constant, which it keeps at the
// mediator: no wrapper was ever handed one to translate.
func TestPushableTable(t *testing.T) {
	opts, _, _ := culturalOpts(10)
	iface := opts.Interfaces["o2artifact"]
	for _, tc := range []struct {
		conj string
		want bool
	}{
		{`$y > 1800`, true},
		{`$p < 200000 AND $y >= 1800`, true},
		{`$c = $a`, true}, // $a free: arrives as a DJoin parameter
		{`$p < $y * 100`, true},
		{`NOT ($y > 1800) OR $t = "x"`, true},
		{`true`, false},
		{`NOT (false)`, false},
		{`true OR $y > 1800`, false},
		{`contains($t, "x")`, false}, // Wais's function, not O₂'s
	} {
		if got := pushable(iface, algebra.MustParseExpr(tc.conj), []string{"artifacts"}); got != tc.want {
			t.Errorf("pushable(%s) = %v, want %v", tc.conj, got, tc.want)
		}
	}
}
