package typecheck

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/filter"
	"repro/internal/pattern"
	"repro/internal/tab"
)

// testConfig declares two documents: "docs" (doc[ *item[ name, num ] ])
// and "works" (the paper's Artworks structure, wrapped extent style).
func testConfig() *Config {
	docsModel := pattern.MustParseModel(`model docs
Doc := doc[ *&Item ]
Item := item[ name: String, num: Int ]`)
	worksModel := pattern.MustParseModel(`model Artworks_Structure
Works := works[ *&Work ]
Work  := work[ artist: String, title: String, style: String ]`)
	// "classes" mimics the O2 export: the declared pattern describes one
	// extent member while filters match the set-wrapped extent.
	classModel := pattern.MustParseModel(`model o2
Artifact := class[ artifact: tuple[ title: String, year: Int, price: Int ] ]`)
	return &Config{Structures: NewSchemas(map[string]Structure{
		"docs":      {Model: docsModel, Pattern: "Doc"},
		"works":     {Model: worksModel, Pattern: "Works"},
		"artifacts": {Model: classModel, Pattern: "Artifact"},
	})}
}

func wantType(t *testing.T, rt *RowType, col, want string) {
	t.Helper()
	p := rt.Type(col)
	if p == nil {
		if want != "Any" {
			t.Errorf("%s: type = Any, want %s", col, want)
		}
		return
	}
	if p.String() != want {
		t.Errorf("%s: type = %s, want %s", col, p, want)
	}
}

func TestInferBindDoc(t *testing.T) {
	plan := &algebra.Bind{Doc: "docs",
		F: filter.MustParse(`doc[ *item[ name: $n, num: $v ] ]`)}
	ann, err := Infer(plan, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ann.Root.Empty {
		t.Fatalf("root unexpectedly empty: %s", ann.Root)
	}
	wantType(t, ann.Root, "$n", "String")
	wantType(t, ann.Root, "$v", "Int")
}

func TestInferBindExtentWrapped(t *testing.T) {
	// The declared pattern describes one class member; the filter matches
	// the set-wrapped extent (the O2 export convention).
	plan := &algebra.Bind{Doc: "artifacts",
		F: filter.MustParse(`set[ *class[ artifact[ tuple[ title: $t, year: $y ] ] ] ]`)}
	ann, err := Infer(plan, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ann.Root.Empty {
		t.Fatalf("root unexpectedly empty: %s", ann.Root)
	}
	wantType(t, ann.Root, "$t", "String")
	wantType(t, ann.Root, "$y", "Int")
}

func TestInferIncompatibleFilterIsEmpty(t *testing.T) {
	plan := &algebra.Bind{Doc: "docs",
		F: filter.MustParse(`doc[ *work[ artist: $a ] ]`)}
	ann, err := Infer(plan, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !ann.Root.Empty {
		t.Fatalf("filter over wrong labels should infer empty, got %s", ann.Root)
	}
	// Variables are still surfaced for column coverage.
	if _, ok := ann.Root.Types["$a"]; !ok {
		t.Fatal("incompatible filter must still surface its variables")
	}
}

// TestInferAllOperators runs inference over a plan exercising every
// algebra operator and checks the propagated types. (yat-lint's
// typecheck-coverage analyzer requires every Op constructor to appear in
// this package's tests.)
func TestInferAllOperators(t *testing.T) {
	cfg := testConfig()

	worksBind := &algebra.Bind{Doc: "works",
		F: filter.MustParse(`works[ *work[ artist: $a, title: $t, style: $s ] ]`)}
	sel := &algebra.Select{From: worksBind, Pred: algebra.MustParseExpr(`$s = "x"`)}
	proj := &algebra.Project{From: sel, Cols: []string{"$artist=$a", "$t"}}
	mapped := &algebra.MapExpr{From: proj, Col: "$flag", E: algebra.MustParseExpr(`$t = "y"`)}

	artBind := &algebra.Bind{Doc: "artifacts",
		F: filter.MustParse(`set[ *class[ artifact[ tuple[ title: $t2, price: $p ] ] ] ]`)}
	join := &algebra.Join{L: mapped, R: artBind,
		Pred: algebra.MustParseExpr(`$t = $t2`)}

	sorted := &algebra.Sort{From: join, Cols: []string{"$t"}}
	dist := &algebra.Distinct{From: sorted}
	grp := &algebra.Group{From: dist, Keys: []string{"$artist", "$p"}, Into: "$rows"}

	ann, err := Infer(grp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := ann.Root
	wantType(t, rt, "$artist", "String")
	wantType(t, rt, "$p", "Int")
	wantType(t, rt, "$rows", "Any")
	wantType(t, ann.Types[mapped], "$flag", "Bool")
	wantType(t, ann.Types[join], "$t2", "String")

	// DJoin: the inner plan sees outer columns as parameters.
	inner := &algebra.SourceQuery{Source: "src", Plan: &algebra.Bind{
		Col: "$doc2", F: filter.MustParse(`work[ artist: $a2 ]`)}}
	doc := &algebra.Doc{Name: "works", Col: "$doc2"}
	dj := &algebra.DJoin{L: doc, R: inner}
	ann2, err := Infer(dj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantType(t, ann2.Root, "$doc2", "&Works")
	// $doc2 is typed works[ *&Work ]; the inner filter binds one work's
	// artist... the works root does not match `work[...]`, so the inner
	// bind is dead — but through a union alternative it would not be. The
	// interesting claim: the filter aligned against &Works is incompatible.
	if !ann2.Root.Empty {
		t.Fatalf("inner filter over works root should be empty, got %s", ann2.Root)
	}

	// A compatible inner parameter bind.
	inner2 := &algebra.SourceQuery{Source: "src", Plan: &algebra.Bind{
		Col: "$w", F: filter.MustParse(`work[ artist: $a2 ]`)}}
	outer := &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w ]`)}
	dj2 := &algebra.DJoin{L: outer, R: inner2}
	ann3, err := Infer(dj2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ann3.Root.Empty {
		t.Fatalf("compatible DJoin unexpectedly empty: %s", ann3.Root)
	}
	wantType(t, ann3.Root, "$a2", "String")

	// Union joins column types positionally; Intersect keeps the left's.
	lit := &algebra.Literal{T: tab.New("$a2")}
	un := &algebra.Union{L: dj2, R: dj2}
	ann4, err := Infer(un, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantType(t, ann4.Root, "$a2", "String")

	inter := &algebra.Intersect{L: dj2, R: dj2}
	ann5, err := Infer(inter, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantType(t, ann5.Root, "$a2", "String")

	// An empty literal is provably dead; unioning it keeps the other
	// branch's type.
	annLit, err := Infer(lit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !annLit.Root.Empty {
		t.Fatal("empty literal should infer empty")
	}
	unDead := &algebra.Union{L: lit, R: lit}
	annDead, err := Infer(unDead, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !annDead.Root.Empty {
		t.Fatal("union of two empty branches should be empty")
	}
}

func TestInferTreeOpComposition(t *testing.T) {
	cfg := testConfig()
	bind := &algebra.Bind{Doc: "works",
		F: filter.MustParse(`works[ *work[ artist: $a, title: $t ] ]`)}
	cons := algebra.MustParseCons(`entry[ by: $a, what: $t ]`)
	tree := &algebra.TreeOp{From: bind, C: cons, OutCol: "$e"}
	ann, err := Infer(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := ann.Root.Type("$e")
	if got == nil {
		t.Fatal("constructed column untyped")
	}
	want := "entry[ by: String, what: String ]"
	if got.String() != want {
		t.Fatalf("cons type = %s, want %s", got, want)
	}

	// Composition: binding over the constructed column re-derives the
	// same content types.
	reread := &algebra.Bind{From: tree, Col: "$e",
		F: filter.MustParse(`entry[ by: $b ]`)}
	ann2, err := Infer(reread, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantType(t, ann2.Root, "$b", "String")
	if ann2.Root.Empty {
		t.Fatalf("composition unexpectedly empty: %s", ann2.Root)
	}
}

func TestCellConforms(t *testing.T) {
	m := pattern.NewModel("m")
	str := pattern.Str()
	workP := pattern.MustParse(`work[ artist: String ]`)
	cases := []struct {
		p    *pattern.P
		c    tab.Cell
		want bool
	}{
		{str, tab.AtomCell(data.String("x")), true},
		{str, tab.AtomCell(data.Int(3)), false},
		{pattern.Float(), tab.AtomCell(data.Int(3)), true}, // Int <: Float
		{nil, tab.AtomCell(data.Int(3)), true},
		{pattern.Any(), tab.AtomCell(data.Int(3)), true},
		{str, tab.Null(), true},
		{workP, tab.TreeCell(data.Elem("work", data.Text("artist", "p"))), true},
		{workP, tab.TreeCell(data.Elem("work", data.IntLeaf("artist", 5))), false},
		{workP, tab.TreeCell(data.Elem("other")), false},
		// Labeled leaf against an atomic content type (wrappers ship some
		// bound variables as leaf trees rather than bare atoms).
		{str, tab.TreeCell(data.Text("title", "x")), true},
	}
	for i, c := range cases {
		if got := CellConforms(m, c.p, c.c); got != c.want {
			t.Errorf("#%d: CellConforms(%v, %v) = %v, want %v", i, c.p, c.c, got, c.want)
		}
	}
}

func TestRender(t *testing.T) {
	plan := &algebra.Select{
		From: &algebra.Bind{Doc: "docs",
			F: filter.MustParse(`doc[ *item[ num: $v ] ]`)},
		Pred: algebra.MustParseExpr(`$v > 1`),
	}
	ann, err := Infer(plan, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := Render(plan, ann)
	for _, want := range []string{":: {$v: Int}", "Select", "Bind(docs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render output lacks %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "  ") {
		t.Fatalf("Render should mirror Describe's indentation:\n%s", out)
	}
}
