package algebra_test

import (
	"context"
	. "repro/internal/algebra"
	"repro/internal/exec"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/filter"
	"repro/internal/tab"
)

// figure1Works reproduces the XML collection of works of Figure 1.
func figure1Works() *data.Node {
	return data.Elem("works",
		data.Elem("work",
			data.Text("artist", "Claude Monet"),
			data.Text("title", "Nympheas"),
			data.Text("style", "Impressionist"),
			data.Text("size", "21 x 61"),
			data.Text("cplace", "Giverny"),
		),
		data.Elem("work",
			data.Text("artist", "Claude Monet"),
			data.Text("title", "Waterloo Bridge"),
			data.Text("style", "Impressionist"),
			data.Text("size", "29.2 x 46.4"),
			data.Elem("history", data.Text("technique", "Oil on canvas")),
		),
		data.Elem("work",
			data.Text("artist", "Edgar Degas"),
			data.Text("title", "Dancers"),
			data.Text("style", "Impressionist"),
			data.Text("size", "10 x 10"),
		),
	)
}

func worksCtx() *Context {
	ctx := NewContext()
	ctx.Catalog["artworks"] = data.Forest{figure1Works()}
	return ctx
}

func mustEval(t *testing.T, op Op, ctx *Context) *tab.Tab {
	t.Helper()
	res, err := exec.RunSerial(op, ctx)
	if err != nil {
		t.Fatalf("eval %s: %v", op.Detail(), err)
	}
	return res
}

const fig4FilterSrc = `works[ *work[ artist: $a, title: $t, style: $s, size: $si, *($fields) ] ]`

func TestFigure4BindOperator(t *testing.T) {
	ctx := worksCtx()
	bind := &Bind{Doc: "artworks", F: filter.MustParse(fig4FilterSrc)}
	got := mustEval(t, bind, ctx)
	if got.Len() != 3 {
		t.Fatalf("rows = %d\n%s", got.Len(), got)
	}
	if strings.Join(got.Cols, " ") != "$a $t $s $si $fields" {
		t.Errorf("cols = %v", got.Cols)
	}
	if ctx.Stats.BindRows != 3 {
		t.Errorf("BindRows stat = %d", ctx.Stats.BindRows)
	}
}

func TestFigure4TreeOperator(t *testing.T) {
	// Tree regroups works per artist: artists[ artist*($a)[ name, titles ] ]
	ctx := worksCtx()
	plan := &TreeOp{
		From: &Bind{Doc: "artworks", F: filter.MustParse(fig4FilterSrc)},
		C:    MustParseCons(`artists[ *($a) artist[ name: $a, *($t) title: $t ] ]`),
	}
	got := mustEval(t, plan, ctx)
	if got.Len() != 1 {
		t.Fatalf("tree rows = %d", got.Len())
	}
	root := got.Rows[0][0].Tree
	if root.Label != "artists" || len(root.Kids) != 2 {
		t.Fatalf("unexpected tree: %s", root)
	}
	monet := root.Kids[0]
	if monet.Child("name").Atom.S != "Claude Monet" {
		t.Errorf("first artist = %v", monet.Child("name"))
	}
	if len(monet.Children("title")) != 2 {
		t.Errorf("Monet titles = %d, want 2", len(monet.Children("title")))
	}
	degas := root.Kids[1]
	if degas.Child("name").Atom.S != "Edgar Degas" || len(degas.Children("title")) != 1 {
		t.Errorf("second artist = %s", degas)
	}
}

func TestSelectProject(t *testing.T) {
	ctx := worksCtx()
	plan := &Project{
		From: &Select{
			From: &Bind{Doc: "artworks", F: filter.MustParse(fig4FilterSrc)},
			Pred: MustParseExpr(`$a = "Claude Monet"`),
		},
		Cols: []string{"$t"},
	}
	got := mustEval(t, plan, ctx)
	if got.Len() != 2 || len(got.Cols) != 1 {
		t.Fatalf("got %s", got)
	}
}

func TestSelectComparisonsAndNullSemantics(t *testing.T) {
	lit := tab.New("$y")
	lit.Add(tab.AtomCell(data.Int(1750)))
	lit.Add(tab.AtomCell(data.Int(1897)))
	lit.Add(tab.Null())
	plan := &Select{From: &Literal{lit}, Pred: MustParseExpr(`$y > 1800`)}
	got := mustEval(t, plan, NewContext())
	if got.Len() != 1 {
		t.Fatalf("rows = %d (null must compare false, not error)", got.Len())
	}
	if a, _ := got.Rows[0][0].AsAtom(); a.I != 1897 {
		t.Errorf("row = %v", got.Rows[0])
	}
}

func TestJoinHashAndNested(t *testing.T) {
	l := tab.New("$a", "$x")
	l.Add(tab.AtomCell(data.String("monet")), tab.AtomCell(data.Int(1)))
	l.Add(tab.AtomCell(data.String("degas")), tab.AtomCell(data.Int(2)))
	r := tab.New("$b", "$y")
	r.Add(tab.AtomCell(data.String("monet")), tab.AtomCell(data.Int(10)))
	r.Add(tab.AtomCell(data.String("monet")), tab.AtomCell(data.Int(11)))
	r.Add(tab.AtomCell(data.String("renoir")), tab.AtomCell(data.Int(12)))

	eq := &Join{L: &Literal{l}, R: &Literal{r}, Pred: MustParseExpr(`$a = $b`)}
	got := mustEval(t, eq, NewContext())
	if got.Len() != 2 {
		t.Fatalf("equi join rows = %d", got.Len())
	}
	// theta join falls back to nested loops
	theta := &Join{L: &Literal{l}, R: &Literal{r}, Pred: MustParseExpr(`$x < $y`)}
	got2 := mustEval(t, theta, NewContext())
	if got2.Len() != 6 {
		t.Fatalf("theta join rows = %d", got2.Len())
	}
	// mixed: equality plus residual
	mixed := &Join{L: &Literal{l}, R: &Literal{r}, Pred: MustParseExpr(`$a = $b AND $y > 10`)}
	got3 := mustEval(t, mixed, NewContext())
	if got3.Len() != 1 {
		t.Fatalf("mixed join rows = %d", got3.Len())
	}
}

func TestDJoinParameterPassing(t *testing.T) {
	// Left: works bindings; right: a Bind over the $fields parameter,
	// extracting cplace — the split form of Figure 7.
	ctx := worksCtx()
	plan := &DJoin{
		L: &Bind{Doc: "artworks", F: filter.MustParse(`works[ *work@$w[ title: $t, *($fields) ] ]`)},
		R: &Bind{Col: "$fields", F: filter.MustParse(`cplace: $cl`)},
	}
	got := mustEval(t, plan, ctx)
	if got.Len() != 1 {
		t.Fatalf("djoin rows = %d\n%s", got.Len(), got)
	}
	if a, _ := got.Rows[0][got.ColIndex("$cl")].AsAtom(); a.S != "Giverny" {
		t.Errorf("$cl = %v", got.Rows[0])
	}
}

func TestDJoinEquivalentToJoinWhenIndependent(t *testing.T) {
	l := tab.New("$x")
	l.Add(tab.AtomCell(data.Int(1)))
	l.Add(tab.AtomCell(data.Int(2)))
	r := tab.New("$y")
	r.Add(tab.AtomCell(data.Int(10)))
	dj := &DJoin{L: &Literal{l}, R: &Literal{r}}
	j := &Join{L: &Literal{l}, R: &Literal{r}, Pred: TrueExpr()}
	a := mustEval(t, dj, NewContext())
	b := mustEval(t, j, NewContext())
	if !a.EqualUnordered(b) {
		t.Errorf("DJoin over independent right must equal cross join:\n%s\nvs\n%s", a, b)
	}
}

func TestUnionIntersectDistinct(t *testing.T) {
	a := tab.New("$x")
	a.Add(tab.AtomCell(data.Int(1)))
	a.Add(tab.AtomCell(data.Int(2)))
	b := tab.New("$x")
	b.Add(tab.AtomCell(data.Int(2)))
	b.Add(tab.AtomCell(data.Int(3)))
	u := mustEval(t, &Union{&Literal{a}, &Literal{b}}, NewContext())
	if u.Len() != 4 {
		t.Errorf("union rows = %d", u.Len())
	}
	i := mustEval(t, &Intersect{&Literal{a}, &Literal{b}}, NewContext())
	if i.Len() != 1 {
		t.Errorf("intersect rows = %d", i.Len())
	}
	d := mustEval(t, &Distinct{&Union{&Literal{a}, &Literal{b}}}, NewContext())
	if d.Len() != 3 {
		t.Errorf("distinct rows = %d", d.Len())
	}
	// incompatible arities error
	c := tab.New("$x", "$y")
	if _, err := exec.RunSerial(&Union{&Literal{a}, &Literal{c}}, NewContext()); err == nil {
		t.Error("union of incompatible tabs must fail")
	}
	if _, err := exec.RunSerial(&Intersect{&Literal{a}, &Literal{c}}, NewContext()); err == nil {
		t.Error("intersect of incompatible tabs must fail")
	}
}

func TestGroupSortMap(t *testing.T) {
	ctx := worksCtx()
	bind := &Bind{Doc: "artworks", F: filter.MustParse(fig4FilterSrc)}
	g := mustEval(t, &Group{From: bind, Keys: []string{"$a"}, Into: "$works"}, ctx)
	if g.Len() != 2 {
		t.Errorf("groups = %d", g.Len())
	}
	s := mustEval(t, &Sort{From: bind, Cols: []string{"$t"}}, ctx)
	first, _ := s.Rows[0][s.ColIndex("$t")].AsAtom()
	if first.S != "Dancers" {
		t.Errorf("sort first = %v", first)
	}
	m := mustEval(t, &MapExpr{
		From: &Literal{tab.New("$p").Add(tab.AtomCell(data.Int(100)))},
		Col:  "$tax", E: MustParseExpr(`$p * 2`),
	}, NewContext())
	if a, _ := m.Rows[0][1].AsAtom(); a.I != 200 {
		t.Errorf("map value = %v", m.Rows[0][1])
	}
}

func TestSkolemIdentityAndFusion(t *testing.T) {
	reg := NewSkolems()
	id1 := reg.ID("artwork", []tab.Cell{tab.AtomCell(data.String("Nympheas"))})
	id2 := reg.ID("artwork", []tab.Cell{tab.AtomCell(data.String("Nympheas"))})
	id3 := reg.ID("artwork", []tab.Cell{tab.AtomCell(data.String("Dancers"))})
	if id1 != id2 {
		t.Error("same key must yield the same Skolem id")
	}
	if id1 == id3 {
		t.Error("different keys must yield different ids")
	}
	if reg.Len() != 2 {
		t.Errorf("registry size = %d", reg.Len())
	}
}

func TestTreeSkolemAndReferences(t *testing.T) {
	rows := tab.New("$t", "$o")
	rows.Add(tab.AtomCell(data.String("Nympheas")), tab.AtomCell(data.String("Doctor X")))
	rows.Add(tab.AtomCell(data.String("Nympheas")), tab.AtomCell(data.String("Mme Y")))
	ctx := NewContext()
	plan := &TreeOp{
		From: &Literal{rows},
		C: MustParseCons(`doc[ *artwork($t) := work[ title: $t, owners[ *owner: &person($o) ] ],
		                       *person($o) := person[ name: $o ] ]`),
	}
	got := mustEval(t, plan, ctx)
	root := got.Rows[0][0].Tree
	works := root.Children("work")
	persons := root.Children("person")
	if len(works) != 1 || len(persons) != 2 {
		t.Fatalf("works=%d persons=%d\n%s", len(works), len(persons), root.Indent())
	}
	if works[0].ID == "" {
		t.Error("Skolem must identify the work")
	}
	owners := works[0].Child("owners")
	if len(owners.Kids) != 2 || !owners.Kids[0].IsRef() {
		t.Fatalf("owners = %s", owners)
	}
	// the reference resolves to the person with the same Skolem key
	target := ctx.Store.Lookup(owners.Kids[0].Ref)
	if target == nil || target.Child("name").Atom.S != "Doctor X" {
		t.Errorf("reference target = %v", target)
	}
}

func TestTreeRootPerRow(t *testing.T) {
	// MAKE $t — one result per distinct binding.
	rows := tab.New("$t")
	rows.Add(tab.AtomCell(data.String("A")))
	rows.Add(tab.AtomCell(data.String("B")))
	rows.Add(tab.AtomCell(data.String("A")))
	got := mustEval(t, &TreeOp{From: &Literal{rows}, C: MustParseCons(`title: $t`)}, NewContext())
	if got.Len() != 2 {
		t.Fatalf("rows = %d (distinct grouping)", got.Len())
	}
	if got.Rows[0][0].Tree.Atom.S != "A" {
		t.Errorf("first = %v", got.Rows[0][0])
	}
}

func TestTreeSpliceSeq(t *testing.T) {
	rows := tab.New("$t", "$fields")
	rows.Add(tab.AtomCell(data.String("W")),
		tab.SeqCell(data.Forest{data.Text("cplace", "Giverny"), data.Text("note", "x")}))
	got := mustEval(t, &TreeOp{From: &Literal{rows},
		C: MustParseCons(`work[ title: $t, more: $fields ]`)}, NewContext())
	more := got.Rows[0][0].Tree.Child("more")
	if len(more.Kids) != 2 || more.Kids[0].Label != "cplace" {
		t.Errorf("more = %s", more)
	}
}

func TestTreeLabelVariable(t *testing.T) {
	rows := tab.New("$l", "$v")
	rows.Add(tab.AtomCell(data.String("cplace")), tab.AtomCell(data.String("Giverny")))
	got := mustEval(t, &TreeOp{From: &Literal{rows}, C: MustParseCons(`~$l: $v`)}, NewContext())
	n := got.Rows[0][0].Tree
	if n.Label != "cplace" || n.Atom.S != "Giverny" {
		t.Errorf("constructed = %s", n)
	}
}

func TestTreeEmptyInput(t *testing.T) {
	got := mustEval(t, &TreeOp{From: &Literal{tab.New("$t")},
		C: MustParseCons(`doc[ *title: $t ]`)}, NewContext())
	if got.Len() != 1 {
		t.Fatalf("rows = %d (empty doc skeleton)", got.Len())
	}
	if n := got.Rows[0][0].Tree; n.Label != "doc" || len(n.Kids) != 0 {
		t.Errorf("skeleton = %s", n)
	}
}

type fakeSource struct {
	name   string
	docs   map[string]data.Forest
	pushed []Op
	result *tab.Tab
}

func (f *fakeSource) Name() string { return f.name }
func (f *fakeSource) Documents() []string {
	var out []string
	for d := range f.docs {
		out = append(out, d)
	}
	return out
}
func (f *fakeSource) Fetch(doc string) (data.Forest, error) { return f.docs[doc], nil }
func (f *fakeSource) Push(plan Op, params map[string]tab.Cell) (*tab.Tab, error) {
	f.pushed = append(f.pushed, plan)
	return f.result, nil
}

// batchSource streams its document batch trees at a time, the way a
// wrapper's frames arrive.
type batchSource struct {
	fakeSource
	batch int
}

func (f *batchSource) FetchStream(_ context.Context, doc string) (ForestCursor, error) {
	return NewSliceForestCursor(f.docs[doc], f.batch), nil
}

func TestStreamedBindWaitsForReferencedObjects(t *testing.T) {
	// An O₂-style document: the extent first, the objects its references
	// point at after it. Matched batch by batch as it arrives, the extent's
	// owner references would dangle and their rows would be lost.
	extent := data.Elem("set",
		data.Elem("class", data.Text("title", "Nympheas"), data.Elem("owner", data.RefNode("class", "p1"))),
		data.Elem("class", data.Text("title", "Dancers"), data.Elem("owner", data.RefNode("class", "p2"))),
	)
	person := func(id, name string) *data.Node {
		n := data.Elem("class", data.Text("name", name))
		n.ID = id
		return n
	}
	doc := data.Forest{extent, person("p1", "Doe"), person("p2", "Roe")}
	bind := &Bind{Doc: "artifacts", F: filter.MustParse(`set[ *class[ title: $t, owner.class.name: $o ] ]`)}

	whole := NewContext()
	whole.Sources["o2"] = &fakeSource{name: "o2", docs: map[string]data.Forest{"artifacts": doc}}
	want := mustEval(t, bind, whole)
	if want.Len() != 2 {
		t.Fatalf("fixture binds %d rows, want 2:\n%s", want.Len(), want)
	}

	ctx := NewContext()
	ctx.Sources["o2"] = &batchSource{fakeSource{name: "o2", docs: map[string]data.Forest{"artifacts": doc}}, 1}
	got := mustEval(t, bind, ctx)
	if !got.Equal(want) {
		t.Errorf("streamed bind lost rows to unresolved references:\n%s\nwant:\n%s", got, want)
	}
	if ctx.Stats.BindRows != want.Len() {
		t.Errorf("BindRows = %d, want %d (the discarded early match must not count)", ctx.Stats.BindRows, want.Len())
	}

	// A filter that chases no reference still binds batch by batch.
	titles := &Bind{Doc: "artifacts", F: filter.MustParse(`set[ *class[ title: $t ] ]`)}
	cur, err := titles.StreamLeaf(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	first, err := cur.Next()
	if err != nil || first.Len() != 2 {
		t.Fatalf("first chunk = %v, %v; want the extent's 2 rows before the stream ends", first, err)
	}
}

func TestStreamedBindHoldsFromFirstUnresolvedTree(t *testing.T) {
	// Trees ahead of the first unresolved reference bind as they arrive;
	// that tree and the ones after it wait for the end of the stream, and
	// rows still leave in document order.
	person := func(id, name string) *data.Node {
		n := data.Elem("class", data.Text("name", name))
		n.ID = id
		return n
	}
	work := func(title, owner string) *data.Node {
		return data.Elem("work", data.Text("title", title), data.Elem("owner", data.RefNode("class", owner)))
	}
	doc := data.Forest{person("p0", "Doe"), work("Nympheas", "p0"),
		work("Dancers", "p1"), work("Olympia", "p0"), person("p1", "Roe"), work("Lost", "nobody")}
	bind := &Bind{Doc: "works", F: filter.MustParse(`work[ title: $t, owner.class.name: $o ]`)}

	whole := NewContext()
	whole.Sources["s"] = &fakeSource{name: "s", docs: map[string]data.Forest{"works": doc}}
	want := mustEval(t, bind, whole)
	if want.Len() != 3 {
		t.Fatalf("fixture binds %d rows, want 3 (the dangling owner binds none):\n%s", want.Len(), want)
	}

	ctx := NewContext()
	ctx.Sources["s"] = &batchSource{fakeSource{name: "s", docs: map[string]data.Forest{"works": doc}}, 3}
	cur, err := bind.StreamLeaf(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	// The first batch is p0, Nympheas, Dancers: the first two resolve.
	first, err := cur.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first.Len() != 1 || !first.Rows[0].Equal(want.Rows[0]) {
		t.Fatalf("first rows = %s, want Nympheas alone, ahead of the unresolved Dancers", first)
	}
	rest, err := tab.Drain(cur)
	if err != nil {
		t.Fatal(err)
	}
	got := tab.New(want.Cols...)
	got.Rows = append(append(got.Rows, first.Rows...), rest.Rows...)
	if !got.Equal(want) {
		t.Errorf("streamed bind:\n%s\nwant, in document order:\n%s", got, want)
	}
	if ctx.Stats.BindRows != want.Len() {
		t.Errorf("BindRows = %d, want %d", ctx.Stats.BindRows, want.Len())
	}
}

func TestSourceQueryAndStats(t *testing.T) {
	res := tab.New("$t")
	res.Add(tab.AtomCell(data.String("Nympheas")))
	src := &fakeSource{name: "o2", docs: map[string]data.Forest{"artifacts": {figure1Works()}}, result: res}
	ctx := NewContext()
	ctx.Sources["o2"] = src
	q := &SourceQuery{Source: "o2", Plan: &Literal{res}}
	got := mustEval(t, q, ctx)
	if got.Len() != 1 || len(src.pushed) != 1 {
		t.Fatalf("push failed: %v", got)
	}
	if ctx.Stats.SourcePushes != 1 || ctx.Stats.TuplesShipped != 1 || ctx.Stats.BytesShipped == 0 {
		t.Errorf("stats = %+v", ctx.Stats)
	}
	// Doc resolution through a source counts a fetch.
	d := &Doc{Name: "artifacts"}
	if got := mustEval(t, d, ctx); got.Len() != 1 {
		t.Errorf("doc rows = %d", got.Len())
	}
	if ctx.Stats.SourceFetches != 1 {
		t.Errorf("fetches = %d", ctx.Stats.SourceFetches)
	}
	if _, err := exec.RunSerial(&Doc{Name: "nope"}, ctx); err == nil {
		t.Error("unknown doc must fail")
	}
	if _, err := exec.RunSerial(&SourceQuery{Source: "nope", Plan: q.Plan}, ctx); err == nil {
		t.Error("unknown source must fail")
	}
}

func TestExprEval(t *testing.T) {
	cols := map[string]int{"$x": 0, "$y": 1}
	row := tab.Row{tab.AtomCell(data.Int(3)), tab.AtomCell(data.Float(1.5))}
	ctx := NewContext()
	cases := []struct {
		src  string
		want string
	}{
		{`$x + 1`, "4"},
		{`$x - 1`, "2"},
		{`$x * 2`, "6"},
		{`$x / 2`, "1.5"},
		{`$x + $y`, "4.5"},
		{`-$x`, "-3"},
		{`$x = 3`, "true"},
		{`$x != 3`, "false"},
		{`$x <= 3 AND $y < 2`, "true"},
		{`$x > 3 OR $y >= 1.5`, "true"},
		{`NOT ($x = 3)`, "false"},
		{`true`, "true"},
		{`false OR true`, "true"},
		{`"a" = "a"`, "true"},
	}
	for _, c := range cases {
		e := MustParseExpr(c.src)
		v, err := e.Eval(ctx, cols, row)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		a, _ := v.AsAtom()
		if a.Text() != c.want {
			t.Errorf("%s = %s, want %s", c.src, a.Text(), c.want)
		}
	}
}

func TestExprErrors(t *testing.T) {
	cols := map[string]int{"$s": 0}
	row := tab.Row{tab.AtomCell(data.String("x"))}
	ctx := NewContext()
	for _, src := range []string{`$s + 1`, `$missing = 1`, `$s / 0`, `unknownfn($s)`} {
		e, err := ParseExpr(src)
		if err != nil {
			t.Errorf("parse %s: %v", src, err)
			continue
		}
		if _, err := e.Eval(ctx, cols, row); err == nil {
			t.Errorf("%s should fail at eval", src)
		}
	}
	if _, err := ParseExpr(`1 +`); err == nil {
		t.Error("dangling operator must fail")
	}
	if _, err := ParseExpr(`(1`); err == nil {
		t.Error("unbalanced paren must fail")
	}
	if _, err := ParseExpr(`1 2`); err == nil {
		t.Error("trailing input must fail")
	}
	if _, err := ParseExpr(`name`); err == nil {
		t.Error("bare name must fail (functions need parentheses)")
	}
}

func TestCallFunction(t *testing.T) {
	ctx := NewContext()
	ctx.Funcs["double"] = func(args []tab.Cell) (tab.Cell, error) {
		a, _ := args[0].AsAtom()
		return tab.AtomCell(data.Int(a.I * 2)), nil
	}
	e := MustParseExpr(`double($x)`)
	v, err := e.Eval(ctx, map[string]int{"$x": 0}, tab.Row{tab.AtomCell(data.Int(21))})
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := v.AsAtom(); a.I != 42 {
		t.Errorf("double = %v", a)
	}
	if ctx.Stats.FuncCalls != 1 {
		t.Errorf("FuncCalls = %d", ctx.Stats.FuncCalls)
	}
}

func TestParamFallback(t *testing.T) {
	ctx := NewContext()
	ctx.Params = map[string]tab.Cell{"$p": tab.AtomCell(data.Int(7))}
	v, err := Var{"$p"}.Eval(ctx, map[string]int{}, tab.Row{})
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := v.AsAtom(); a.I != 7 {
		t.Errorf("param = %v", a)
	}
}

func TestConsParsePrintStability(t *testing.T) {
	cases := []string{
		`doc[ *artwork($t, $c) := work[ title: $t, artist: $a ] ]`,
		`artists[ *($a) artist[ name: $a, *($t) title: $t ] ]`,
		`work[ owners[ *owner: &person($o) ] ]`,
		`title: $t`,
		`~$l: $v`,
		`work[ kind: "painting", year: 1897, rate: 1.5 ]`,
		`doc[]`,
	}
	for _, src := range cases {
		c, err := ParseCons(src)
		if err != nil {
			t.Errorf("ParseCons(%q): %v", src, err)
			continue
		}
		printed := c.String()
		c2, err := ParseCons(printed)
		if err != nil {
			t.Errorf("reparse %q -> %q: %v", src, printed, err)
			continue
		}
		if c2.String() != printed {
			t.Errorf("unstable: %q -> %q -> %q", src, printed, c2.String())
		}
	}
}

func TestConsParseErrors(t *testing.T) {
	bad := []string{
		``, `doc[`, `&name`, `&name(`, `*$x`, `doc[ * ]`,
		`f($x) :=`, `doc[ x: ]`, `doc] y`, `~notavar`,
	}
	for _, src := range bad {
		if _, err := ParseCons(src); err == nil {
			t.Errorf("ParseCons(%q) should fail", src)
		}
	}
}

func TestDescribePlan(t *testing.T) {
	plan := &Select{
		From: &Join{
			L:    &Bind{Doc: "artifacts", F: filter.MustParse(`set[ *%[ title: $t ] ]`)},
			R:    &Bind{Doc: "artworks", F: filter.MustParse(`works[ *work[ title: $t2 ] ]`)},
			Pred: MustParseExpr(`$t = $t2`),
		},
		Pred: MustParseExpr(`$t != "x"`),
	}
	s := Describe(plan)
	for _, frag := range []string{"Select", "Join", "Bind(artifacts", "Bind(artworks"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Describe missing %q:\n%s", frag, s)
		}
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Errorf("plan lines = %d", len(lines))
	}
	count := 0
	Walk(plan, func(Op) bool { count++; return true })
	if count != 4 {
		t.Errorf("Walk visited %d ops", count)
	}
}

func TestPropertyHashJoinEqualsNestedLoop(t *testing.T) {
	f := func(ls, rs []uint8) bool {
		l := tab.New("$a")
		for _, v := range ls {
			l.Add(tab.AtomCell(data.Int(int64(v % 8))))
		}
		r := tab.New("$b")
		for _, v := range rs {
			r.Add(tab.AtomCell(data.Int(int64(v % 8))))
		}
		hash := &Join{L: &Literal{l}, R: &Literal{r}, Pred: MustParseExpr(`$a = $b`)}
		// Force nested loops via a semantically identical non-Var equality.
		nested := &Join{L: &Literal{l}, R: &Literal{r}, Pred: MustParseExpr(`$a + 0 = $b + 0`)}
		a, err1 := exec.RunSerial(hash, NewContext())
		b, err2 := exec.RunSerial(nested, NewContext())
		if err1 != nil || err2 != nil {
			return false
		}
		return a.EqualUnordered(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDJoinMatchesJoinOnParams(t *testing.T) {
	// DJoin(L, σ_{$b=$a}(R)) ≡ Join(L, R, $a=$b) — the information-passing
	// equivalence underlying Section 5.3.
	f := func(ls, rs []uint8) bool {
		l := tab.New("$a")
		for _, v := range ls {
			l.Add(tab.AtomCell(data.Int(int64(v % 5))))
		}
		r := tab.New("$b")
		for _, v := range rs {
			r.Add(tab.AtomCell(data.Int(int64(v % 5))))
		}
		dj := &DJoin{L: &Literal{l}, R: &Select{From: &Literal{r}, Pred: MustParseExpr(`$b = $a`)}}
		j := &Join{L: &Literal{l}, R: &Literal{r}, Pred: MustParseExpr(`$a = $b`)}
		a, err1 := exec.RunSerial(dj, NewContext())
		b, err2 := exec.RunSerial(j, NewContext())
		if err1 != nil || err2 != nil {
			return false
		}
		return a.EqualUnordered(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
