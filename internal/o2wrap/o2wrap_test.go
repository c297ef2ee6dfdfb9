package o2wrap

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/filter"
	"repro/internal/o2"
	"repro/internal/pattern"
	"repro/internal/tab"
)

func wrapper() *Wrapper { return New("o2artifact", datagen.PaperDB()) }

func TestExportSchemaFigure3(t *testing.T) {
	w := wrapper()
	schema := w.ExportSchema()
	if len(schema.Names()) != 2 {
		t.Fatalf("classes = %v", schema.Names())
	}
	artifact := schema.Lookup("Artifact")
	want := pattern.MustParse(`class[ artifact: tuple[ title: String, year: Int, creator: String, price: Float, owners: list[ *&Person ] ] ]`)
	if artifact.String() != want.String() {
		t.Errorf("Artifact pattern = %s\nwant %s", artifact, want)
	}
	// Figure 3 instantiation chain: Artifact schema <: ODMG <: YAT.
	odmg := w.ExportModel()
	if !pattern.InstanceOfModel(odmg, schema) {
		t.Error("exported schema must instantiate the ODMG model")
	}
	if !pattern.InstanceOfModel(pattern.YATModel(), schema) {
		t.Error("exported schema must instantiate the YAT metamodel")
	}
}

func TestFetchShipsExtentAndClosure(t *testing.T) {
	w := wrapper()
	forest, err := w.Fetch("artifacts")
	if err != nil {
		t.Fatal(err)
	}
	// set tree + the two referenced persons
	if len(forest) != 3 {
		t.Fatalf("forest = %d trees", len(forest))
	}
	set := forest[0]
	if set.Label != "set" || len(set.Kids) != 3 {
		t.Fatalf("set = %s", set)
	}
	// The exported artifacts match the exported schema.
	schema := w.ExportSchema()
	for _, k := range set.Kids {
		if !pattern.MatchData(schema, schema.Lookup("Artifact"), k) {
			t.Errorf("exported artifact does not match schema: %s", k)
		}
	}
	for _, p := range forest[1:] {
		if !pattern.MatchData(schema, schema.Lookup("Person"), p) {
			t.Errorf("exported person does not match schema: %s", p)
		}
	}
	if _, err := w.Fetch("nosuch"); err == nil {
		t.Error("unknown extent must fail")
	}
}

func TestExportInterfaceRoundTrip(t *testing.T) {
	w := wrapper()
	i := w.ExportInterface()
	s := capability.Marshal(i)
	back, err := capability.Unmarshal(s)
	if err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, s)
	}
	if !back.HasOperation("bind") || !back.HasOperation("current_price") {
		t.Error("operations lost in round trip")
	}
	if _, ok := back.Binds["artifacts"]; !ok {
		t.Error("bindcap lost")
	}
	// The interface accepts the view1 artifacts filter (Section 4.1).
	f := filter.MustParse(view1ArtifactsFilter)
	if err := back.AcceptsFilter("artifacts", f); err != nil {
		t.Errorf("interface must accept the view1 filter: %v", err)
	}
}

const view1ArtifactsFilter = `set[ *class[ artifact.tuple[ title: $t, year: $y, creator: $c, price: $p,
	owners.list[ *class[ person.tuple[ name: $o, auction: $au ] ] ] ] ] ]`

// section41Plan is the left branch of Figure 5: Bind over artifacts under
// the year > 1800 selection.
func section41Plan() algebra.Op {
	return &algebra.Select{
		From: &algebra.Bind{Doc: "artifacts", F: filter.MustParse(view1ArtifactsFilter)},
		Pred: algebra.MustParseExpr(`$y > 1800`),
	}
}

func TestSection41PushGeneratesOQL(t *testing.T) {
	w := wrapper()
	res, err := w.Push(section41Plan(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Nympheas (2 owners) + Waterloo Bridge (1 owner) = 3 rows.
	if res.Len() != 3 {
		t.Fatalf("rows = %d\n%s", res.Len(), res)
	}
	oql := w.LastOQL
	for _, frag := range []string{"select", "from R1 in artifacts, R2 in R1.owners",
		"R1.title", "R2.name", "where R1.year > 1800"} {
		if !strings.Contains(oql, frag) {
			t.Errorf("OQL missing %q:\n%s", frag, oql)
		}
	}
}

func TestPushEquivalentToMediatorEvaluation(t *testing.T) {
	// The pushed plan must produce exactly the rows the mediator-side Bind
	// over the fetched document produces — the correctness contract of
	// capability-based rewriting.
	w := wrapper()
	plan := section41Plan()
	pushed, err := w.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := algebra.NewContext()
	ctx.Sources["o2artifact"] = w
	local, err := exec.RunSerial(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !pushed.EqualUnordered(local) {
		t.Errorf("pushed:\n%s\nlocal:\n%s", pushed, local)
	}
}

func TestPushWithParameters(t *testing.T) {
	// Information passing: $pt/$pa arrive from a DJoin's left side as a
	// binding tuple the query ranges over (Figure 9's right branch).
	w := wrapper()
	plan := &algebra.Select{
		From: &algebra.Bind{Doc: "artifacts",
			F: filter.MustParse(`set[ *class[ artifact.tuple[ title: $t2, creator: $c2, price: $p ] ] ]`)},
		Pred: algebra.MustParseExpr(`$t2 = $pt AND $c2 = $pa`),
	}
	params := map[string]tab.Cell{
		"$pt": tab.AtomCell(data.String("Nympheas")),
		"$pa": tab.AtomCell(data.String("Claude Monet")),
	}
	res, err := w.Push(plan, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d\n%s", res.Len(), res)
	}
	for _, frag := range []string{`B in bag(tuple(i: 0, p0: "Nympheas", p1: "Claude Monet"))`, `R1.title = B.p0`} {
		if !strings.Contains(w.LastOQL, frag) {
			t.Errorf("OQL missing %q:\n%s", frag, w.LastOQL)
		}
	}
	if a, _ := res.Rows[0][res.ColIndex("$p")].AsAtom(); a.AsFloat() != 1500000 {
		t.Errorf("price = %v", a)
	}
}

func TestPushMethodCall(t *testing.T) {
	w := wrapper()
	plan := &algebra.Project{
		From: &algebra.Select{
			From: &algebra.Bind{Doc: "artifacts",
				F: filter.MustParse(`set[ *class@$art[ artifact.tuple[ title: $t ] ] ]`)},
			Pred: algebra.MustParseExpr(`current_price($art) > 1000000`),
		},
		Cols: []string{"$t"},
	}
	res, err := w.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d\n%s", res.Len(), res)
	}
	if a, _ := res.Rows[0][0].AsAtom(); a.S != "Nympheas" {
		t.Errorf("title = %v", a)
	}
	if !strings.Contains(w.LastOQL, "current_price()") {
		t.Errorf("OQL missing method call:\n%s", w.LastOQL)
	}
}

func TestPushProjectionAndRename(t *testing.T) {
	w := wrapper()
	plan := &algebra.Project{
		From: &algebra.Bind{Doc: "artifacts",
			F: filter.MustParse(`set[ *class[ artifact.tuple[ title: $t, year: $y ] ] ]`)},
		Cols: []string{"title=$t"},
	}
	res, err := w.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 1 || res.Cols[0] != "title" || res.Len() != 3 {
		t.Fatalf("res = %s", res)
	}
}

func TestPushConstantFilter(t *testing.T) {
	w := wrapper()
	plan := &algebra.Bind{Doc: "artifacts",
		F: filter.MustParse(`set[ *class[ artifact.tuple[ title: $t, creator: "Claude Monet" ] ] ]`)}
	res, err := w.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d", res.Len())
	}
	if !strings.Contains(w.LastOQL, `R1.creator = "Claude Monet"`) {
		t.Errorf("constant not translated:\n%s", w.LastOQL)
	}
}

func TestPushObjectAndCollectionBindings(t *testing.T) {
	w := wrapper()
	plan := &algebra.Bind{Doc: "artifacts",
		F: filter.MustParse(`set[ *class@$art[ artifact.tuple[ title: $t, owners@$ow ] ] ]`)}
	res, err := w.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("rows = %d", res.Len())
	}
	art := res.Rows[0][res.ColIndex("$art")]
	if art.Kind != tab.CTree || art.Tree.Label != "class" || art.Tree.ID == "" {
		t.Errorf("$art = %v", art)
	}
	ow := res.Rows[0][res.ColIndex("$ow")]
	if ow.Kind != tab.CTree || ow.Tree.Label != "owners" || ow.Tree.Child("list") == nil {
		t.Errorf("$ow = %v", ow)
	}
}

func TestPushRejectsUnsupportedShapes(t *testing.T) {
	w := wrapper()
	bad := []algebra.Op{
		&algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w ]`)},
		&algebra.Bind{Col: "$x", F: filter.MustParse(`works[ *work@$w ]`)},
		&algebra.Bind{Doc: "artifacts", F: filter.MustParse(`set[ *class[ artifact.tuple[ ghost: $g ] ] ]`)},
		&algebra.Bind{Doc: "artifacts", F: filter.MustParse(`set[ *class[ artifact.tuple[ *~$attr: $v ] ] ]`)},
		&algebra.Bind{Doc: "artifacts", F: filter.MustParse(`set[ class[ artifact.tuple[ title: $t ] ] ]`)},
		&algebra.Bind{Doc: "artifacts", F: filter.MustParse(`wrong[ *class[ artifact.tuple[ title: $t ] ] ]`)},
		&algebra.Bind{Doc: "artifacts", F: filter.MustParse(`set[ *class[ %[ tuple[ title: $t ] ] ] ]`)},
		&algebra.Select{
			From: &algebra.Bind{Doc: "artifacts", F: filter.MustParse(`set[ *class[ artifact.tuple[ title: $t ] ] ]`)},
			Pred: algebra.MustParseExpr(`contains($t, "x")`)},
		&algebra.DJoin{
			L: &algebra.Bind{Doc: "artifacts", F: filter.MustParse(`set[ *class[ artifact.tuple[ title: $t ] ] ]`)},
			R: &algebra.Bind{Doc: "persons", F: filter.MustParse(`set[ *class[ person.tuple[ name: $n ] ] ]`)}},
	}
	for i, plan := range bad {
		if _, err := w.Push(plan, nil); err == nil {
			t.Errorf("case %d: Push should fail for %s", i, algebra.Describe(plan))
		}
	}
}

func TestExportVal(t *testing.T) {
	w := wrapper()
	oid := w.DB.Extents["artifacts"][0]
	tree := w.ExportObject(w.DB.Get(oid))
	if tree.ID != oid || tree.Label != "class" {
		t.Fatalf("tree = %s", tree)
	}
	tup := tree.Child("artifact").Child("tuple")
	if tup.Child("title").Atom.S != "Nympheas" {
		t.Errorf("title = %v", tup.Child("title"))
	}
	if tup.Child("year").Atom.Kind != data.KindInt {
		t.Errorf("year kind = %v", tup.Child("year").Atom.Kind)
	}
	list := tup.Child("owners").Child("list")
	if len(list.Kids) != 2 || !list.Kids[0].IsRef() {
		t.Errorf("owners = %s", tup.Child("owners"))
	}
}

func TestPushCrossExtentJoin(t *testing.T) {
	// OQL evaluates multi-extent joins natively: artists who are also
	// collectors (creator = person name).
	w := wrapper()
	// add a person named like an artist to make the join non-empty
	if _, err := w.DB.NewObject("Person",
		o2val("Claude Monet", 999)); err != nil {
		t.Fatal(err)
	}
	plan := &algebra.Join{
		L: &algebra.Bind{Doc: "artifacts",
			F: filter.MustParse(`set[ *class[ artifact.tuple[ title: $t, creator: $c ] ] ]`)},
		R: &algebra.Bind{Doc: "persons",
			F: filter.MustParse(`set[ *class[ person.tuple[ name: $n, auction: $au ] ] ]`)},
		Pred: algebra.MustParseExpr(`$c = $n`),
	}
	pushed, err := w.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w.LastOQL, "from R1 in artifacts, R2 in persons") {
		t.Errorf("OQL lacks both ranges:\n%s", w.LastOQL)
	}
	if pushed.Len() != 2 {
		t.Fatalf("rows = %d (Nympheas + Waterloo Bridge by Monet)\n%s", pushed.Len(), pushed)
	}
	// agrees with mediator-side evaluation
	ctx := algebra.NewContext()
	ctx.Sources["o2artifact"] = w
	local, err := exec.RunSerial(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !pushed.EqualUnordered(local) {
		t.Errorf("pushed join disagrees:\n%s\nvs\n%s", pushed, local)
	}
}

func o2val(name string, auction float64) o2.Val {
	return o2.Tuple("name", o2.Str(name), "auction", o2.Float(auction))
}

func TestFuncsMethodCallback(t *testing.T) {
	w := wrapper()
	funcs := w.Funcs()
	fn, ok := funcs["current_price"]
	if !ok {
		t.Fatal("current_price not exported")
	}
	oid := w.DB.Extents["artifacts"][0]
	tree := w.ExportObject(w.DB.Get(oid))
	v, err := fn([]tab.Cell{tab.TreeCell(tree)})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := v.AsAtom()
	if a.AsFloat() < 1649999 || a.AsFloat() > 1650001 {
		t.Errorf("current_price = %v", a)
	}
	// errors: wrong arity, anonymous tree, unknown object
	if _, err := fn(nil); err == nil {
		t.Error("arity check")
	}
	if _, err := fn([]tab.Cell{tab.TreeCell(data.Elem("anon"))}); err == nil {
		t.Error("anonymous object must fail")
	}
	if _, err := fn([]tab.Cell{tab.TreeCell(data.Elem("x").WithID("ghost"))}); err == nil {
		t.Error("unknown object must fail")
	}
}

func TestPushPredicateVariants(t *testing.T) {
	w := wrapper()
	// OR / NOT / arithmetic / inequality predicates translate to OQL.
	plan := &algebra.Select{
		From: &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
			`set[ *class[ artifact.tuple[ title: $t, year: $y, price: $p ] ] ]`)},
		Pred: algebra.MustParseExpr(
			`($y >= 1897 OR NOT ($p > 1000)) AND $p * 2 < 4000000 AND $t != "zzz"`),
	}
	res, err := w.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := algebra.NewContext()
	ctx.Sources["o2artifact"] = w
	local, err := exec.RunSerial(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.EqualUnordered(local) || res.Len() == 0 {
		t.Errorf("pushed:\n%s\nlocal:\n%s", res, local)
	}
	for _, frag := range []string{" or ", "not (", "(R1.price * 2)"} {
		if !strings.Contains(w.LastOQL, frag) {
			t.Errorf("OQL missing %q:\n%s", frag, w.LastOQL)
		}
	}
	// non-atomic parameter is rejected
	bad := &algebra.Select{
		From: &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
			`set[ *class[ artifact.tuple[ title: $t ] ] ]`)},
		Pred: algebra.MustParseExpr(`$t = $seq`),
	}
	params := map[string]tab.Cell{"$seq": tab.SeqCell(nil)}
	if _, err := w.Push(bad, params); err == nil {
		t.Error("non-atomic parameter must fail")
	}
}
