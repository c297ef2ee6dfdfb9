package yatl

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/exec"
)

// view1Src is the integration program of Section 2 (view1.yat): one
// artworks document combining the O₂ trading information with the XML-Wais
// descriptive information.
const view1Src = `
# view1.yat — cultural goods integration (Section 2)
artworks() :=
MAKE doc[ *artwork($t, $c) := work[ title: $t, artist: $a, year: $y, price: $p,
          style: $s, size: $si, owners[ *owner: $o ], more: $fields ] ]
MATCH artifacts WITH set[ *class[ artifact.tuple[ title: $t, year: $y, creator: $c, price: $p,
          owners.list[ *class[ person.tuple[ name: $o, auction: $au ] ] ] ] ] ],
      works WITH works[ *work[ artist: $a, title: $t', style: $s, size: $si, *($fields) ] ]
WHERE $y > 1800 AND $c = $a AND $t = $t' ;
`

// q1Src is query Q1: what are the artifacts created at "Giverny"?
const q1Src = `
MAKE $t
MATCH artworks WITH doc[ *work[ title: $t, more.cplace: $cl ] ]
WHERE $cl = "Giverny"
`

// paperArtifacts builds the O₂ artifacts extent as exported in YAT form.
func paperArtifacts() (data.Forest, data.Forest) {
	p1 := data.Elem("class",
		data.Elem("person", data.Elem("tuple",
			data.Text("name", "Doctor X"),
			data.FloatLeaf("auction", 1500000),
		))).WithID("p1")
	p2 := data.Elem("class",
		data.Elem("person", data.Elem("tuple",
			data.Text("name", "Mme Y"),
			data.FloatLeaf("auction", 200000),
		))).WithID("p2")
	a1 := data.Elem("class",
		data.Elem("artifact", data.Elem("tuple",
			data.Text("title", "Nympheas"),
			data.IntLeaf("year", 1897),
			data.Text("creator", "Claude Monet"),
			data.FloatLeaf("price", 1500000),
			data.Elem("owners", data.Elem("list",
				data.RefNode("owner", "p1"), data.RefNode("owner", "p2"))),
		))).WithID("a1")
	a2 := data.Elem("class",
		data.Elem("artifact", data.Elem("tuple",
			data.Text("title", "Waterloo Bridge"),
			data.IntLeaf("year", 1900),
			data.Text("creator", "Claude Monet"),
			data.FloatLeaf("price", 800000),
			data.Elem("owners", data.Elem("list", data.RefNode("owner", "p1"))),
		))).WithID("a2")
	old := data.Elem("class",
		data.Elem("artifact", data.Elem("tuple",
			data.Text("title", "Old Canvas"),
			data.IntLeaf("year", 1750),
			data.Text("creator", "Anonymous"),
			data.FloatLeaf("price", 1000),
			data.Elem("owners", data.Elem("list", data.RefNode("owner", "p2"))),
		))).WithID("a3")
	artifacts := data.Forest{data.Elem("set", a1, a2, old)}
	persons := data.Forest{p1, p2}
	return artifacts, persons
}

func paperWorks() data.Forest {
	return data.Forest{data.Elem("works",
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
	)}
}

func paperCtx() *algebra.Context {
	ctx := algebra.NewContext()
	artifacts, persons := paperArtifacts()
	ctx.Catalog["artifacts"] = artifacts
	ctx.Catalog["persons"] = persons
	ctx.Catalog["works"] = paperWorks()
	for _, f := range []data.Forest{artifacts, persons} {
		for _, n := range f {
			ctx.Store.Register(n)
		}
	}
	return ctx
}

func TestParseView1(t *testing.T) {
	p, err := Parse(view1Src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 1 {
		t.Fatalf("rules = %d", len(p.Rules))
	}
	r := p.Rules[0]
	if r.Name != "artworks" || len(r.Params) != 0 {
		t.Errorf("head = %s(%v)", r.Name, r.Params)
	}
	if len(r.Matches) != 2 || r.Matches[0].Doc != "artifacts" || r.Matches[1].Doc != "works" {
		t.Fatalf("matches = %+v", r.Matches)
	}
	if r.Where == nil || !strings.Contains(r.Where.String(), "1800") {
		t.Errorf("where = %v", r.Where)
	}
	if p.Rule("artworks") == nil || p.Rule("nope") != nil {
		t.Error("Rule lookup")
	}
}

func TestParsePrintStability(t *testing.T) {
	p := MustParse(view1Src)
	printed := p.String()
	p2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, printed)
	}
	if p2.String() != printed {
		t.Errorf("print/parse unstable:\n%s\nvs\n%s", printed, p2.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`artworks() := MATCH a WITH b[] ;`, // no MAKE
		`artworks() := MAKE x[] ;`,         // no MATCH
		`artworks := MAKE x[] MATCH a WITH b[] ;`,         // no parens
		`() := MAKE x[] MATCH a WITH b[] ;`,               // no name
		`r() := MAKE x[ MATCH a WITH b[] ;`,               // broken cons
		`r() := MAKE x[] MATCH a b[] ;`,                   // no WITH
		`r() := MAKE x[] MATCH two words WITH b[] ;`,      // bad doc name
		`r() := MAKE x[] MATCH a WITH b[ ;`,               // broken filter
		`r() := MAKE x[] MATCH a WITH b[] WHERE $x = ;`,   // broken where
		`r() := WHERE $x = 1 MAKE x[] MATCH a WITH b[] ;`, // order
		`r() := MAKE x[] WHERE $x = 1 MATCH a WITH b[] ;`, // order
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestKeywordInsideBracketsAndStrings(t *testing.T) {
	// MAKE/MATCH/WHERE appearing inside filters or strings must not split.
	src := `r() :=
MAKE doc[ note: "MATCH me WHERE you can" ]
MATCH a WITH b[ MAKEBELIEVE: $x ]
WHERE $x != "WHERE" ;`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules[0].Matches) != 1 {
		t.Errorf("matches = %d", len(p.Rules[0].Matches))
	}
}

func TestFigure5Translation(t *testing.T) {
	r := MustParse(view1Src).Rules[0]
	plan, err := Translate(&r)
	if err != nil {
		t.Fatal(err)
	}
	s := algebra.Describe(plan)
	// Figure 5 shape: Tree over Join over (Select over Bind(artifacts),
	// Bind(works)).
	want := []string{"Tree(", "Join(", "Select(", "Bind(artifacts", "Bind(works"}
	for _, frag := range want {
		if !strings.Contains(s, frag) {
			t.Errorf("plan missing %q:\n%s", frag, s)
		}
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 {
		t.Errorf("plan has %d ops, want 5:\n%s", len(lines), s)
	}
	// The Select (year > 1800) must sit directly above Bind(artifacts).
	selLine, bindLine := -1, -1
	for i, l := range lines {
		if strings.Contains(l, "Select(") {
			selLine = i
		}
		if strings.Contains(l, "Bind(artifacts") {
			bindLine = i
		}
	}
	if bindLine != selLine+1 {
		t.Errorf("Select not directly above Bind(artifacts):\n%s", s)
	}
	// Join carries the cross-input predicates.
	if !strings.Contains(s, "$c = $a") || !strings.Contains(s, "$t = $t'") {
		t.Errorf("join predicates missing:\n%s", s)
	}
}

func TestView1Evaluation(t *testing.T) {
	ctx := paperCtx()
	r := MustParse(view1Src).Rules[0]
	plan, err := Translate(&r)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.RunSerial(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("view produced %d documents", res.Len())
	}
	doc := res.Rows[0][0].Tree
	works := doc.Children("work")
	if len(works) != 2 {
		t.Fatalf("view works = %d, want 2 (Nympheas, Waterloo Bridge):\n%s",
			len(works), doc.Indent())
	}
	nym := works[0]
	if nym.Child("title").Atom.S != "Nympheas" {
		t.Errorf("first work = %s", nym)
	}
	if nym.ID == "" {
		t.Error("Skolem must identify artworks")
	}
	owners := nym.Child("owners")
	if len(owners.Kids) != 2 {
		t.Errorf("Nympheas owners = %d, want 2", len(owners.Kids))
	}
	if owners.Kids[0].Atom.S != "Doctor X" {
		t.Errorf("owner = %s", owners.Kids[0])
	}
	more := nym.Child("more")
	if more == nil || len(more.Kids) != 1 || more.Kids[0].Label != "cplace" {
		t.Errorf("more = %s", more)
	}
	// The old (year 1750) artifact is filtered out; Dancers is absent from
	// the O₂ source, so only two integrated artworks exist.
	if doc.Child("work").Child("year").Atom.I != 1897 {
		t.Errorf("year = %v", doc.Child("work").Child("year"))
	}
}

func TestQ1OverMaterializedView(t *testing.T) {
	ctx := paperCtx()
	view := MustParse(view1Src).Rules[0]
	vplan, err := Translate(&view)
	if err != nil {
		t.Fatal(err)
	}
	vres, err := exec.RunSerial(vplan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	var forest data.Forest
	for _, r := range vres.Rows {
		forest = append(forest, r[0].Tree)
	}
	ctx.Catalog["artworks"] = forest

	q1, err := ParseQuery(q1Src)
	if err != nil {
		t.Fatal(err)
	}
	qplan, err := Translate(q1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.RunSerial(qplan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("Q1 rows = %d\n%s", res.Len(), res)
	}
	if got := res.Rows[0][0].Tree.Atom.S; got != "Nympheas" {
		t.Errorf("Q1 answer = %q, want Nympheas", got)
	}
}

func TestTranslateUnboundWhereVariable(t *testing.T) {
	r := MustParseQuery(`MAKE $t MATCH works WITH works[ *work[ title: $t ] ] WHERE $ghost = 1`)
	plan, err := Translate(r)
	if err != nil {
		t.Fatal(err)
	}
	ctx := paperCtx()
	if _, err := exec.RunSerial(plan, ctx); err == nil {
		t.Error("unbound WHERE variable must surface at evaluation")
	}
}

func TestTranslateCrossJoinWithoutPredicate(t *testing.T) {
	r := MustParseQuery(`MAKE pair[ a: $x, b: $y ]
MATCH works WITH works[ *work[ title: $x ] ],
      works WITH works[ *work[ artist: $y ] ]`)
	plan, err := Translate(r)
	if err != nil {
		t.Fatal(err)
	}
	ctx := paperCtx()
	res, err := exec.RunSerial(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	// 2 titles x 1 distinct artist (both works are by Monet), grouped by
	// distinct ($x,$y) pairs.
	if res.Len() != 2 {
		t.Errorf("cross rows = %d\n%s", res.Len(), res)
	}
}
