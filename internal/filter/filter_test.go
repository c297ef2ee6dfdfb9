package filter

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/pattern"
	"repro/internal/tab"
)

// figure1Works is the XML collection of works from Figure 1: two Monet
// paintings, one with a cplace field, the other with a history field.
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
			data.Elem("history",
				data.Text("", "Painted with"),
				data.Text("technique", "Oil on canvas"),
				data.Text("", "in ..."),
			),
		),
	)
}

// figure4Filter is the Bind filter of Figure 4.
const figure4Filter = `works[ *work[ artist: $a, title: $t, style: $s, size: $si, *($fields) ] ]`

func TestFigure4Bind(t *testing.T) {
	f := MustParse(figure4Filter)
	got := match(t, f, nil, figure1Works())
	if strings.Join(got.Cols, " ") != "$a $t $s $si $fields" {
		t.Fatalf("cols = %v", got.Cols)
	}
	if got.Len() != 2 {
		t.Fatalf("rows = %d\n%s", got.Len(), got)
	}
	r0 := got.Rows[0]
	if a, _ := r0[0].AsAtom(); a.S != "Claude Monet" {
		t.Errorf("$a = %v", r0[0])
	}
	if a, _ := r0[1].AsAtom(); a.S != "Nympheas" {
		t.Errorf("$t = %v", r0[1])
	}
	// $fields of the first work is the collection holding cplace
	if r0[4].Kind != tab.CSeq || len(r0[4].Seq) != 1 || r0[4].Seq[0].Label != "cplace" {
		t.Errorf("$fields = %v", r0[4])
	}
	r1 := got.Rows[1]
	if a, _ := r1[1].AsAtom(); a.S != "Waterloo Bridge" {
		t.Errorf("row1 $t = %v", r1[1])
	}
	if r1[4].Kind != tab.CSeq || len(r1[4].Seq) != 1 || r1[4].Seq[0].Label != "history" {
		t.Errorf("row1 $fields = %v", r1[4])
	}
}

func TestBindLeafContent(t *testing.T) {
	f := MustParse(`work[ title: $t ]`)
	got := match(t, f, nil, figure1Works().Kids[0])
	if got.Len() != 1 {
		t.Fatalf("rows = %d", got.Len())
	}
	c := got.Rows[0][0]
	if c.Kind != tab.CAtom || c.Atom.S != "Nympheas" {
		t.Errorf("leaf content binds as atom, got %v", c)
	}
}

func TestBindSubtreeVariable(t *testing.T) {
	f := MustParse(`works[ *work@$w[ title: $t ] ]`)
	got := match(t, f, nil, figure1Works())
	if got.Len() != 2 {
		t.Fatalf("rows = %d", got.Len())
	}
	w := got.Rows[0][got.ColIndex("$w")]
	if w.Kind != tab.CTree || w.Tree.Label != "work" {
		t.Errorf("$w = %v", w)
	}
}

func TestBindMissingMandatoryFails(t *testing.T) {
	f := MustParse(`work[ title: $t, cplace: $cl ]`)
	// first work has cplace, second does not
	works := figure1Works()
	if got := match(t, f, nil, works.Kids[0]); got.Len() != 1 {
		t.Errorf("work with cplace: rows = %d", got.Len())
	}
	if got := match(t, f, nil, works.Kids[1]); got.Len() != 0 {
		t.Errorf("work without cplace: rows = %d, want 0", got.Len())
	}
}

func TestBindConstants(t *testing.T) {
	works := figure1Works()
	f := MustParse(`work[ style: "Impressionist", title: $t ]`)
	if got := match(t, f, nil, works.Kids[0]); got.Len() != 1 {
		t.Error("matching constant must succeed")
	}
	g := MustParse(`work[ style: "Cubist", title: $t ]`)
	if got := match(t, g, nil, works.Kids[0]); got.Len() != 0 {
		t.Error("non-matching constant must fail")
	}
	n := data.Elem("work", data.IntLeaf("year", 1897))
	h := MustParse(`work[ year: 1897 ]`)
	if got := match(t, h, nil, n); got.Len() != 1 {
		t.Error("integer constant must match")
	}
}

func TestBindTypeFilters(t *testing.T) {
	n := data.Elem("work",
		data.IntLeaf("year", 1897),
		data.Text("title", "Nympheas"),
	)
	if got := match(t, MustParse(`work[ year: $y@Int ]`), nil, n); got.Len() != 1 {
		t.Error("Int type filter should accept 1897")
	}
	if got := match(t, MustParse(`work[ title: $t@Int ]`), nil, n); got.Len() != 0 {
		t.Error("Int type filter should reject a string title")
	}
	if got := match(t, MustParse(`work[ title: $t@String ]`), nil, n); got.Len() != 1 {
		t.Error("String type filter should accept the title")
	}
	// Named type resolved through the filter's model
	m := pattern.MustParseModel(`model test
Year := Symbol: Int`)
	f := MustParse(`work[ %@Year ]`).WithModel(m)
	if got := match(t, f, nil, n); got.Len() != 1 {
		t.Errorf("named type filter: rows = %d", got.Len())
	}
}

func TestLabelVariables(t *testing.T) {
	// Figure 7 (lower right): retrieve the attribute names of person objects.
	person := data.Elem("tuple",
		data.Text("name", "Doctor X"),
		data.FloatLeaf("auction", 1500000),
	)
	f := MustParse(`tuple[ *~$attr: $v ]`)
	got := match(t, f, nil, person)
	if got.Len() != 2 {
		t.Fatalf("rows = %d\n%s", got.Len(), got)
	}
	labels := []string{}
	for _, r := range got.Rows {
		a, _ := r[0].AsAtom()
		labels = append(labels, a.S)
	}
	if strings.Join(labels, ",") != "name,auction" {
		t.Errorf("attribute names = %v", labels)
	}
}

func TestWildcardLabel(t *testing.T) {
	n := data.Elem("work", data.Text("title", "X"), data.Text("artist", "Y"))
	got := match(t, MustParse(`work[ *%@$any ]`), nil, n)
	if got.Len() != 2 {
		t.Errorf("wildcard matched %d children, want 2", got.Len())
	}
}

func TestDescend(t *testing.T) {
	works := figure1Works()
	// technique is nested under history under work: GPE-style descent
	f := MustParse(`works.**.technique: $x`)
	got := match(t, f, nil, works)
	if got.Len() != 1 {
		t.Fatalf("descend rows = %d", got.Len())
	}
	if a, _ := got.Rows[0][0].AsAtom(); a.S != "Oil on canvas" {
		t.Errorf("$x = %v", got.Rows[0][0])
	}
	// descent finds nodes at multiple depths
	deep := data.Elem("a", data.Elem("x", data.Text("k", "1")), data.Elem("b", data.Elem("x", data.Text("k", "2"))))
	g := MustParse(`a[ **x[ k: $k ] ]`)
	if got := match(t, g, nil, deep); got.Len() != 2 {
		t.Errorf("nested descent rows = %d", got.Len())
	}
}

func TestIterateStarCartesian(t *testing.T) {
	n := data.Elem("pairs",
		data.Elem("l", data.Text("v", "1")),
		data.Elem("l", data.Text("v", "2")),
		data.Elem("r", data.Text("v", "a")),
	)
	f := MustParse(`pairs[ *l[ v: $x ], *r[ v: $y ] ]`)
	got := match(t, f, nil, n)
	if got.Len() != 2 {
		t.Fatalf("cartesian rows = %d\n%s", got.Len(), got)
	}
}

func TestJoinVariableWithinFilter(t *testing.T) {
	// The same variable may not be bound twice; the parser rejects it.
	if _, err := Parse(`work[ a: $x, b: $x ]`); err == nil {
		t.Error("duplicate variable must be rejected")
	}
}

func TestReferencesThroughStore(t *testing.T) {
	p1 := data.Elem("person", data.Text("name", "Doctor X")).WithID("p1")
	root := data.Elem("db",
		p1,
		data.Elem("artifact",
			data.Text("title", "Nympheas"),
			data.Elem("owners", data.RefNode("ref", "p1")),
		),
	)
	store := data.NewStore()
	store.Register(root, nil)
	f := MustParse(`artifact[ title: $t, owners[ *%[ name: $n ] ] ]`)
	got := match(t, f, store, root.Kids[1])
	if got.Len() != 1 {
		t.Fatalf("rows = %d", got.Len())
	}
	if a, _ := got.Rows[0][1].AsAtom(); a.S != "Doctor X" {
		t.Errorf("$n through reference = %v", got.Rows[0][1])
	}
	// Without a store, navigation through the reference fails.
	if got := match(t, f, nil, root.Kids[1]); got.Len() != 0 {
		t.Error("reference navigation without store must fail")
	}
}

func TestCollectStarExcludesClaimed(t *testing.T) {
	w := figure1Works().Kids[0] // has cplace extra
	f := MustParse(`work[ title: $t, *($rest) ]`)
	got := match(t, f, nil, w)
	if got.Len() != 1 {
		t.Fatalf("rows = %d", got.Len())
	}
	rest := got.Rows[0][1]
	if rest.Kind != tab.CSeq || len(rest.Seq) != 4 {
		t.Fatalf("$rest = %v (artist, style, size, cplace expected)", rest)
	}
	labels := []string{}
	for _, n := range rest.Seq {
		labels = append(labels, n.Label)
	}
	if strings.Join(labels, ",") != "artist,style,size,cplace" {
		t.Errorf("$rest labels = %v", labels)
	}
}

func TestCollectStarEmpty(t *testing.T) {
	n := data.Elem("work", data.Text("title", "T"))
	got := match(t, MustParse(`work[ title: $t, *($rest) ]`), nil, n)
	if got.Len() != 1 {
		t.Fatalf("rows = %d", got.Len())
	}
	if got.Rows[0][1].Kind != tab.CSeq || len(got.Rows[0][1].Seq) != 0 {
		t.Errorf("empty collect = %v", got.Rows[0][1])
	}
}

func TestMatchForest(t *testing.T) {
	f := MustParse(`work[ title: $t ]`)
	forest := data.Forest(figure1Works().Kids)
	AgreesWithOracle(t, f, nil, forest)
	m := f.Matcher(nil)
	var rows []tab.Row
	for _, n := range forest {
		rows = m.Append(rows, nil, n)
	}
	if len(rows) != 2 {
		t.Errorf("forest rows = %d", len(rows))
	}
}

func TestVarsOrder(t *testing.T) {
	f := MustParse(figure4Filter)
	if strings.Join(f.Vars(), " ") != "$a $t $s $si $fields" {
		t.Errorf("Vars = %v", f.Vars())
	}
	g := MustParse(`work@$w[ ~$l: $v, *($rest) ]`)
	if strings.Join(g.Vars(), " ") != "$w $l $v $rest" {
		t.Errorf("Vars = %v", g.Vars())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"work[",
		"work[ title: ]",
		"work[ *( ) ]",
		"work[ *(notavar) ]",
		"$",
		"~x",
		"work@",
		"work@$a@$b",
		"work@Int@Float",
		`work[ "unterminated ]`,
		"work] extra",
		"work[ a: $x ] trailing",
		"work..title",
		"1.2.3",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestPrintParseStability(t *testing.T) {
	cases := []string{
		figure4Filter,
		`doc.work[ title: $t, more.cplace: $cl ]`,
		`set[ *class[ artifact.tuple[ title: $t, year: $y ] ] ]`,
		`tuple[ *~$attr: $v ]`,
		`work[ style: "Impressionist" ]`,
		`work[ year: 1897, price: 15.5 ]`,
		`work[ price: $p@Float ]`,
		`doc.**.technique: $x`,
		`work@$w[ title: $t ]`,
		`%[ $v ]`,
		`work[ owners: @Any ]`,
	}
	for _, src := range cases {
		f, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		printed := f.String()
		g, err := Parse(printed)
		if err != nil {
			t.Errorf("reparse of %q -> %q: %v", src, printed, err)
			continue
		}
		if g.String() != printed {
			t.Errorf("print/parse unstable: %q -> %q -> %q", src, printed, g.String())
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	f := MustParse(figure4Filter)
	c := f.Clone()
	c.Root.Items[0].F.Items[0].F.Label = "mutated"
	if f.String() == c.String() {
		t.Error("clone must be independent")
	}
}

func TestDepthAndHasVars(t *testing.T) {
	f := MustParse(figure4Filter)
	if d := f.Root.Depth(); d != 4 {
		t.Errorf("Depth = %d, want 4 (works/work/artist/content)", d)
	}
	if !f.Root.HasVars() {
		t.Error("figure-4 filter has vars")
	}
	g := MustParse(`work[ title: "X" ]`)
	if g.Root.HasVars() {
		t.Error("constant filter has no vars")
	}
}

func TestSharedVariableAcrossRowsConsistency(t *testing.T) {
	// Two items binding different vars on the same child set: rows must
	// pair consistently (cross product of matches).
	n := data.Elem("m", data.Text("a", "1"), data.Text("a", "2"))
	f := MustParse(`m[ *a: $x ]`)
	got := match(t, f, nil, n)
	if got.Len() != 2 {
		t.Errorf("rows = %d", got.Len())
	}
}

func TestPropertyMatchDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		n := genDoc(seed)
		flt := MustParse(`doc[ *work[ title: $t, *($rest) ] ]`)
		a := match(t, flt, nil, n)
		b := match(t, flt, nil, n)
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRowsBoundedByWorks(t *testing.T) {
	f := func(seed int64) bool {
		n := genDoc(seed)
		flt := MustParse(`doc[ *work[ title: $t ] ]`)
		got := match(t, flt, nil, n)
		// one row per work with a title
		withTitle := 0
		for _, w := range n.Kids {
			if w.Child("title") != nil {
				withTitle++
			}
		}
		return got.Len() == withTitle
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func genDoc(seed int64) *data.Node {
	s := seed
	next := func(n int64) int64 {
		s = s*6364136223846793005 + 1442695040888963407
		v := (s >> 33) % n
		if v < 0 {
			v = -v
		}
		return v
	}
	doc := data.Elem("doc")
	for i := int64(0); i < next(6); i++ {
		w := data.Elem("work")
		if next(4) != 0 {
			w.Add(data.Text("title", "T"+string(rune('a'+next(26)))))
		}
		if next(2) == 0 {
			w.Add(data.Text("cplace", "Giverny"))
		}
		if next(3) == 0 {
			w.Add(data.Text("history", "..."))
		}
		doc.Add(w)
	}
	return doc
}
