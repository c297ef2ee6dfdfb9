package tab

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/xmlenc"
)

func work(title, artist string) *data.Node {
	return data.Elem("work", data.Text("title", title), data.Text("artist", artist))
}

// figure4Tab builds the Tab of Figure 4: one row per work with its title,
// artist, style, size and optional fields.
func figure4Tab() *Tab {
	t := New("$t", "$a", "$s", "$si", "$fields")
	t.Add(
		AtomCell(data.String("Nympheas")),
		AtomCell(data.String("Claude Monet")),
		AtomCell(data.String("Impressionist")),
		AtomCell(data.String("21 x 61")),
		SeqCell(data.Forest{data.Text("cplace", "Giverny")}),
	)
	t.Add(
		AtomCell(data.String("Waterloo Bridge")),
		AtomCell(data.String("Claude Monet")),
		AtomCell(data.String("Impressionist")),
		AtomCell(data.String("29.2 x 46.4")),
		SeqCell(data.Forest{data.Elem("history", data.Text("technique", "Oil on canvas"))}),
	)
	return t
}

func TestCellAsAtom(t *testing.T) {
	if a, ok := AtomCell(data.Int(5)).AsAtom(); !ok || a.I != 5 {
		t.Error("atom cell AsAtom")
	}
	if a, ok := TreeCell(data.Text("title", "X")).AsAtom(); !ok || a.S != "X" {
		t.Error("leaf tree cell AsAtom")
	}
	if _, ok := TreeCell(work("a", "b")).AsAtom(); ok {
		t.Error("interior tree is not an atom")
	}
	if _, ok := Null().AsAtom(); ok {
		t.Error("null is not an atom")
	}
}

func TestCellEqualAcrossKinds(t *testing.T) {
	// an atom and a leaf tree with the same value compare equal
	if !AtomCell(data.String("X")).Equal(TreeCell(data.Text("t", "X"))) {
		t.Error("atom vs leaf-tree equality")
	}
	if AtomCell(data.String("X")).Equal(TreeCell(work("a", "b"))) {
		t.Error("atom vs interior tree must differ")
	}
	if !Null().Equal(Null()) {
		t.Error("null equals null")
	}
	if Null().Equal(AtomCell(data.Int(0))) {
		t.Error("null differs from atom")
	}
}

func TestCellCompareConsistent(t *testing.T) {
	cells := []Cell{
		Null(),
		AtomCell(data.Int(1)),
		AtomCell(data.Int(2)),
		AtomCell(data.String("a")),
		TreeCell(work("a", "b")),
		SeqCell(data.Forest{work("a", "b")}),
		TabCell(New("$x")),
	}
	for i, a := range cells {
		for j, b := range cells {
			ab, ba := a.Compare(b), b.Compare(a)
			if ab != -ba {
				t.Errorf("Compare not antisymmetric for %d,%d", i, j)
			}
			if (ab == 0) != a.Equal(b) && i != j {
				// Compare==0 should coincide with Equal for these samples
				t.Errorf("Compare/Equal inconsistent for %d,%d", i, j)
			}
		}
	}
}

func TestCellKeyConsistentWithEqual(t *testing.T) {
	a := AtomCell(data.String("X"))
	b := TreeCell(data.Text("t", "X"))
	if a.Key() != b.Key() {
		t.Error("equal cells must share a key")
	}
	c := TreeCell(work("a", "b"))
	d := TreeCell(work("a", "b"))
	if c.Key() != d.Key() {
		t.Error("equal trees share keys")
	}
	e := TreeCell(work("a", "c"))
	if c.Key() == e.Key() {
		t.Error("different trees should not share keys")
	}
}

func TestAsForest(t *testing.T) {
	if f := AtomCell(data.Int(3)).AsForest(); len(f) != 1 || f[0].Atom.I != 3 {
		t.Errorf("atom AsForest = %v", f)
	}
	if f := TreeCell(work("a", "b")).AsForest(); len(f) != 1 {
		t.Errorf("tree AsForest = %v", f)
	}
	seq := data.Forest{work("a", "b"), work("c", "d")}
	if f := SeqCell(seq).AsForest(); len(f) != 2 {
		t.Errorf("seq AsForest = %v", f)
	}
	if f := Null().AsForest(); f != nil {
		t.Errorf("null AsForest = %v", f)
	}
	nested := New("$x")
	nested.Add(AtomCell(data.Int(1)))
	f := TabCell(nested).AsForest()
	if len(f) != 1 || f[0].Label != "row" {
		t.Errorf("tab AsForest = %v", f)
	}
}

func TestProjectAndRename(t *testing.T) {
	tb := figure4Tab()
	p := tb.Project("$a", "title=$t")
	if strings.Join(p.Cols, ",") != "$a,title" {
		t.Fatalf("cols = %v", p.Cols)
	}
	if p.Len() != 2 {
		t.Fatalf("rows = %d", p.Len())
	}
	if a, _ := p.Rows[0][1].AsAtom(); a.S != "Nympheas" {
		t.Errorf("renamed col value = %v", p.Rows[0][1])
	}
	// unknown column yields nulls
	q := tb.Project("$nope")
	if !q.Rows[0][0].IsNull() {
		t.Error("projection of unknown column must be null")
	}
}

func TestSortByAndSorted(t *testing.T) {
	tb := New("$t")
	tb.Add(AtomCell(data.String("b")))
	tb.Add(AtomCell(data.String("a")))
	tb.Add(AtomCell(data.String("c")))
	tb.SortBy("$t")
	got := ""
	for _, r := range tb.Rows {
		a, _ := r[0].AsAtom()
		got += a.S
	}
	if got != "abc" {
		t.Errorf("SortBy order = %q", got)
	}
	s := figure4Tab().Sorted()
	if s.Len() != 2 {
		t.Error("Sorted preserves rows")
	}
}

func TestGroupBy(t *testing.T) {
	tb := New("$a", "$t")
	tb.Add(AtomCell(data.String("Monet")), AtomCell(data.String("Nympheas")))
	tb.Add(AtomCell(data.String("Monet")), AtomCell(data.String("Waterloo Bridge")))
	tb.Add(AtomCell(data.String("Degas")), AtomCell(data.String("Dancers")))
	g := tb.GroupBy("$group", "$a")
	if g.Len() != 2 {
		t.Fatalf("groups = %d", g.Len())
	}
	if strings.Join(g.Cols, ",") != "$a,$group" {
		t.Fatalf("group cols = %v", g.Cols)
	}
	first := g.Rows[0]
	if a, _ := first[0].AsAtom(); a.S != "Monet" {
		t.Errorf("first group key = %v (first-seen order)", first[0])
	}
	if first[1].Tab.Len() != 2 {
		t.Errorf("Monet group size = %d", first[1].Tab.Len())
	}
	if g.Rows[1][1].Tab.Len() != 1 {
		t.Errorf("Degas group size = %d", g.Rows[1][1].Tab.Len())
	}
}

func TestDistinct(t *testing.T) {
	tb := New("$x")
	tb.Add(AtomCell(data.Int(1)))
	tb.Add(AtomCell(data.Int(2)))
	tb.Add(AtomCell(data.Int(1)))
	d := tb.Distinct()
	if d.Len() != 2 {
		t.Errorf("distinct rows = %d", d.Len())
	}
}

func TestConcat(t *testing.T) {
	a := New("$x")
	a.Add(AtomCell(data.Int(1)))
	b := New("$x")
	b.Add(AtomCell(data.Int(2)))
	if err := a.Concat(b); err != nil || a.Len() != 2 {
		t.Errorf("concat: %v len=%d", err, a.Len())
	}
	c := New("$y")
	if err := a.Concat(c); err == nil {
		t.Error("mismatched cols must fail")
	}
	d := New("$x", "$y")
	if err := a.Concat(d); err == nil {
		t.Error("mismatched arity must fail")
	}
}

func TestEqualUnordered(t *testing.T) {
	a := New("$x")
	a.Add(AtomCell(data.Int(1)))
	a.Add(AtomCell(data.Int(2)))
	b := New("$x")
	b.Add(AtomCell(data.Int(2)))
	b.Add(AtomCell(data.Int(1)))
	if a.Equal(b) {
		t.Error("ordered equality should fail")
	}
	if !a.EqualUnordered(b) {
		t.Error("unordered equality should hold")
	}
	c := New("$x")
	c.Add(AtomCell(data.Int(2)))
	c.Add(AtomCell(data.Int(2)))
	if a.EqualUnordered(c) {
		t.Error("bag semantics: multiplicities matter")
	}
}

func TestAddPanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with wrong arity must panic")
		}
	}()
	New("$a", "$b").Add(AtomCell(data.Int(1)))
}

func TestStringRendering(t *testing.T) {
	s := figure4Tab().String()
	for _, frag := range []string{"$t", "$fields", "Nympheas", "Waterloo Bridge"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Tab.String missing %q in:\n%s", frag, s)
		}
	}
	var nilTab *Tab
	if nilTab.String() != "<nil tab>" {
		t.Error("nil tab rendering")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	tb := figure4Tab()
	tb.Add(Null(), AtomCell(data.Int(1897)), AtomCell(data.Float(1.5)),
		AtomCell(data.Bool(true)), TreeCell(work("T", "A")))
	s := Marshal(tb)
	back, err := Unmarshal(s)
	if err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, s)
	}
	if !tb.EqualUnordered(back) || !tb.Equal(back) {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s\nxml: %s", tb, back, s)
	}
}

func TestXMLNestedTab(t *testing.T) {
	inner := New("$t")
	inner.Add(AtomCell(data.String("Nympheas")))
	outer := New("$a", "$g")
	outer.Add(AtomCell(data.String("Monet")), TabCell(inner))
	back, err := Unmarshal(Marshal(outer))
	if err != nil {
		t.Fatal(err)
	}
	if !outer.Equal(back) {
		t.Errorf("nested round trip:\n%s\nvs\n%s", outer, back)
	}
}

// TestXMLColumnForm reads the grammar's forms: <col>s in any order beside
// per-cell <row>s, <col>s alone, and the per-cell form with element text.
func TestXMLColumnForm(t *testing.T) {
	mixed := New("$t", "$y", "$w")
	mixed.Add(AtomCell(data.String("Painting 8")), AtomCell(data.Int(1848)), TreeCell(data.Text("work", "a")))
	mixed.Add(AtomCell(data.String("Paul Cezanne")), AtomCell(data.Int(1852)), Null())
	cols := New("$t", "$b")
	cols.Add(AtomCell(data.String(" a b ")), AtomCell(data.Bool(true)))
	cols.Add(AtomCell(data.String("")), AtomCell(data.Bool(false)))
	perCell := New("$t", "$y")
	perCell.Add(AtomCell(data.String("a b")), AtomCell(data.Int(7)))
	for _, c := range []struct {
		src  string
		want *Tab
	}{
		{`<tab cols="$t $y $w" bind="3"><col name="$y" type="Int" v="1848 1852"/><col name="$t" type="String" v="10:Painting 8 12:Paul Cezanne"/><row><tree><work>a</work></tree></row><row><null/></row></tab>`, mixed},
		{`<tab cols="$t $b"><col name="$t" type="String" v="5: a b  0:"/><col name="$b" type="Bool" v="true false"/></tab>`, cols},
		{`<tab cols="$t $b"><col name="$t" type="String" v="5: a b  0:"/><col name="$b" type="Bool" v="true false"/><row/><row/></tab>`, cols},
		{`<tab cols="$t $y"><row><atom type="String"> a
			b </atom><atom type="Int">7</atom></row></tab>`, perCell},
		{`<tab cols="$t $y"><row><atom type="String" v="a b"/><atom type="Int" v="7"/></row></tab>`, perCell},
	} {
		got, err := Unmarshal(c.src)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("Unmarshal(%q) =\n%v, %v\nwant\n%v", c.src, got, err, c.want)
		}
	}
	if got := Marshal(mixed); got != `<tab cols="$t $y $w"><col name="$t" type="String" v="10:Painting 8 12:Paul Cezanne"/><col name="$y" type="Int" v="1848 1852"/><row><tree><work>a</work></tree></row><row><null/></row></tab>` {
		t.Errorf("Marshal = %s", got)
	}
}

// TestXMLErrors lists what the reader refuses, in the per-cell form and in
// the column form.
func TestXMLErrors(t *testing.T) {
	bad := []string{
		`<notatab/>`,
		`<tab cols="$a"><row><atom type="Int">xx</atom></row></tab>`,
		`<tab cols="$a"><row><atom type="Float">xx</atom></row></tab>`,
		`<tab cols="$a"><row><atom type="Void">1</atom></row></tab>`,
		`<tab cols="$a"><row><mystery/></row></tab>`,
		`<tab cols="$a $b"><row><null/></row></tab>`,
		`<tab cols="$a"><row><tree/></row></tab>`,
		// the column form: a <col> that names no column, or one twice
		`<tab cols="$a"><col name="$b" type="Int" v="1"/></tab>`,
		`<tab cols="$a"><col name="$a" type="Int" v="1"/><col name="$a" type="Int" v="1"/></tab>`,
		// value counts that disagree with each other or with the rows
		`<tab cols="$a $b"><col name="$a" type="Int" v="1 2"/><col name="$b" type="Int" v="1"/></tab>`,
		`<tab cols="$a $b"><col name="$a" type="Int" v="1"/><col name="$b" type="Int" v="1 2"/></tab>`,
		`<tab cols="$a $b"><col name="$a" type="Int" v="1 2"/><row><null/></row></tab>`,
		`<tab cols="$a $b"><col name="$a" type="Int" v="1"/><row><null/></row><row><null/></row></tab>`,
		`<tab cols="$a $b"><col name="$a" type="Int" v="1"/></tab>`,
		`<tab cols="$a"><col name="$a" type="Int" v="1"/><row><null/></row></tab>`,
		// a String length past the end, or without its colon or separator
		`<tab cols="$a"><col name="$a" type="String" v="9:abc"/></tab>`,
		`<tab cols="$a"><col name="$a" type="String" v="3:abc 4:abc"/></tab>`,
		`<tab cols="$a"><col name="$a" type="String" v="abc"/></tab>`,
		`<tab cols="$a"><col name="$a" type="String" v="-1:abc"/></tab>`,
		`<tab cols="$a"><col name="$a" type="String" v="1:abc"/></tab>`,
		`<tab cols="$a"><col name="$a" type="String" v="3:abc "/></tab>`,
		// values that are not of the column's type, or no known type
		`<tab cols="$a"><col name="$a" type="Int" v="1 x"/></tab>`,
		`<tab cols="$a"><col name="$a" type="Int" v="1  2"/></tab>`,
		`<tab cols="$a"><col name="$a" type="Int" v="1 "/></tab>`,
		`<tab cols="$a"><col name="$a" type="Int" v=" 1"/></tab>`,
		`<tab cols="$a"><col name="$a" type="Float" v="1.5 one"/></tab>`,
		`<tab cols="$a"><col name="$a" type="Bool" v="true yes"/></tab>`,
		`<tab cols="$a"><col name="$a" type="Void" v="1"/></tab>`,
		`<tab cols="$a"><col name="$a" v="1"/></tab>`,
		`<tab cols="$a $b"><col name="$a" type="Void" v=""/></tab>`,
		`<tab cols="$a $b"><col name="$a" type="Void" v="1"/><row><null/></row></tab>`,
	}
	for _, src := range bad {
		if _, err := Unmarshal(src); err == nil {
			t.Errorf("Unmarshal(%q) should fail", src)
		}
	}
}

// TestReadBoundedByInput: a tab whose rows do not fill its columns is
// refused before its cells are allocated. 1,000 column names and 1,000
// empty rows, 13 KB of text, would otherwise ask for a million cells
// (104 MB); the per-cell reader allocated one row before it refused.
func TestReadBoundedByInput(t *testing.T) {
	var b strings.Builder
	b.WriteString(`<tab cols="`)
	for i := range 1000 {
		fmt.Fprintf(&b, "$c%d ", i)
	}
	b.WriteString(`">` + strings.Repeat("<row/>", 1000) + `</tab>`)
	n, err := xmlenc.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err = FromXML(n)
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatal("rows of no cells for 1,000 columns were accepted")
	}
	if d := m1.TotalAlloc - m0.TotalAlloc; d > 1<<20 {
		t.Errorf("refusing a %d-byte tab allocated %d bytes", b.Len(), d)
	}
}

// TestPropertyXMLRoundTrip ships random Int and String columns through the
// codec: every value comes back exact, white space, control bytes and the
// column form's own delimiters included.
func TestPropertyXMLRoundTrip(t *testing.T) {
	f := func(vals []int64, strs []string) bool {
		tb := New("$i", "$s")
		for i := 0; i < min(len(vals), len(strs)); i++ {
			tb.Add(AtomCell(data.Int(vals[i])), AtomCell(data.String(strs[i])))
		}
		back, err := Unmarshal(Marshal(tb))
		if err != nil {
			return false
		}
		return tb.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
