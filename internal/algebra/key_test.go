package algebra_test

import (
	"math"
	. "repro/internal/algebra"
	"testing"

	"repro/internal/data"
	"repro/internal/tab"
)

// aliasRows returns two rows over ($p, $q) that differ only in where the
// boundary between their two string cells falls: glue, then the text a
// cell's shipped form starts with, sits inside the first cell or inside the
// second. A key that joined cell texts with glue ("|", NUL, or NUL and the
// next variable's name) would give both rows one key.
func aliasRows(glue string) (tab.Row, tab.Row) {
	s := func(v string) tab.Cell { return tab.AtomCell(data.String(v)) }
	return tab.Row{s("x" + glue + "a:String:y"), s("z")}, tab.Row{s("x"), s("y" + glue + "a:String:z")}
}

func tabOf(cols []string, rows ...tab.Row) *tab.Tab {
	t := tab.New(cols...)
	for _, r := range rows {
		t.AddRow(r)
	}
	return t
}

// TestKeyedOperatorsKeepAliasedRowsApart runs every keyed operator over two
// rows that differ only in where a cell boundary falls.
func TestKeyedOperatorsKeepAliasedRowsApart(t *testing.T) {
	pq := []string{"$p", "$q"}
	for _, glue := range []string{"|", "\x00", "\x00$q="} {
		a, b := aliasRows(glue)
		join := &Join{L: &Literal{tabOf(pq, a)}, R: &Literal{tabOf([]string{"$r", "$s"}, b)}, Pred: MustParseExpr(`$p = $r AND $q = $s`)}
		if got := mustEval(t, join, NewContext()).Len(); got != 0 {
			t.Errorf("glue %q: hash Join matched %d rows, want 0", glue, got)
		}
		in, err := (&Intersect{}).Apply(tabOf(pq, a), tabOf(pq, b))
		if err != nil || in.Len() != 0 {
			t.Errorf("glue %q: Intersect = %v, %v; want no rows", glue, in, err)
		}
		if got := (&Distinct{}).Apply(tabOf(pq, a, b), map[string]bool{}).Len(); got != 2 {
			t.Errorf("glue %q: Distinct kept %d of 2 rows", glue, got)
		}
		if got := mustEval(t, &TreeOp{From: &Literal{tabOf(pq, a, b)}, C: MustParseCons(`w[ p: $p, q: $q ]`)}, NewContext()).Len(); got != 2 {
			t.Errorf("glue %q: Tree built %d trees, want 2", glue, got)
		}
		sk := NewSkolems()
		if sk.ID("f", a) == sk.ID("f", b) {
			t.Errorf("glue %q: Skolems.ID gave both rows one identifier", glue)
		}
		if sk.ID("f"+glue+"a:String:x", b[1:]) == sk.ID("f", tab.Row{b[0], b[1]}) {
			t.Errorf("glue %q: Skolems.ID aliased a function name with its first key cell", glue)
		}
		if got := len(NewDJoinBindings(tabOf(pq, a, b), pq, nil).Sets); got != 2 {
			t.Errorf("glue %q: DJoin binding sets = %d, want 2", glue, got)
		}
		if ParamsKey(pq, map[string]tab.Cell{"$p": a[0], "$q": a[1]}) == ParamsKey(pq, map[string]tab.Cell{"$p": b[0], "$q": b[1]}) {
			t.Errorf("glue %q: ParamsKey gave both bindings one key", glue)
		}
	}
}

// TestHashJoinMatchesRowByRow holds the hash Join on $x = $y to the same
// predicate evaluated row by row over the cross product, for cells whose
// equality a hash key can get wrong.
func TestHashJoinMatchesRowByRow(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		x, y tab.Cell
		want int
	}{
		{tab.AtomCell(data.Int(5)), tab.AtomCell(data.Float(5)), 1},
		{tab.AtomCell(data.Float(0)), tab.AtomCell(data.Float(negZero)), 1},
		{tab.AtomCell(data.Int(5)), tab.TreeCell(data.FloatLeaf("price", 5)), 1},
		{tab.TreeCell(data.Elem("w", data.IntLeaf("y", 1897))), tab.TreeCell(data.Elem("w", data.FloatLeaf("y", 1897))), 1},
		{tab.TreeCell(data.IntLeaf("a", 5)), tab.TreeCell(data.IntLeaf("b", 5)), 0}, // leaf trees compare labels
		{tab.Null(), tab.Null(), 0}, // a null equals nothing
		{tab.AtomCell(data.Int(5)), tab.AtomCell(data.Float(5.5)), 0},
		{tab.AtomCell(data.Int(1 << 53)), tab.AtomCell(data.Float(1 << 53)), 1},
		{tab.AtomCell(data.Int(1 << 53)), tab.AtomCell(data.Int(1<<53 + 1)), 0}, // one float64, two values
		{tab.AtomCell(data.Int(math.MaxInt64)), tab.AtomCell(data.Float(0x1p63)), 0},
	} {
		l := &Literal{tabOf([]string{"$x"}, tab.Row{c.x})}
		r := &Literal{tabOf([]string{"$y"}, tab.Row{c.y})}
		hash := mustEval(t, &Join{L: l, R: r, Pred: MustParseExpr(`$x = $y`)}, NewContext())
		rows := mustEval(t, &Select{From: &Join{L: l, R: r, Pred: TrueExpr()}, Pred: MustParseExpr(`$x = $y`)}, NewContext())
		if hash.Len() != c.want || rows.Len() != c.want {
			t.Errorf("%v ⋈ %v: hash join %d rows, row by row %d, want %d", c.x, c.y, hash.Len(), rows.Len(), c.want)
		}
	}
}

// TestKeyedOperatorsTreatEqualNumbersAsOne runs every keyed operator over
// pairs of numbers: Int 5 and Float 5.0, and Int 2^53 and Float 2^53, are
// Equal and keyed as one; Ints beyond a float64's precision, and MaxInt64
// and the Float 2^63 it rounds to, round to one float64 but are two values
// and keyed apart.
func TestKeyedOperatorsTreatEqualNumbersAsOne(t *testing.T) {
	x := []string{"$x"}
	for _, c := range []struct {
		a, b data.Atom
		one  bool
	}{
		{data.Int(5), data.Float(5), true},
		{data.Int(1 << 53), data.Float(1 << 53), true},
		{data.Int(1 << 53), data.Int(1<<53 + 1), false},
		{data.Int(math.MaxInt64), data.Int(math.MaxInt64 - 1), false},
		{data.Int(math.MaxInt64), data.Float(0x1p63), false},
	} {
		ra, rb := tab.Row{tab.AtomCell(c.a)}, tab.Row{tab.AtomCell(c.b)}
		rows := 2
		if c.one {
			rows = 1
		}
		if got := (&Distinct{}).Apply(tabOf(x, ra, rb), map[string]bool{}).Len(); got != rows {
			t.Errorf("%v, %v: Distinct kept %d rows, want %d", ra, rb, got, rows)
		}
		if in, err := (&Intersect{}).Apply(tabOf(x, ra), tabOf(x, rb)); err != nil || in.Len() != 2-rows {
			t.Errorf("%v, %v: Intersect = %v, %v; want %d rows", ra, rb, in, err, 2-rows)
		}
		if got := mustEval(t, &TreeOp{From: &Literal{tabOf(x, ra, rb)}, C: MustParseCons(`v: $x`)}, NewContext()).Len(); got != rows {
			t.Errorf("%v, %v: Tree built %d trees, want %d", ra, rb, got, rows)
		}
		sk := NewSkolems()
		if (sk.ID("f", ra) == sk.ID("f", rb)) != c.one {
			t.Errorf("%v, %v: Skolems.ID shared = %v, want %v", ra, rb, !c.one, c.one)
		}
		if (ParamsKey(x, map[string]tab.Cell{"$x": ra[0]}) == ParamsKey(x, map[string]tab.Cell{"$x": rb[0]})) != c.one {
			t.Errorf("%v, %v: ParamsKey shared = %v, want %v", ra, rb, !c.one, c.one)
		}
	}
}

// TestDJoinPushesEqualNumbersOnce runs a batched DJoin over two outer
// bindings of $n, with an inner plan that keeps the $v equal to $n. Int 5 and
// Float 5.0 are one binding set, pushed once, whose answer each outer row
// joins; Ints that round to one float64 are two sets, each row with its own
// answer.
func TestDJoinPushesEqualNumbersOnce(t *testing.T) {
	for _, c := range []struct {
		a, b   data.Atom
		pushes int
	}{
		{data.Int(5), data.Float(5), 1},
		{data.Int(1 << 53), data.Int(1<<53 + 1), 2},
		{data.Int(math.MaxInt64), data.Float(0x1p63), 2},
	} {
		inner := tab.New("$v")
		for _, v := range []data.Atom{c.a, c.b, data.Int(4)} {
			inner.Add(tab.AtomCell(v))
		}
		j := &DJoin{
			L: &Literal{tabOf([]string{"$n"}, tab.Row{tab.AtomCell(c.a)}, tab.Row{tab.AtomCell(c.b)})},
			R: &SourceQuery{Source: "w", Plan: &Select{From: &Literal{T: inner}, Pred: MustParseExpr(`$v = $n`)}},
		}
		src := &evalBatchSource{fakeSource: fakeSource{name: "w"}}
		ctx := NewContext()
		ctx.Sources["w"] = src
		got := mustEval(t, j, ctx)
		if src.seen != c.pushes {
			t.Errorf("%v, %v: pushed %d binding sets, want %d", c.a, c.b, src.seen, c.pushes)
		}
		if want := 2 * (3 - c.pushes); got.Len() != want {
			t.Errorf("%v, %v: rows = %d, want %d:\n%s", c.a, c.b, got.Len(), want, got)
		}
		for _, r := range got.Rows {
			if n, v := r[got.ColIndex("$n")], r[got.ColIndex("$v")]; !n.Equal(v) {
				t.Errorf("%v, %v: outer row $n = %v joined $v = %v", c.a, c.b, n, v)
			}
		}
	}
}
