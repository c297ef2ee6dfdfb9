package tab

import (
	"math"
	"testing"

	"repro/internal/data"
)

// aliasRows returns two rows that differ only in where the boundary between
// their two string cells falls: glue, then the text a cell's shipped form
// starts with, sits inside the first cell or inside the second. A key that
// joined cell texts with glue would give both rows one key.
func aliasRows(glue string) (Row, Row) {
	s := func(v string) Cell { return AtomCell(data.String(v)) }
	return Row{s("x" + glue + "a:String:y"), s("z")}, Row{s("x"), s("y" + glue + "a:String:z")}
}

// TestKeyedOpsKeepAliasedRowsApart runs every keyed Tab operation over two
// rows that differ only in where a cell boundary falls.
func TestKeyedOpsKeepAliasedRowsApart(t *testing.T) {
	for _, glue := range []string{"|", "\x00"} {
		a, b := aliasRows(glue)
		ab := New("$p", "$q")
		ab.AddRow(a)
		ab.AddRow(b)
		if got := ab.Distinct().Len(); got != 2 {
			t.Errorf("glue %q: Distinct kept %d of 2 rows", glue, got)
		}
		if got := ab.GroupBy("$g", "$p", "$q").Len(); got != 2 {
			t.Errorf("glue %q: GroupBy made %d groups, want 2", glue, got)
		}
		aa := New("$p", "$q")
		aa.AddRow(a)
		aa.AddRow(a)
		if ab.EqualUnordered(aa) || aa.EqualUnordered(ab) {
			t.Errorf("glue %q: {a,b} and {a,a} compare equal up to order", glue)
		}
	}
}

// TestKeyedOpsTreatEqualCellsAsOne runs every keyed Tab operation over two
// cells that are Equal in different representations: an Int and a Float of
// one value, -0 and 0, an atom and a leaf tree.
func TestKeyedOpsTreatEqualCellsAsOne(t *testing.T) {
	for _, c := range [][2]Cell{
		{AtomCell(data.Int(5)), AtomCell(data.Float(5))},
		{AtomCell(data.Float(0)), AtomCell(data.Float(math.Copysign(0, -1)))},
		{AtomCell(data.Float(5)), TreeCell(data.IntLeaf("price", 5))},
		{TreeCell(data.Elem("w", data.IntLeaf("y", 1897))), TreeCell(data.Elem("w", data.FloatLeaf("y", 1897)))},
	} {
		if !c[0].Equal(c[1]) {
			t.Fatalf("%v and %v must be Equal", c[0], c[1])
		}
		both := New("$x", "$n")
		both.Add(c[0], AtomCell(data.Int(1)))
		both.Add(c[1], AtomCell(data.Int(2)))
		if got := both.Project("$x").Distinct().Len(); got != 1 {
			t.Errorf("%v, %v: Distinct kept %d rows, want 1", c[0], c[1], got)
		}
		if g := both.GroupBy("$g", "$x"); g.Len() != 1 || g.Rows[0][1].Tab.Len() != 2 {
			t.Errorf("%v, %v: GroupBy made\n%s\nwant one group of 2", c[0], c[1], g)
		}
		twice := New("$x")
		twice.Add(c[0])
		twice.Add(c[0])
		if !both.Project("$x").EqualUnordered(twice) {
			t.Errorf("%v, %v: rows that are Equal do not compare equal up to order", c[0], c[1])
		}
	}
}

// TestKeyedOpsKeepDistinctNumbersApart runs every keyed Tab operation over
// two numbers that round to one float64 but are not one value: Ints beyond a
// float64's precision, and MaxInt64 and the Float 2^63 it rounds to.
func TestKeyedOpsKeepDistinctNumbersApart(t *testing.T) {
	for _, c := range [][2]Cell{
		{AtomCell(data.Int(1 << 53)), AtomCell(data.Int(1<<53 + 1))},
		{AtomCell(data.Int(math.MaxInt64)), AtomCell(data.Int(math.MaxInt64 - 1))},
		{AtomCell(data.Int(math.MaxInt64)), AtomCell(data.Float(0x1p63))},
		{AtomCell(data.Int(1<<53 + 1)), TreeCell(data.FloatLeaf("price", 1<<53))},
		{TreeCell(data.Elem("w", data.IntLeaf("y", 1<<53))), TreeCell(data.Elem("w", data.IntLeaf("y", 1<<53+1)))},
	} {
		if c[0].Equal(c[1]) {
			t.Fatalf("%v and %v must not be Equal", c[0], c[1])
		}
		both := New("$x")
		both.Add(c[0])
		both.Add(c[1])
		if got := both.Distinct().Len(); got != 2 {
			t.Errorf("%v, %v: Distinct kept %d rows, want 2", c[0], c[1], got)
		}
		if got := both.GroupBy("$g", "$x").Len(); got != 2 {
			t.Errorf("%v, %v: GroupBy made %d groups, want 2", c[0], c[1], got)
		}
		twice := New("$x")
		twice.Add(c[0])
		twice.Add(c[0])
		if both.EqualUnordered(twice) {
			t.Errorf("%v, %v: distinct values compare equal up to order", c[0], c[1])
		}
	}
}
