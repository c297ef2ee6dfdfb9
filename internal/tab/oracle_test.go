package tab

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/xmlenc"
)

// oracleToXML is a test-only copy of the node-by-node ToXML that the block
// builder replaced.
func oracleToXML(t *Tab) *data.Node {
	root := data.Elem("tab")
	cols := ""
	for i, c := range t.Cols {
		if i > 0 {
			cols += " "
		}
		cols += c
	}
	root.Add(data.Text("@cols", cols))
	for _, r := range t.Rows {
		row := data.Elem("row")
		for _, c := range r {
			row.Add(oracleCellToXML(c))
		}
		root.Add(row)
	}
	return root
}

func oracleCellToXML(c Cell) *data.Node {
	switch c.Kind {
	case CNull:
		return data.Elem("null")
	case CAtom:
		n := data.Leaf("atom", c.Atom)
		n.Kids = append(n.Kids, data.Text("@type", c.Atom.Kind.String()))
		return n
	case CTree:
		return data.Elem("tree", c.Tree)
	case CSeq:
		s := data.Elem("seq")
		s.Kids = append(s.Kids, c.Seq...)
		return s
	case CTab:
		return oracleToXML(c.Tab)
	default:
		return data.Elem("null")
	}
}

// oracleTabs cover every cell kind: atoms of the four kinds (an empty string,
// text to escape, extreme numbers), a tree, a seq of attribute and bare
// reference nodes (written as attributes of <seq>) beside an element, an
// empty seq, a nested tab, a null; and a tab with no columns, one with no
// rows, and the 64-row atom tab of the allocation guard.
func oracleTabs() []*Tab {
	work := data.Elem("work", data.Text("title", "Nympheas"), data.RefNode("owner", "p1")).WithID("w1")
	nested := New("$y", "$z")
	nested.AddRow(Row{AtomCell(data.Int(-7)), TreeCell(work)})
	nested.AddRow(Row{Null(), AtomCell(data.String(""))})
	all := New("$i", "$f", "$b", "$s", "$e", "$t", "$q", "$o", "$n", "$x")
	all.AddRow(Row{
		AtomCell(data.Int(math.MinInt64)), AtomCell(data.Float(1e-300)), AtomCell(data.Bool(true)),
		AtomCell(data.String(`<a & "b">`)), AtomCell(data.String("")), TreeCell(work),
		SeqCell(data.Forest{data.Text("@k", "v"), data.RefNode("ref", "p1"), data.RefNode("ref", "p2"), work}),
		SeqCell(nil), Null(), TabCell(nested),
	})
	all.AddRow(Row{
		AtomCell(data.Int(0)), AtomCell(data.Float(math.Inf(-1))), AtomCell(data.Bool(false)),
		AtomCell(data.String("x")), AtomCell(data.String("  ")), TreeCell(data.Text("leaf", "v")),
		SeqCell(data.Forest{data.RefNode("ref", "p3")}), SeqCell(data.Forest{}), Null(), TabCell(New("$none")),
	})
	empty := New()
	empty.AddRow(Row{})
	return []*Tab{all, nested, empty, New("$a", "$b"), atomTab(64)}
}

// atomTab is a reply tab of n rows of three atom cells.
func atomTab(n int) *Tab {
	t := New("$t", "$y", "$p")
	for i := range n {
		t.AddRow(Row{AtomCell(data.String("Painting")), AtomCell(data.Int(int64(1800 + i))), AtomCell(data.Float(1.5 * float64(i)))})
	}
	return t
}

func TestToXMLMatchesOracle(t *testing.T) {
	for i, tb := range oracleTabs() {
		if got, want := ToXML(tb), oracleToXML(tb); !reflect.DeepEqual(got, want) {
			t.Errorf("tab %d: ToXML\n%s\noracle\n%s", i, got, want)
		}
		if got, want := Marshal(tb), xmlenc.Serialize(oracleToXML(tb)); got != want {
			t.Errorf("tab %d: Marshal\n%s\noracle\n%s", i, got, want)
		}
	}
}

// TestCellKeysPinned pins Cell.Key for every cell kind, as it read when the
// tree and seq keys were formatted with fmt.
func TestCellKeysPinned(t *testing.T) {
	work := data.Elem("work", data.Text("title", "Nympheas"), data.IntLeaf("year", 1897))
	nested := New("$y")
	nested.AddRow(Row{AtomCell(data.Int(1))})
	for _, c := range []struct {
		cell Cell
		want string
	}{
		{Null(), "_"},
		{AtomCell(data.Int(-3)), "a:Int:-3"},
		{AtomCell(data.Float(2.5)), "a:Float:2.5"},
		{AtomCell(data.String("x")), "a:String:x"},
		{TreeCell(work), "t:4c0b761b9cf8a31c"},
		{TreeCell(data.Elem("e443")), "t:007b53e6a1a6f5ce"}, // leading zeros
		{TreeCell(data.Text("leaf", "v")), "a:String:v"},
		{SeqCell(data.Forest{work, data.Elem("e443")}), "s:4c0b761b9cf8a31c.007b53e6a1a6f5ce."},
		{SeqCell(nil), "s:"},
		{TabCell(nested), "T:$y\n1 \n"},
	} {
		if got := c.cell.Key(); got != c.want {
			t.Errorf("%s: Key = %q, want %q", c.cell, got, c.want)
		}
	}
}

func TestMarshalAllocs(t *testing.T) {
	rows := atomTab(64)
	// measured: 18 (1,245 node by node): the XML tree's block (3), the
	// column list and the serializer's buffer growth
	if n := testing.AllocsPerRun(20, func() { _ = Marshal(rows) }); n > 18 {
		t.Errorf("Marshal of a 64-row atom tab: %v allocations, want at most 18", n)
	}
}
