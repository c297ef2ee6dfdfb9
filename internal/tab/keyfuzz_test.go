package tab

import (
	"bytes"
	"math"
	"math/big"
	"slices"
	"testing"

	"repro/internal/data"
)

// keyDecoder reads cells of every kind from fuzz bytes, drawing values from
// small domains so that equal cells (Int 5 and Float 5, -0 and 0, an atom
// and a leaf tree) come up often, and so do numbers that round to one
// float64 without being one value (2^53 and 2^53+1, MaxInt64 and 2^63).
// Past the end of the input it reads zeros.
type keyDecoder struct{ b []byte }

func (d *keyDecoder) next() byte {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *keyDecoder) atom() data.Atom {
	c := d.next()
	v := int(c / 4 % 8)
	switch c % 4 {
	case 0:
		return data.Int([]int64{-1, 0, 1, 5, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}[v])
	case 1:
		return data.Float([]float64{0, math.Copysign(0, -1), 1, 2.5, 5, -1, 1 << 53, 0x1p63}[v])
	case 2:
		return data.Bool(v%2 == 1)
	default:
		return data.String([]string{"", "x", "|", "\x00", "a:String:x", "x|a:String:", "y", "|a:String:"}[v])
	}
}

func (d *keyDecoder) tree(depth int) *data.Node {
	c := d.next()
	label := []string{"", "a", "b"}[c%3]
	if depth == 0 || c/3%2 == 0 {
		return data.Leaf(label, d.atom())
	}
	n := data.Elem(label)
	for range int(d.next() % 3) {
		n.Add(d.tree(depth - 1))
	}
	return n
}

func (d *keyDecoder) forest() data.Forest {
	var f data.Forest
	for range int(d.next() % 4) {
		f = append(f, d.tree(2))
	}
	return f
}

func (d *keyDecoder) cell(depth int) Cell {
	switch d.next() % 5 {
	case 0:
		return Null()
	case 1:
		return AtomCell(d.atom())
	case 2:
		return TreeCell(d.tree(2))
	case 3:
		return SeqCell(d.forest())
	default:
		if depth == 0 {
			return Null()
		}
		t := New([]string{"$a", "$b"}[:1+int(d.next()%2)]...)
		for range int(d.next() % 3) {
			t.AddRow(d.row(len(t.Cols), depth-1))
		}
		return TabCell(t)
	}
}

func (d *keyDecoder) row(n, depth int) Row {
	r := make(Row, n)
	for i := range r {
		r[i] = d.cell(depth)
	}
	return r
}

// twinAtom returns an atom Equal to a of the other numeric kind where one
// exists: an Int a float64 holds as a Float, 0 as -0, an integral Float
// within int64 as an Int.
func twinAtom(a data.Atom) data.Atom {
	switch {
	case a.Kind == data.KindInt && float64(a.I) < 0x1p63 && int64(float64(a.I)) == a.I:
		return data.Float(float64(a.I))
	case a.Kind == data.KindFloat && a.F == 0:
		return data.Float(-a.F)
	case a.Kind == data.KindFloat && a.F == math.Trunc(a.F) && a.F >= -0x1p63 && a.F < 0x1p63:
		return data.Int(int64(a.F))
	default:
		return a
	}
}

// flat reports whether every cell of r is an atom or a null.
func flat(r Row) bool {
	return !slices.ContainsFunc(r, func(c Cell) bool { return c.Kind != CAtom && c.Kind != CNull })
}

// sameFlat is Row.Equal over rows of atoms and nulls with numbers compared
// exactly, by math/big: the reference such rows and their keys are held to.
func sameFlat(r, s Row) bool {
	exact := func(a data.Atom) *big.Float {
		if a.Kind == data.KindInt {
			return new(big.Float).SetInt64(a.I)
		}
		return big.NewFloat(a.F)
	}
	return slices.EqualFunc(r, s, func(c, d Cell) bool {
		if c.Kind == CAtom && d.Kind == CAtom && c.Atom.IsNumeric() && d.Atom.IsNumeric() {
			return exact(c.Atom).Cmp(exact(d.Atom)) == 0
		}
		return c.Equal(d)
	})
}

func twinTree(n *data.Node) *data.Node {
	out := &data.Node{Label: n.Label, Ref: n.Ref}
	if n.Atom != nil {
		a := twinAtom(*n.Atom)
		out.Atom = &a
	}
	for _, k := range n.Kids {
		out.Kids = append(out.Kids, twinTree(k))
	}
	return out
}

// twin returns a cell Equal to c in another representation: an atom as a
// leaf tree and back, every number in it as the other numeric kind.
func twin(c Cell) Cell {
	if a, ok := c.AsAtom(); ok {
		if c.Kind == CAtom {
			return TreeCell(data.Leaf("leaf", twinAtom(a)))
		}
		return AtomCell(twinAtom(a))
	}
	switch c.Kind {
	case CTree:
		return TreeCell(twinTree(c.Tree))
	case CSeq:
		f := make(data.Forest, len(c.Seq))
		for i, n := range c.Seq {
			f[i] = twinTree(n)
		}
		return SeqCell(f)
	case CTab:
		t := New(c.Tab.Cols...)
		for _, r := range c.Tab.Rows {
			t.AddRow(twinRow(r))
		}
		return TabCell(t)
	default:
		return c
	}
}

func twinRow(r Row) Row {
	out := make(Row, len(r))
	for i, c := range r {
		out[i] = twin(c)
	}
	return out
}

// FuzzRowKey holds Row.AppendKey to Row.Equal over rows of every cell kind
// decoded from bytes: Equal rows share a key, a row and its twin in other
// representations included; rows of atoms and nulls are Equal, and share a
// key, exactly when their numbers are one value; and rows that differ only
// in where a boundary between two cells falls, string or sequence cells,
// never share one.
func FuzzRowKey(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0), uint8(1))
	f.Add([]byte{1, 0, 1, 1}, []byte{1, 0, 1, 1}, uint8(1), uint8(3))
	f.Add([]byte{1, 17, 2, 4, 1, 1, 3, 2, 0, 0}, []byte{2, 4, 17, 1, 17}, uint8(2), uint8(5))
	f.Add([]byte{4, 1, 2, 1, 5, 1, 13, 3, 3, 4, 0, 4}, []byte("x|a:String:y"), uint8(1), uint8(7))
	f.Add([]byte{0, 1, 16}, []byte{1, 20}, uint8(0), uint8(0)) // Int 2^53 and 2^53+1
	f.Add([]byte{0, 1, 24}, []byte{1, 29}, uint8(0), uint8(0)) // Int MaxInt64 and Float 2^63
	f.Fuzz(func(t *testing.T, a, b []byte, i, j uint8) {
		key := func(r Row) []byte { return r.AppendKey(nil, nil) }
		da, db := &keyDecoder{a}, &keyDecoder{b}
		n := 1 + int(da.next()%3)
		r, s := da.row(n, 2), db.row(n, 2)
		if r.Equal(s) && !bytes.Equal(key(r), key(s)) {
			t.Fatalf("Equal rows with keys %q and %q:\n%v\n%v", key(r), key(s), r, s)
		}
		if flat(r) && flat(s) {
			if same := sameFlat(r, s); r.Equal(s) != same || bytes.Equal(key(r), key(s)) != same {
				t.Fatalf("rows of atoms, one value %v: Equal %v, keys %q and %q:\n%v\n%v", same, r.Equal(s), key(r), key(s), r, s)
			}
		}
		tw := twinRow(r)
		if !r.Equal(tw) {
			t.Fatalf("twin not Equal:\n%v\n%v", r, tw)
		}
		if !bytes.Equal(key(r), key(tw)) {
			t.Fatalf("row and its twin have keys %q and %q:\n%v\n%v", key(r), key(tw), r, tw)
		}

		// The same bytes or trees, cut into two cells at two places.
		str := string(b)
		fo := (&keyDecoder{b}).forest()
		for _, cut := range []func(int) (Cell, Cell){
			func(k int) (Cell, Cell) {
				k %= len(str) + 1
				return AtomCell(data.String(str[:k])), AtomCell(data.String(str[k:]))
			},
			func(k int) (Cell, Cell) {
				k %= len(fo) + 1
				return SeqCell(fo[:k]), SeqCell(fo[k:])
			},
		} {
			p1, q1 := cut(int(i))
			p2, q2 := cut(int(j))
			x, y := append(r.Clone(), p1, q1), append(r.Clone(), p2, q2)
			if !p1.Equal(p2) && bytes.Equal(key(x), key(y)) {
				t.Fatalf("rows differing in a cell boundary share key %q:\n%v\n%v", key(x), x, y)
			}
		}
	})
}

// TestAppendKeyIndexes covers the selected-cell form: cells in the order
// given, an index outside the row keyed as absent, apart from a null.
func TestAppendKeyIndexes(t *testing.T) {
	x, y := AtomCell(data.String("x")), AtomCell(data.Int(1))
	r := Row{x, y, Null()}
	key := func(r Row, idx []int) string { return string(r.AppendKey(nil, idx)) }
	if key(r, []int{1, 0}) != key(Row{y, x}, nil) {
		t.Error("selected cells must key as the row of those cells in that order")
	}
	if key(r, []int{2}) == key(r, []int{-1}) || key(r, []int{2}) == key(r, []int{3}) {
		t.Error("an absent value must key apart from a null")
	}
	if key(r, []int{-1}) != key(r, []int{3}) {
		t.Error("every index outside the row keys as absent")
	}
	if key(r, []int{}) != "" || key(r, nil) == "" {
		t.Error("no indexes key nothing; nil indexes key every cell")
	}
}
