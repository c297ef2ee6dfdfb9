// Package tab implements the Tab structure of the YAT algebra: the ¬1NF
// relation produced by the Bind operator and consumed by the classical
// operators (Select, Project, Join, ...) as described in Section 3.1 and
// Figure 4 of the paper. A Tab has named columns (the filter's variables)
// and rows of cells; a cell holds an atomic value, a tree, an ordered
// sequence of trees (a collect-star binding such as $fields), or a nested
// Tab (the result of grouping).
package tab

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/data"
)

// CellKind discriminates the four cell shapes.
type CellKind int

// Cell kinds.
const (
	CNull CellKind = iota // absent value (outer operations, optional fields)
	CAtom                 // atomic value
	CTree                 // a single tree
	CSeq                  // an ordered sequence of trees
	CTab                  // a nested table
)

// Cell is one Tab entry.
type Cell struct {
	Kind CellKind
	Atom data.Atom
	Tree *data.Node
	Seq  data.Forest
	Tab  *Tab
}

// Null returns the absent cell.
func Null() Cell { return Cell{Kind: CNull} }

// AtomCell wraps an atomic value.
func AtomCell(a data.Atom) Cell { return Cell{Kind: CAtom, Atom: a} }

// TreeCell wraps a tree.
func TreeCell(n *data.Node) Cell { return Cell{Kind: CTree, Tree: n} }

// SeqCell wraps a sequence of trees.
func SeqCell(f data.Forest) Cell { return Cell{Kind: CSeq, Seq: f} }

// TabCell wraps a nested table.
func TabCell(t *Tab) Cell { return Cell{Kind: CTab, Tab: t} }

// IsNull reports whether the cell is absent.
func (c Cell) IsNull() bool { return c.Kind == CNull }

// AsAtom extracts an atomic value: directly for CAtom, from a leaf tree for
// CTree. The boolean reports success.
func (c Cell) AsAtom() (data.Atom, bool) {
	switch c.Kind {
	case CAtom:
		return c.Atom, true
	case CTree:
		return c.Tree.AtomValue()
	default:
		return data.Atom{}, false
	}
}

// AsForest views the cell as a sequence of trees: a CSeq directly, a CTree
// as a singleton, an atom as a singleton unlabeled leaf, a nested tab as its
// rows rendered to trees.
func (c Cell) AsForest() data.Forest {
	switch c.Kind {
	case CSeq:
		return c.Seq
	case CTree:
		return data.Forest{c.Tree}
	case CAtom:
		a := c.Atom
		return data.Forest{{Atom: &a}}
	case CTab:
		var out data.Forest
		for _, r := range c.Tab.Rows {
			row := data.Elem("row")
			for i, cc := range r {
				cell := data.Elem(c.Tab.Cols[i])
				cell.Kids = cc.AsForest()
				row.Add(cell)
			}
			out = append(out, row)
		}
		return out
	default:
		return nil
	}
}

// Equal reports deep value equality of two cells.
func (c Cell) Equal(d Cell) bool {
	if c.Kind != d.Kind {
		// Atom cells and leaf tree cells with the same atom compare equal:
		// sources differ in whether they ship bare atoms or leaf elements.
		ca, cok := c.AsAtom()
		da, dok := d.AsAtom()
		if cok && dok {
			return ca.Equal(da)
		}
		return false
	}
	switch c.Kind {
	case CNull:
		return true
	case CAtom:
		return c.Atom.Equal(d.Atom)
	case CTree:
		return data.EqualValue(c.Tree, d.Tree)
	case CSeq:
		return c.Seq.Equal(d.Seq)
	case CTab:
		return c.Tab.Equal(d.Tab)
	default:
		return false
	}
}

// Compare defines a total order over cells (for Sort and Group): nulls
// first, then by kind, atoms/trees/seqs by their natural orders.
func (c Cell) Compare(d Cell) int {
	ca, cok := c.AsAtom()
	da, dok := d.AsAtom()
	if cok && dok {
		return ca.Compare(da)
	}
	if c.Kind != d.Kind {
		if c.Kind < d.Kind {
			return -1
		}
		return 1
	}
	switch c.Kind {
	case CNull:
		return 0
	case CTree:
		return data.Compare(c.Tree, d.Tree)
	case CSeq:
		n := len(c.Seq)
		if len(d.Seq) < n {
			n = len(d.Seq)
		}
		for i := 0; i < n; i++ {
			if r := data.Compare(c.Seq[i], d.Seq[i]); r != 0 {
				return r
			}
		}
		switch {
		case len(c.Seq) < len(d.Seq):
			return -1
		case len(c.Seq) > len(d.Seq):
			return 1
		default:
			return 0
		}
	case CTab:
		return strings.Compare(c.Tab.String(), d.Tab.String())
	default:
		return 0
	}
}

// Key returns a string usable as a hash-map key, consistent with Equal.
func (c Cell) Key() string {
	if a, ok := c.AsAtom(); ok {
		return "a:" + a.Kind.String() + ":" + a.Text()
	}
	switch c.Kind {
	case CNull:
		return "_"
	case CTree:
		return string(appendHash(append(make([]byte, 0, 18), "t:"...), c.Tree))
	case CSeq:
		var b strings.Builder
		b.Grow(2 + 17*len(c.Seq))
		b.WriteString("s:")
		for _, n := range c.Seq {
			var d [17]byte
			b.Write(append(appendHash(d[:0], n), '.'))
		}
		return b.String()
	case CTab:
		return "T:" + c.Tab.String()
	default:
		return "?"
	}
}

// KeyLen returns len(c.Key()) without building the key: a number is
// formatted into a buffer on the stack to be measured, and no tree is
// hashed, since a hash is always 16 hex digits.
func (c Cell) KeyLen() int {
	if a, ok := c.AsAtom(); ok {
		n := len("a::") + len(a.Kind.String())
		switch a.Kind {
		case data.KindInt:
			var d [20]byte
			return n + len(strconv.AppendInt(d[:0], a.I, 10))
		case data.KindFloat:
			var d [32]byte
			return n + len(strconv.AppendFloat(d[:0], a.F, 'g', -1, 64))
		}
		return n + len(a.Text())
	}
	switch c.Kind {
	case CTree:
		return len("t:") + 16
	case CSeq:
		return len("s:") + 17*len(c.Seq)
	default:
		return len(c.Key())
	}
}

// appendHash appends data.Hash(n) as 16 hex digits.
func appendHash(b []byte, n *data.Node) []byte {
	var d [16]byte
	h := strconv.AppendUint(d[:0], data.Hash(n), 16)
	return append(append(b, "0000000000000000"[len(h):]...), h...)
}

// String renders the cell compactly.
func (c Cell) String() string {
	switch c.Kind {
	case CNull:
		return "⊥"
	case CAtom:
		return c.Atom.Text()
	case CTree:
		return c.Tree.String()
	case CSeq:
		return c.Seq.String()
	case CTab:
		return "⟨" + strings.ReplaceAll(c.Tab.String(), "\n", "; ") + "⟩"
	default:
		return "?"
	}
}

// Row is one Tab row; cells align with the Tab's Cols.
type Row []Cell

// Clone copies the row (cells share underlying trees, which are immutable
// by convention once placed in a Tab).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports cell-wise equality.
func (r Row) Equal(s Row) bool {
	if len(r) != len(s) {
		return false
	}
	for i := range r {
		if !r[i].Equal(s[i]) {
			return false
		}
	}
	return true
}

// Key concatenates cell keys; rows with equal keys are Equal.
func (r Row) Key() string {
	parts := make([]string, len(r))
	for i, c := range r {
		parts[i] = c.Key()
	}
	return strings.Join(parts, "|")
}

// Tab is the ¬1NF relation of the YAT algebra.
type Tab struct {
	Cols []string
	Rows []Row
}

// New returns an empty Tab with the given columns.
func New(cols ...string) *Tab {
	return &Tab{Cols: append([]string(nil), cols...)}
}

// Add appends a row; it must have exactly one cell per column.
func (t *Tab) Add(cells ...Cell) *Tab {
	if len(cells) != len(t.Cols) {
		panic(fmt.Sprintf("tab: row with %d cells for %d columns %v", len(cells), len(t.Cols), t.Cols))
	}
	t.Rows = append(t.Rows, Row(cells))
	return t
}

// AddRow appends a pre-built row with the same arity check.
func (t *Tab) AddRow(r Row) *Tab { return t.Add(r...) }

// Len reports the number of rows; a nil tab has none.
func (t *Tab) Len() int {
	if t == nil {
		return 0
	}
	return len(t.Rows)
}

// ColIndex returns the position of a column, or -1.
func (t *Tab) ColIndex(name string) int {
	for i, c := range t.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// SplitRename splits a projection entry into the column it names and the
// input column it reads: "new=old" renames old to new, a bare name keeps
// its column. It is the one reader of the rename format.
func SplitRename(col string) (name, src string) {
	if name, src, ok := strings.Cut(col, "="); ok {
		return name, src
	}
	return col, col
}

// Rename is the projection entry "name=src" that SplitRename reads back.
func Rename(name, src string) string { return name + "=" + src }

// Project returns a new Tab with the named columns in the given order.
// Unknown columns yield all-null columns (outer semantics on optional
// fields); renames are performed with "new=old" entries (SplitRename).
func (t *Tab) Project(cols ...string) *Tab {
	type src struct {
		name string
		idx  int
	}
	plan := make([]src, len(cols))
	for i, c := range cols {
		name, old := SplitRename(c)
		plan[i] = src{name, t.ColIndex(old)}
	}
	out := &Tab{Cols: make([]string, len(cols))}
	for i, p := range plan {
		out.Cols[i] = p.name
	}
	for _, r := range t.Rows {
		row := make(Row, len(plan))
		for i, p := range plan {
			if p.idx < 0 {
				row[i] = Null()
			} else {
				row[i] = r[p.idx]
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Equal reports column- and row-wise equality (ordered).
func (t *Tab) Equal(u *Tab) bool {
	if t == nil || u == nil {
		return t == u
	}
	if len(t.Cols) != len(u.Cols) || len(t.Rows) != len(u.Rows) {
		return false
	}
	for i := range t.Cols {
		if t.Cols[i] != u.Cols[i] {
			return false
		}
	}
	for i := range t.Rows {
		if !t.Rows[i].Equal(u.Rows[i]) {
			return false
		}
	}
	return true
}

// EqualUnordered reports equality up to row order (bag semantics), used by
// the optimizer's semantics-preservation tests: rewritten plans may produce
// rows in a different order.
func (t *Tab) EqualUnordered(u *Tab) bool {
	if t == nil || u == nil {
		return t == u
	}
	if len(t.Cols) != len(u.Cols) || len(t.Rows) != len(u.Rows) {
		return false
	}
	for i := range t.Cols {
		if t.Cols[i] != u.Cols[i] {
			return false
		}
	}
	counts := make(map[string]int, len(t.Rows))
	for _, r := range t.Rows {
		counts[r.Key()]++
	}
	for _, r := range u.Rows {
		counts[r.Key()]--
	}
	for _, v := range counts {
		if v != 0 {
			return false
		}
	}
	return true
}

// SortBy sorts rows by the given columns in order (stable).
func (t *Tab) SortBy(cols ...string) {
	idx := make([]int, 0, len(cols))
	for _, c := range cols {
		if i := t.ColIndex(c); i >= 0 {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(t.Rows, func(a, b int) bool {
		for _, i := range idx {
			if r := t.Rows[a][i].Compare(t.Rows[b][i]); r != 0 {
				return r < 0
			}
		}
		return false
	})
}

// Sorted returns a copy of the Tab with rows sorted by all columns; useful
// to canonicalise before comparisons.
func (t *Tab) Sorted() *Tab {
	out := &Tab{Cols: append([]string(nil), t.Cols...), Rows: make([]Row, len(t.Rows))}
	for i, r := range t.Rows {
		out.Rows[i] = r
	}
	sort.SliceStable(out.Rows, func(a, b int) bool {
		return strings.Compare(out.Rows[a].Key(), out.Rows[b].Key()) < 0
	})
	return out
}

// GroupBy partitions rows by the key columns and returns a Tab with the key
// columns plus one nested-Tab column named into, containing the remaining
// columns of each group (in first-seen key order).
func (t *Tab) GroupBy(into string, keys ...string) *Tab {
	keyIdx := make([]int, len(keys))
	for i, k := range keys {
		keyIdx[i] = t.ColIndex(k)
	}
	var restCols []string
	var restIdx []int
	for i, c := range t.Cols {
		used := false
		for _, ki := range keyIdx {
			if i == ki {
				used = true
				break
			}
		}
		if !used {
			restCols = append(restCols, c)
			restIdx = append(restIdx, i)
		}
	}
	out := New(append(append([]string(nil), keys...), into)...)
	order := []string{}
	groups := map[string]*Tab{}
	keyRows := map[string]Row{}
	for _, r := range t.Rows {
		kr := make(Row, len(keyIdx))
		for i, ki := range keyIdx {
			if ki < 0 {
				kr[i] = Null()
			} else {
				kr[i] = r[ki]
			}
		}
		k := kr.Key()
		g, ok := groups[k]
		if !ok {
			g = New(restCols...)
			groups[k] = g
			keyRows[k] = kr
			order = append(order, k)
		}
		rest := make(Row, len(restIdx))
		for i, ri := range restIdx {
			rest[i] = r[ri]
		}
		g.Rows = append(g.Rows, rest)
	}
	for _, k := range order {
		out.AddRow(append(keyRows[k].Clone(), TabCell(groups[k])))
	}
	return out
}

// Distinct returns a copy with duplicate rows removed (first occurrence
// kept), implementing set semantics where required.
func (t *Tab) Distinct() *Tab {
	out := New(t.Cols...)
	seen := make(map[string]bool, len(t.Rows))
	for _, r := range t.Rows {
		k := r.Key()
		if !seen[k] {
			seen[k] = true
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}

// Concat appends the rows of u (columns must match).
func (t *Tab) Concat(u *Tab) error {
	if len(t.Cols) != len(u.Cols) {
		return fmt.Errorf("tab: cannot concat %v with %v", t.Cols, u.Cols)
	}
	for i := range t.Cols {
		if t.Cols[i] != u.Cols[i] {
			return fmt.Errorf("tab: cannot concat %v with %v", t.Cols, u.Cols)
		}
	}
	t.Rows = append(t.Rows, u.Rows...)
	return nil
}

// String renders the Tab as an aligned text table, one row per line.
func (t *Tab) String() string {
	if t == nil {
		return "<nil tab>"
	}
	widths := make([]int, len(t.Cols))
	cells := make([][]string, len(t.Rows))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for ri, r := range t.Rows {
		cells[ri] = make([]string, len(r))
		for ci, c := range r {
			s := c.String()
			if len(s) > 48 {
				s = s[:45] + "..."
			}
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range t.Cols {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for ri := range cells {
		for ci := range cells[ri] {
			if ci > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[ci], cells[ri][ci])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
