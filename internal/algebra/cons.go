package algebra

import (
	"fmt"
	"strings"

	"repro/internal/data"
	"repro/internal/tab"
)

// Cons is a construction pattern: the specification consumed by the Tree
// operator (Figure 4) to build new nested XML structures out of a Tab. It
// supports grouping (the *(vars) primitive), Skolem functions (creating
// identified trees), and references to Skolem-identified trees.
type Cons struct {
	Label      string     // element label ("" for content positions)
	LabelVar   string     // label taken from a variable's value (~$l)
	Var        string     // splice a variable's value (atom, tree or sequence)
	Const      *data.Atom // constant leaf content
	Skolem     string     // Skolem function name: mint an identifier for this node
	SkolemArgs []string   // Skolem function arguments
	RefTo      string     // construct a reference to skolem RefTo(RefArgs...)
	RefArgs    []string
	Kids       []ConsItem
}

// ConsItem is one child of a construction pattern.
type ConsItem struct {
	C    *Cons
	Star bool     // one instance per group of rows
	Keys []string // explicit grouping keys *(keys); defaults to Skolem args or the vars below
}

// DirectVars returns the variables a construction references outside its
// starred children; they define the grouping keys of the enclosing level.
func (c *Cons) DirectVars() []string {
	var out []string
	seen := map[string]bool{}
	add := func(v string) {
		if v != "" && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	var walk func(n *Cons)
	walk = func(n *Cons) {
		if n == nil {
			return
		}
		add(n.LabelVar)
		add(n.Var)
		for _, a := range n.SkolemArgs {
			add(a)
		}
		for _, a := range n.RefArgs {
			add(a)
		}
		for _, it := range n.Kids {
			if !it.Star {
				walk(it.C)
			}
		}
	}
	walk(c)
	return out
}

// AllVars returns every variable referenced anywhere in the construction.
func (c *Cons) AllVars() []string {
	var out []string
	seen := map[string]bool{}
	add := func(v string) {
		if v != "" && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	var walk func(n *Cons)
	walk = func(n *Cons) {
		if n == nil {
			return
		}
		add(n.LabelVar)
		add(n.Var)
		for _, a := range n.SkolemArgs {
			add(a)
		}
		for _, a := range n.RefArgs {
			add(a)
		}
		for _, it := range n.Kids {
			for _, k := range it.Keys {
				add(k)
			}
			walk(it.C)
		}
	}
	walk(c)
	return out
}

// groupKeys returns the grouping keys of a starred item.
func (it ConsItem) groupKeys() []string {
	if len(it.Keys) > 0 {
		return it.Keys
	}
	if it.C != nil && len(it.C.SkolemArgs) > 0 {
		return it.C.SkolemArgs
	}
	return it.C.DirectVars()
}

// buildForest evaluates the construction over a Tab: rows are partitioned
// by the root's direct variables (one tree per distinct binding), starred
// children by their grouping keys within the parent partition. Skolem
// identifiers are minted through the registry; the same (function, args)
// always yields the same identifier, letting separate rules fuse trees.
// With a seen set, t is one chunk of a longer input: root partitions whose
// key is already in seen were built from an earlier chunk and are skipped,
// new keys are added. That is sound only for a RowLocal construction, where
// a partition's tree is fixed by its first row.
func (c *Cons) buildForest(t *tab.Tab, reg *Skolems, seen map[string]bool) (data.Forest, error) {
	cols := colIndex(t.Cols)
	keys, parts := partition(t.Rows, cols, c.DirectVars())
	var out data.Forest
	for i, p := range parts {
		if seen != nil {
			if seen[keys[i]] {
				continue
			}
			seen[keys[i]] = true
		}
		f, err := build(c, p, cols, reg)
		if err != nil {
			return nil, err
		}
		out = append(out, f...)
	}
	return out, nil
}

// partition splits rows by the values of the key columns, preserving
// first-seen order, and returns each partition's key beside it. With no keys
// it returns a single partition (possibly empty, in which case construction
// yields an empty skeleton).
func partition(rows []tab.Row, cols map[string]int, keys []string) ([]string, [][]tab.Row) {
	if len(keys) == 0 {
		return []string{""}, [][]tab.Row{rows}
	}
	var order []string
	groups := map[string][]tab.Row{}
	for _, r := range rows {
		var b strings.Builder
		for _, k := range keys {
			if i, ok := cols[k]; ok && i < len(r) {
				b.WriteString(r[i].Key())
			}
			b.WriteByte('\x00')
		}
		k := b.String()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	out := make([][]tab.Row, len(order))
	for i, k := range order {
		out[i] = groups[k]
	}
	return order, out
}

// build constructs the forest for one partition of rows.
func build(c *Cons, rows []tab.Row, cols map[string]int, reg *Skolems) (data.Forest, error) {
	cell := func(v string) tab.Cell {
		if len(rows) == 0 {
			return tab.Null()
		}
		if i, ok := cols[v]; ok && i < len(rows[0]) {
			return rows[0][i]
		}
		return tab.Null()
	}
	// Pure variable splice: expand the cell into nodes.
	if c.Var != "" && c.Label == "" && c.LabelVar == "" {
		return spliceCell(cell(c.Var)), nil
	}
	label := c.Label
	if c.LabelVar != "" {
		a, ok := cell(c.LabelVar).AsAtom()
		if !ok {
			return nil, fmt.Errorf("tree: label variable %s is not atomic", c.LabelVar)
		}
		label = a.Text()
	}
	if c.RefTo != "" {
		id := reg.ID(c.RefTo, keyCells(c.RefArgs, rows, cols))
		return data.Forest{data.RefNode(label, id)}, nil
	}
	n := data.Elem(label)
	if c.Skolem != "" {
		n.ID = reg.ID(c.Skolem, keyCells(c.SkolemArgs, rows, cols))
	}
	if c.Const != nil {
		a := *c.Const
		n.Atom = &a
		return data.Forest{n}, nil
	}
	if c.Var != "" { // labeled node spliced with a variable's content
		n.Kids = append(n.Kids, spliceCell(cell(c.Var))...)
	}
	for _, it := range c.Kids {
		if !it.Star {
			f, err := build(it.C, rows, cols, reg)
			if err != nil {
				return nil, err
			}
			n.Kids = append(n.Kids, f...)
			continue
		}
		_, parts := partition(rows, cols, it.groupKeys())
		for _, p := range parts {
			if len(p) == 0 {
				continue
			}
			f, err := build(it.C, p, cols, reg)
			if err != nil {
				return nil, err
			}
			n.Kids = append(n.Kids, f...)
		}
	}
	normalizeCons(n)
	return data.Forest{n}, nil
}

// normalizeCons collapses a node whose single child is an unlabeled leaf
// into a leaf (so `title: $t` yields <title>Nympheas</title>).
func normalizeCons(n *data.Node) {
	if len(n.Kids) != 1 || n.Kids[0].Label != "" || n.Kids[0].ID != "" {
		return
	}
	switch {
	case n.Kids[0].Atom != nil:
		n.Atom = n.Kids[0].Atom
		n.Kids = nil
	case n.Kids[0].IsRef():
		// `owner: &person($o)` yields <owner ref="..."/>, not a wrapper
		// around an unlabeled reference.
		n.Ref = n.Kids[0].Ref
		n.Kids = nil
	}
}

// spliceCell renders a cell as constructed content.
func spliceCell(c tab.Cell) data.Forest {
	switch c.Kind {
	case tab.CAtom:
		a := c.Atom
		return data.Forest{{Atom: &a}}
	case tab.CTree:
		return data.Forest{c.Tree.Clone()}
	case tab.CSeq:
		return c.Seq.Clone()
	case tab.CTab:
		return c.AsForest()
	default:
		return nil
	}
}

func keyCells(vars []string, rows []tab.Row, cols map[string]int) []tab.Cell {
	out := make([]tab.Cell, len(vars))
	for i, v := range vars {
		out[i] = tab.Null()
		if len(rows) > 0 {
			if j, ok := cols[v]; ok && j < len(rows[0]) {
				out[i] = rows[0][j]
			}
		}
	}
	return out
}

// String renders the construction in the syntax accepted by ParseCons.
func (c *Cons) String() string {
	var b strings.Builder
	c.write(&b)
	return b.String()
}

func (c *Cons) write(b *strings.Builder) {
	if c == nil {
		b.WriteString("<nil>")
		return
	}
	if c.Skolem != "" {
		fmt.Fprintf(b, "%s(%s) := ", c.Skolem, strings.Join(c.SkolemArgs, ", "))
	}
	if c.RefTo != "" {
		if c.Label != "" {
			b.WriteString(c.Label)
			b.WriteString(": ")
		}
		fmt.Fprintf(b, "&%s(%s)", c.RefTo, strings.Join(c.RefArgs, ", "))
		return
	}
	head := false
	switch {
	case c.LabelVar != "":
		b.WriteByte('~')
		b.WriteString(c.LabelVar)
		head = true
	case c.Label != "":
		b.WriteString(c.Label)
		head = true
	}
	switch {
	case c.Const != nil:
		if head {
			b.WriteString(": ")
		}
		if c.Const.Kind == data.KindString {
			fmt.Fprintf(b, "%q", c.Const.S)
		} else {
			b.WriteString(c.Const.Text())
		}
		return
	case c.Var != "":
		if head {
			b.WriteString(": ")
		}
		b.WriteString(c.Var)
		return
	}
	if !head {
		b.WriteString("%")
	}
	if len(c.Kids) == 0 {
		b.WriteString("[]")
		return
	}
	if len(c.Kids) == 1 && !c.Kids[0].Star && isSimpleCons(c.Kids[0].C) {
		b.WriteString(": ")
		c.Kids[0].C.write(b)
		return
	}
	b.WriteString("[ ")
	for i, it := range c.Kids {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Star {
			b.WriteByte('*')
			if len(it.Keys) > 0 {
				fmt.Fprintf(b, "(%s) ", strings.Join(it.Keys, ", "))
			}
		}
		it.C.write(b)
	}
	b.WriteString(" ]")
}

func isSimpleCons(c *Cons) bool {
	return c != nil && c.Skolem == "" && len(c.Kids) == 0
}

// TreeOp is the Tree operator: the inverse frontier operation to Bind,
// generating a collection of trees from a Tab according to a construction
// pattern. Constructed identified trees are registered in the context's
// store so that references created by Skolem functions resolve.
type TreeOp struct {
	From   Op
	C      *Cons
	OutCol string // output column, default "$doc"
}

func (t *TreeOp) col() string {
	if t.OutCol == "" {
		return "$doc"
	}
	return t.OutCol
}

// Columns implements Op.
func (t *TreeOp) Columns() []string { return []string{t.col()} }

// Children implements Op.
func (t *TreeOp) Children() []Op { return []Op{t.From} }

// Detail implements Op.
func (t *TreeOp) Detail() string { return fmt.Sprintf("Tree(%s)", t.C) }

// RowLocal reports whether every tree the construction builds is fixed by a
// single input row: nothing is starred, so all its variables are direct and
// agree across a root partition. Such a Tree pipelines chunk by chunk; any
// other needs its whole input — a group may span chunks, and a construction
// without variables builds its one tree even from no rows at all.
func (c *Cons) RowLocal() bool {
	return len(c.DirectVars()) > 0 && !c.starred()
}

func (c *Cons) starred() bool {
	if c == nil {
		return false
	}
	for _, it := range c.Kids {
		if it.Star || it.C.starred() {
			return true
		}
	}
	return false
}

// Apply is the kernel. With seen == nil, in is the operator's whole input.
// With a seen set (RowLocal constructions only), in is one chunk of it and
// seen carries the root bindings already built across chunks.
func (t *TreeOp) Apply(ctx *Context, in *tab.Tab, seen map[string]bool) (*tab.Tab, error) {
	forest, err := t.C.buildForest(in, ctx.Skolem, seen)
	if err != nil {
		return nil, err
	}
	out := tab.New(t.col())
	var refs []string // Register collects them; a constructed tree waits on none
	for _, n := range forest {
		refs = ctx.Store.Register(n, refs[:0])
		out.Add(tab.TreeCell(n))
	}
	return out, nil
}
