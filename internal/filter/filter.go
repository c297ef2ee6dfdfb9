// Package filter implements YAT filters: trees with variables used by the
// Bind operator (Section 3.1, Figure 4) to extract information from XML
// data. A filter node may require a label (or bind it to a label variable),
// bind the subtree or its atomic content to a tree variable, require a
// constant, or require a type (flexible type filtering). Filter items
// support multiple occurrence (*, one binding row per match), collect-stars
// (*($fields), binding the sequence of remaining elements), and vertical
// navigation at arbitrary depth (**, generalized-path-expression descent).
//
// Matching a filter against a tree yields a set of variable-binding rows —
// exactly the content of the Tab structure the Bind operator produces.
package filter

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/data"
	"repro/internal/pattern"
	"repro/internal/tab"
)

// FNode is a filter node.
type FNode struct {
	Label    string     // required label; "" matches any label (content position)
	AnyLabel bool       // explicit wildcard label (%): any label, but a label is required
	LabelVar string     // bind the node's label to this variable (~$l)
	Var      string     // bind the node (atom if leaf content, tree otherwise)
	Const    *data.Atom // require a leaf with exactly this atom
	Type     *pattern.P // require the subtree to match this type (@T)
	Items    []FItem    // child requirements
}

// FItem is one child requirement of a filter node.
type FItem struct {
	F          *FNode
	Star       bool   // multiple occurrence marker (one row per match)
	CollectVar string // bind the sequence of unclaimed matching children
	Descend    bool   // match any descendant instead of a direct child (**)
}

// Filter wraps a root filter node together with the model providing named
// type definitions for @Name type filters.
type Filter struct {
	Root  *FNode
	Model *pattern.Model
}

// New wraps a root node into a Filter.
func New(root *FNode) *Filter { return &Filter{Root: root} }

// WithModel sets the model used to resolve named type filters.
func (f *Filter) WithModel(m *pattern.Model) *Filter {
	f.Model = m
	return f
}

// Vars returns the filter's variables in pre-order (the Tab column order
// of the Bind that uses this filter).
func (f *Filter) Vars() []string {
	return f.Root.appendVars(nil)
}

// appendVars appends the variables of the subtree not yet in out, pre-order.
// A filter binds a handful of variables, so a linear search beats a set.
func (n *FNode) appendVars(out []string) []string {
	if n == nil {
		return out
	}
	add := func(v string) {
		if v != "" && !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	add(n.LabelVar)
	add(n.Var)
	for _, it := range n.Items {
		add(it.CollectVar)
		out = it.F.appendVars(out)
	}
	return out
}

// Clone deep-copies the filter (sharing the model and type patterns, which
// are immutable by convention).
func (f *Filter) Clone() *Filter {
	return &Filter{Root: f.Root.Clone(), Model: f.Model}
}

// Clone deep-copies a filter node.
func (n *FNode) Clone() *FNode {
	if n == nil {
		return nil
	}
	c := *n
	c.Items = make([]FItem, len(n.Items))
	for i, it := range n.Items {
		c.Items[i] = FItem{F: it.F.Clone(), Star: it.Star, CollectVar: it.CollectVar, Descend: it.Descend}
	}
	return &c
}

// Env is one set of variable bindings produced by a match, each variable
// bound once. A match binds a handful of variables, so a slice searched
// linearly is cheaper than a map, whose first binding of a 96-byte cell
// allocates a whole eight-slot group.
type Env []binding

type binding struct {
	v string
	c tab.Cell
}

// index returns the position of v's binding, or -1.
func (e Env) index(v string) int {
	for i := range e {
		if e[i].v == v {
			return i
		}
	}
	return -1
}

// merge returns e extended with the bindings of f, or false when the two
// bind one variable to unequal cells; of two equal cells f's is kept. e is
// left unchanged.
func (e Env) merge(f Env) (Env, bool) {
	out := make(Env, len(e), len(e)+len(f))
	copy(out, e)
	for _, b := range f {
		switch i := out.index(b.v); {
		case i < 0:
			out = append(out, b)
		case out[i].c.Equal(b.c):
			out[i].c = b.c
		default:
			return nil, false
		}
	}
	return out, true
}

// Match matches the filter against a tree and returns the binding rows as a
// Tab whose columns are the filter's variables. The store (may be nil)
// resolves references encountered during navigation, e.g. the owners of an
// artifact.
func (f *Filter) Match(store *data.Store, n *data.Node) *tab.Tab {
	t := tab.New(f.Vars()...)
	t.Rows = f.rows(&matchCtx{model: f.Model, store: store}, n, t.Cols, nil)
	return t
}

// rows appends the binding rows of n, laid out over cols, to out.
func (f *Filter) rows(m *matchCtx, n *data.Node, cols []string, out []tab.Row) []tab.Row {
	for _, e := range m.matchNode(f.Root, n) {
		row := make(tab.Row, len(cols))
		for i, c := range cols {
			if j := e.index(c); j >= 0 {
				row[i] = e[j].c
			} else {
				row[i] = tab.Null()
			}
		}
		out = append(out, row)
	}
	return out
}

// MatchForest matches the filter against each tree of a forest and
// concatenates the binding rows.
func (f *Filter) MatchForest(store *data.Store, forest data.Forest) *tab.Tab {
	t, _ := f.matchForest(store, forest, false)
	return t
}

// MatchResolvedPrefix matches the trees of forest in order up to the first
// one whose match had to chase a reference the store cannot resolve, and
// returns the rows of the n trees before it. n < len(forest) means forest[n]
// may be missing rows: a caller matching a document as it arrives must match
// from that tree on again once the referenced objects have been registered.
func (f *Filter) MatchResolvedPrefix(store *data.Store, forest data.Forest) (t *tab.Tab, n int) {
	return f.matchForest(store, forest, true)
}

func (f *Filter) matchForest(store *data.Store, forest data.Forest, stopAtDangling bool) (*tab.Tab, int) {
	t := tab.New(f.Vars()...)
	m := &matchCtx{model: f.Model, store: store}
	for i, n := range forest {
		rows := f.rows(m, n, t.Cols, t.Rows)
		if stopAtDangling && m.dangling {
			return t, i
		}
		t.Rows = rows
	}
	return t, len(forest)
}

type matchCtx struct {
	model    *pattern.Model
	store    *data.Store
	dangling bool // a reference met during navigation did not resolve
}

// matchNode returns all binding environments under which n matches fn, or
// nil when it does not match.
func (m *matchCtx) matchNode(fn *FNode, n *data.Node) []Env {
	if fn == nil || n == nil {
		return nil
	}
	// A reference is transparent: navigation (items), type and constant
	// requirements chase it through the store.
	if n.IsRef() && (len(fn.Items) > 0 || fn.Type != nil || fn.Const != nil) {
		if m.store == nil {
			return nil
		}
		target := m.store.Deref(n)
		if target == nil {
			m.dangling = true
			return nil
		}
		n = target
	}
	// Label requirement.
	switch {
	case fn.AnyLabel:
		if n.Label == "" {
			return nil
		}
	case fn.Label != "":
		if n.Label != fn.Label {
			return nil
		}
	}
	if fn.Const != nil {
		a, ok := n.AtomValue()
		if !ok || !a.Equal(*fn.Const) {
			return nil
		}
	}
	if fn.Type != nil && !pattern.MatchData(m.model, fn.Type, n) {
		return nil
	}
	var base Env
	if fn.LabelVar != "" && fn.LabelVar != fn.Var {
		base = append(base, binding{fn.LabelVar, tab.AtomCell(data.String(n.Label))})
	}
	if fn.Var != "" {
		base = append(base, binding{fn.Var, bindCell(n)})
	}
	if len(fn.Items) == 0 {
		return []Env{base}
	}
	kids := n.Kids
	if n.IsLeaf() {
		// A leaf exposes its content as one virtual unlabeled child, so
		// that `title: $t` binds the atom of <title>Nympheas</title>.
		kids = []*data.Node{{Atom: n.Atom}}
	}
	return m.matchItems(fn.Items, kids, base)
}

// bindCell binds a node to a cell: atoms for unlabeled leaves (content
// positions), trees otherwise.
func bindCell(n *data.Node) tab.Cell {
	if n.Atom != nil && n.Label == "" {
		return tab.AtomCell(*n.Atom)
	}
	return tab.TreeCell(n)
}

// matchItems matches the item list against the child list and returns the
// cross product of per-item binding sets, each extended with base.
func (m *matchCtx) matchItems(items []FItem, kids []*data.Node, base Env) []Env {
	claimed := make([]bool, len(kids))
	perItem := make([][]Env, 0, len(items))
	// First pass: structural items claim children.
	for _, it := range items {
		if it.CollectVar != "" {
			continue
		}
		var envs []Env
		if it.Descend {
			for _, k := range kids {
				m.descend(it.F, k, &envs)
			}
		} else {
			for ki, k := range kids {
				if sub := m.matchNode(it.F, k); len(sub) > 0 {
					claimed[ki] = true
					envs = append(envs, sub...)
				}
			}
		}
		if len(envs) == 0 {
			return nil // a required item found no match: the node fails
		}
		perItem = append(perItem, envs)
	}
	// Second pass: collect-stars bind the unclaimed children.
	for _, it := range items {
		if it.CollectVar == "" {
			continue
		}
		var seq data.Forest
		for ki, k := range kids {
			if claimed[ki] {
				continue
			}
			if it.F != nil && !m.shapeMatches(it.F, k) {
				continue
			}
			seq = append(seq, k)
		}
		perItem = append(perItem, []Env{{{it.CollectVar, tab.SeqCell(seq)}}})
	}
	// Fast paths for the dominant shapes: a single item list over an empty
	// base (the document-iteration star), and all-singleton item lists (one
	// match per child requirement) — both avoid the general cross product's
	// intermediate copies.
	if len(perItem) == 1 && len(base) == 0 {
		return perItem[0]
	}
	allSingle := true
	for _, envs := range perItem {
		if len(envs) != 1 {
			allSingle = false
			break
		}
	}
	if allSingle {
		merged := base
		for _, envs := range perItem {
			var ok bool
			if merged, ok = merged.merge(envs[0]); !ok {
				return nil
			}
		}
		return []Env{merged}
	}
	// Cross product.
	out := []Env{base}
	for _, envs := range perItem {
		next := make([]Env, 0, len(out)*len(envs))
		for _, acc := range out {
			for _, e := range envs {
				if merged, ok := acc.merge(e); ok {
					next = append(next, merged)
				}
			}
		}
		out = next
		if len(out) == 0 {
			return nil
		}
	}
	return out
}

// descend collects matches of fn against k and all its descendants.
func (m *matchCtx) descend(fn *FNode, k *data.Node, envs *[]Env) {
	if k == nil {
		return
	}
	if sub := m.matchNode(fn, k); len(sub) > 0 {
		*envs = append(*envs, sub...)
	}
	target := k
	if k.IsRef() && m.store != nil {
		if t := m.store.Deref(k); t != nil {
			target = t
		} else {
			m.dangling = true
		}
	}
	for _, kid := range target.Kids {
		m.descend(fn, kid, envs)
	}
}

// shapeMatches reports whether a collect-star's inner filter accepts a
// child, considering only label, constant and type requirements (collect
// filters bind no variables; enforced by the parser).
func (m *matchCtx) shapeMatches(fn *FNode, n *data.Node) bool {
	if fn.Label == "" && !fn.AnyLabel && fn.Const == nil && fn.Type == nil && len(fn.Items) == 0 {
		return true
	}
	return len(m.matchNode(fn, n)) > 0
}

// ---------------------------------------------------------------------------
// Structural helpers for the optimizer (Section 5.1 rewritings)
// ---------------------------------------------------------------------------

// Depth returns the filter tree height.
func (n *FNode) Depth() int {
	if n == nil {
		return 0
	}
	d := 0
	for _, it := range n.Items {
		if kd := it.F.Depth(); kd > d {
			d = kd
		}
	}
	return d + 1
}

// HasVars reports whether the subtree binds any variable.
func (n *FNode) HasVars() bool {
	if n == nil {
		return false
	}
	if n.Var != "" || n.LabelVar != "" {
		return true
	}
	for _, it := range n.Items {
		if it.CollectVar != "" || it.F.HasVars() {
			return true
		}
	}
	return false
}

// HasConstraints reports whether the subtree carries a constant or type
// requirement anywhere; such items filter rows and cannot be dropped by
// projection-driven simplification even when their variables are unused.
func (n *FNode) HasConstraints() bool {
	if n == nil {
		return false
	}
	if n.Const != nil || n.Type != nil {
		return true
	}
	for _, it := range n.Items {
		if it.F.HasConstraints() {
			return true
		}
	}
	return false
}

// VarsBelow returns the variables bound in the subtree, pre-order.
func (n *FNode) VarsBelow() []string { return n.appendVars(nil) }

// String renders the filter in the textual syntax accepted by Parse.
func (f *Filter) String() string { return f.Root.String() }

// String renders a filter node.
func (n *FNode) String() string {
	var b strings.Builder
	n.write(&b)
	return b.String()
}

func (n *FNode) write(b *strings.Builder) {
	if n == nil {
		b.WriteString("<nil>")
		return
	}
	head := false
	switch {
	case n.LabelVar != "":
		b.WriteByte('~')
		b.WriteString(n.LabelVar)
		head = true
	case n.AnyLabel:
		b.WriteByte('%')
		head = true
	case n.Label != "":
		b.WriteString(n.Label)
		head = true
	}
	if n.Var != "" {
		if head {
			b.WriteByte('@')
		}
		b.WriteString(n.Var)
		head = true
	}
	if n.Const != nil {
		if n.Const.Kind == data.KindString {
			fmt.Fprintf(b, "%q", n.Const.S)
		} else {
			b.WriteString(n.Const.Text())
		}
		head = true
	}
	if n.Type != nil {
		b.WriteByte('@')
		b.WriteString(typeName(n.Type))
		head = true
	}
	if !head {
		b.WriteByte('%') // unreachable in parsed filters; defensive
	}
	if len(n.Items) == 0 {
		return
	}
	if len(n.Items) == 1 && !n.Items[0].Star && n.Items[0].CollectVar == "" &&
		!n.Items[0].Descend && len(n.Items[0].F.Items) == 0 {
		b.WriteString(": ")
		n.Items[0].F.write(b)
		return
	}
	b.WriteString("[ ")
	for i, it := range n.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.CollectVar != "":
			b.WriteString("*(")
			b.WriteString(it.CollectVar)
			b.WriteString(")")
		default:
			if it.Star {
				b.WriteByte('*')
			}
			if it.Descend {
				b.WriteString("**")
			}
			it.F.write(b)
		}
	}
	b.WriteString(" ]")
}

func typeName(p *pattern.P) string {
	switch p.Kind {
	case pattern.KInt:
		return "Int"
	case pattern.KFloat:
		return "Float"
	case pattern.KBool:
		return "Bool"
	case pattern.KString:
		return "String"
	case pattern.KAny:
		return "Any"
	case pattern.KRef:
		return p.Name
	default:
		return "(" + p.String() + ")"
	}
}
