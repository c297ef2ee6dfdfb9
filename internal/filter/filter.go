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
// linearly is cheaper than a map. An Env is carved from its Matcher's
// arena and lives until the rows of the tree it was matched in are written.
type Env []binding

// binding binds a variable to what a match found: a node's label, a tree,
// an atom or a collected sequence. Its cell is built only when a row is
// written, or when two bindings of one variable are compared, so a binding
// holds a pointer instead of a 96-byte tab.Cell.
type binding struct {
	v    string
	kind bindKind
	n    *data.Node  // bindLabel, bindTree
	a    *data.Atom  // bindAtom
	seq  data.Forest // bindSeq
}

type bindKind uint8

const (
	bindLabel bindKind = iota // n's label, as a string atom
	bindTree                  // the tree n
	bindAtom                  // the atom a
	bindSeq                   // the sequence seq
)

// bindNode binds v to n: to its atom for an unlabeled leaf (a content
// position), to the tree otherwise.
func bindNode(v string, n *data.Node) binding {
	if n.Atom != nil && n.Label == "" {
		return binding{v: v, kind: bindAtom, a: n.Atom}
	}
	return binding{v: v, kind: bindTree, n: n}
}

// cell returns the cell b binds its variable to.
func (b *binding) cell() tab.Cell {
	switch b.kind {
	case bindLabel:
		return tab.AtomCell(data.String(b.n.Label))
	case bindTree:
		return tab.TreeCell(b.n)
	case bindAtom:
		return tab.AtomCell(*b.a)
	default:
		return tab.SeqCell(b.seq)
	}
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
func (m *Matcher) merge(e, f Env) (Env, bool) {
	out := Env(m.binds.take(len(e) + len(f)))[:len(e)]
	copy(out, e)
	for _, b := range f {
		switch i := out.index(b.v); {
		case i < 0:
			out = append(out, b)
		case out[i].cell().Equal(b.cell()):
			out[i] = b
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
	m := f.Matcher(store)
	t := tab.New(m.cols...)
	t.Rows = m.Append(nil, nil, n)
	return t
}

// Matcher matches one filter against tree after tree. Its bindings and
// binding lists are carved from two arenas it keeps from one tree to the
// next, reset once a tree's rows are written, so a Bind uses one Matcher for
// all the trees it matches. A Matcher is not safe for concurrent use.
type Matcher struct {
	root  *FNode
	cols  []string
	model *pattern.Model
	store *data.Store

	binds arena[binding]
	envs  arena[Env]

	// The stacks hold what one matchItems call gathers while the calls it
	// makes gather theirs above it: each call truncates them back to where
	// it found them, so they are indexed, never sliced across a call.
	claimed []bool        // per child: a structural item matched it
	lists   [][]Env       // per item: its binding lists
	pending []Env         // the binding lists of the item being matched
	kept    []*data.Node  // the children a collect-star is keeping
	content []*contentKid // per leaf nesting depth: its content child
	depth   int           // leaves being matched, one inside the other
}

// Matcher returns a matcher of the filter. The store (may be nil) resolves
// the references met during navigation.
func (f *Filter) Matcher(store *data.Store) *Matcher {
	return &Matcher{root: f.Root, cols: f.Vars(), model: f.Model, store: store}
}

// Append appends to rows the binding rows of the tree n: each a copy of
// prefix followed by one cell per variable of the filter, in Vars order,
// null where the match bound none. The rows of one tree are carved from
// one slab of cells, so a row kept anywhere keeps its tree's slab alive.
// A reference the store does not resolve matches nothing; the trees a Bind
// matches come from algebra.Context.InputStream, which releases a tree only
// once its references resolve or its document has ended.
func (m *Matcher) Append(rows []tab.Row, prefix tab.Row, n *data.Node) []tab.Row {
	if envs := m.matchNode(m.root, n); len(envs) > 0 {
		w := len(prefix) + len(m.cols)
		slab := make([]tab.Cell, len(envs)*w)
		for i, e := range envs {
			row := slab[i*w : (i+1)*w : (i+1)*w]
			copy(row, prefix)
			for j, c := range m.cols {
				if k := e.index(c); k >= 0 {
					row[len(prefix)+j] = e[k].cell()
				} // else the zero cell, tab.Null()
			}
			rows = append(rows, row)
		}
	}
	m.binds.reset()
	m.envs.reset()
	return rows
}

// contentKid is a leaf's content seen as its one unlabeled child, so that
// `title: $t` binds the atom of <title>Nympheas</title>. The matcher keeps
// one per nesting depth and reuses it. What a match keeps of it outlives
// the reuse: a variable bound to it holds its atom, which is the leaf's, a
// label variable reads its label, which is always "", and a collect-star
// keeps a copy of it.
type contentKid struct {
	node data.Node
	kids [1]*data.Node
}

// arena hands out capacity-capped slices of one buffer. When the buffer
// runs out, a twice larger one replaces it, and the slices already handed
// out keep the old one alive until reset.
type arena[T any] struct {
	buf []T
	n   int // items of buf handed out
}

// minArena is the first buffer's size in items: a Bind over a DJoin
// parameter matches a handful of bindings with a matcher of its own.
const minArena = 8

// take returns the next n items, as a slice of capacity n.
func (a *arena[T]) take(n int) []T {
	if a.n+n > len(a.buf) {
		a.buf = make([]T, max(2*len(a.buf), n, minArena))
		a.n = 0
	}
	s := a.buf[a.n : a.n+n : a.n+n]
	a.n += n
	return s
}

// reset takes the buffer back, cleared so that it pins no tree.
func (a *arena[T]) reset() {
	clear(a.buf[:a.n])
	a.n = 0
}

// matchNode returns all binding environments under which n matches fn, or
// nil when it does not match.
func (m *Matcher) matchNode(fn *FNode, n *data.Node) []Env {
	if fn == nil || n == nil {
		return nil
	}
	// A reference is transparent: navigation (items), type and constant
	// requirements chase it through the store.
	if n.IsRef() && (len(fn.Items) > 0 || fn.Type != nil || fn.Const != nil) {
		if m.store == nil {
			return nil
		}
		if n = m.store.Deref(n); n == nil {
			return nil
		}
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
	label := fn.LabelVar != "" && fn.LabelVar != fn.Var
	if k := b2i(label) + b2i(fn.Var != ""); k > 0 {
		base = m.binds.take(k)[:0]
		if label {
			base = append(base, binding{v: fn.LabelVar, kind: bindLabel, n: n})
		}
		if fn.Var != "" {
			base = append(base, bindNode(fn.Var, n))
		}
	}
	if len(fn.Items) == 0 {
		out := m.envs.take(1)
		out[0] = base
		return out
	}
	if !n.IsLeaf() {
		return m.matchItems(fn.Items, n.Kids, false, base)
	}
	if m.depth == len(m.content) {
		m.content = append(m.content, new(contentKid))
	}
	c := m.content[m.depth]
	c.node = data.Node{Atom: n.Atom}
	c.kids[0] = &c.node
	m.depth++
	envs := m.matchItems(fn.Items, c.kids[:], true, base)
	m.depth--
	return envs
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// matchItems matches the item list against the child list and returns the
// cross product of per-item binding sets, each extended with base. content
// says the one child is a leaf's content (a contentKid).
func (m *Matcher) matchItems(items []FItem, kids []*data.Node, content bool, base Env) []Env {
	claimed, lists := len(m.claimed), len(m.lists)
	m.claimed = slices.Grow(m.claimed, len(kids))[:claimed+len(kids)]
	clear(m.claimed[claimed:])
	envs := m.crossItems(items, kids, content, base, claimed, lists)
	m.claimed, m.lists = m.claimed[:claimed], m.lists[:lists]
	return envs
}

// crossItems is matchItems over the flags m.claimed[claimed:] and the lists
// m.lists[lists:].
func (m *Matcher) crossItems(items []FItem, kids []*data.Node, content bool, base Env, claimed, lists int) []Env {
	// First pass: structural items claim children.
	for _, it := range items {
		if it.CollectVar != "" {
			continue
		}
		pending := len(m.pending)
		var only []Env // the list of the last child matched
		matches := 0   // children matched, not counting descendants
		if it.Descend {
			for _, k := range kids {
				m.descend(it.F, k)
			}
		} else {
			for ki, k := range kids {
				if sub := m.matchNode(it.F, k); len(sub) > 0 {
					m.claimed[claimed+ki] = true
					m.pending = append(m.pending, sub...)
					only, matches = sub, matches+1
				}
			}
		}
		if len(m.pending) == pending {
			return nil // a required item found no match: the node fails
		}
		envs := only // one child's list is the item's list as it is
		if matches != 1 {
			envs = m.envs.take(len(m.pending) - pending)
			copy(envs, m.pending[pending:])
		}
		m.pending = m.pending[:pending]
		m.lists = append(m.lists, envs)
	}
	// Second pass: collect-stars bind the unclaimed children.
	var kid *data.Node // the content child a collect-star keeps, copied
	for _, it := range items {
		if it.CollectVar == "" {
			continue
		}
		kept := len(m.kept)
		for ki, k := range kids {
			if m.claimed[claimed+ki] {
				continue
			}
			if it.F != nil && !m.shapeMatches(it.F, k) {
				continue
			}
			if content {
				if kid == nil {
					kid = &data.Node{Atom: k.Atom}
				}
				k = kid
			}
			m.kept = append(m.kept, k)
		}
		var seq data.Forest
		if len(m.kept) > kept {
			seq = slices.Clone(m.kept[kept:])
			clear(m.kept[kept:])
			m.kept = m.kept[:kept]
		}
		b := m.binds.take(1)
		b[0] = binding{v: it.CollectVar, kind: bindSeq, seq: seq}
		e := m.envs.take(1)
		e[0] = b
		m.lists = append(m.lists, e)
	}
	perItem := m.lists[lists:]
	// Fast paths for the dominant shapes: a single item list over an empty
	// base (the document-iteration star), and all-singleton item lists (one
	// match per child requirement) — both avoid the general cross product's
	// intermediate environments.
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
	out := m.envs.take(1)
	if allSingle {
		merged := base
		for _, envs := range perItem {
			var ok bool
			if merged, ok = m.merge(merged, envs[0]); !ok {
				return nil
			}
		}
		out[0] = merged
		return out
	}
	// Cross product.
	out[0] = base
	for _, envs := range perItem {
		next := m.envs.take(len(out) * len(envs))[:0]
		for _, acc := range out {
			for _, e := range envs {
				if merged, ok := m.merge(acc, e); ok {
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

// descend gathers in m.pending the matches of fn against k and all its
// descendants.
func (m *Matcher) descend(fn *FNode, k *data.Node) {
	if k == nil {
		return
	}
	if sub := m.matchNode(fn, k); len(sub) > 0 {
		m.pending = append(m.pending, sub...)
	}
	if k.IsRef() && m.store != nil {
		k = m.store.Deref(k)
	}
	if k != nil { // nil for a dangling reference
		for _, kid := range k.Kids {
			m.descend(fn, kid)
		}
	}
}

// shapeMatches reports whether a collect-star's inner filter accepts a
// child, considering only label, constant and type requirements (collect
// filters bind no variables; enforced by the parser).
func (m *Matcher) shapeMatches(fn *FNode, n *data.Node) bool {
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
