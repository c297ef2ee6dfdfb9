// Package data implements the YAT data model: ordered, labeled trees that
// can represent any mix of well-formed and valid XML data, as described in
// Section 2 of "On Wrapping Query Languages and Efficient XML Integration"
// (SIGMOD 2000) and in the companion paper "Your mediators need data
// conversion!" (SIGMOD 1998).
//
// A tree node carries a label and either an atomic value (leaves), a list of
// ordered children (interior nodes), or a reference to another identified
// tree. Node identifiers are used for O₂ object identity and for identifiers
// minted by Skolem functions during integration.
package data

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// AtomKind enumerates the atomic value types of the YAT model.
type AtomKind int

// Atomic type tags. These mirror the leaf types of the YAT metamodel
// (Figure 3 of the paper): Int, Float, Bool, String. Symbol is the type of
// labels and appears only in patterns, never in data.
const (
	KindInt AtomKind = iota
	KindFloat
	KindBool
	KindString
)

// String returns the YAT spelling of the atomic type.
func (k AtomKind) String() string {
	switch k {
	case KindInt:
		return "Int"
	case KindFloat:
		return "Float"
	case KindBool:
		return "Bool"
	case KindString:
		return "String"
	default:
		return fmt.Sprintf("AtomKind(%d)", int(k))
	}
}

// Atom is an atomic value: one of int64, float64, bool or string.
type Atom struct {
	Kind AtomKind
	I    int64
	F    float64
	B    bool
	S    string
}

// Int returns an integer atom.
func Int(v int64) Atom { return Atom{Kind: KindInt, I: v} }

// Float returns a floating-point atom.
func Float(v float64) Atom { return Atom{Kind: KindFloat, F: v} }

// Bool returns a boolean atom.
func Bool(v bool) Atom { return Atom{Kind: KindBool, B: v} }

// String returns a string atom.
func String(v string) Atom { return Atom{Kind: KindString, S: v} }

// IsNumeric reports whether the atom is an Int or a Float.
func (a Atom) IsNumeric() bool { return a.Kind == KindInt || a.Kind == KindFloat }

// AsFloat returns the numeric value of an Int or Float atom.
func (a Atom) AsFloat() float64 {
	if a.Kind == KindInt {
		return float64(a.I)
	}
	return a.F
}

// Text renders the atom as it would appear as XML character data.
func (a Atom) Text() string {
	switch a.Kind {
	case KindInt:
		return strconv.FormatInt(a.I, 10)
	case KindFloat:
		return strconv.FormatFloat(a.F, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(a.B)
	default:
		return a.S
	}
}

// Equal reports atom equality. Ints and Floats compare numerically so that
// sources with different numeric affinities (O₂ Float prices vs integer
// literals in queries) can be joined.
func (a Atom) Equal(b Atom) bool {
	if a.IsNumeric() && b.IsNumeric() {
		return a.AsFloat() == b.AsFloat()
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindBool:
		return a.B == b.B
	default:
		return a.S == b.S
	}
}

// Compare orders atoms: numerics numerically, strings lexicographically,
// bools false<true; across kinds the order is Kind-based. It returns
// -1, 0 or +1.
func (a Atom) Compare(b Atom) int {
	if a.IsNumeric() && b.IsNumeric() {
		x, y := a.AsFloat(), b.AsFloat()
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	}
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case KindBool:
		switch {
		case a.B == b.B:
			return 0
		case !a.B:
			return -1
		default:
			return 1
		}
	default:
		return strings.Compare(a.S, b.S)
	}
}

// Node is a YAT tree node. Exactly one of the following holds:
//
//   - leaf atom: Atom != nil, no children, no Ref;
//   - reference: Ref != "" (points at the identified tree Ref), no children;
//   - interior node: zero or more ordered children.
//
// A node may additionally carry an identifier (ID), as with O₂ objects
// ("a1", "p3" in Figure 1) or identifiers created by Skolem functions.
type Node struct {
	Label string
	Atom  *Atom
	Ref   string
	ID    string
	Kids  []*Node
}

// Elem constructs an interior node with the given label and children.
func Elem(label string, kids ...*Node) *Node { return &Node{Label: label, Kids: kids} }

// Leaf constructs a leaf node holding an atomic value.
func Leaf(label string, a Atom) *Node { return &Node{Label: label, Atom: &a} }

// Text constructs a leaf node holding a string atom.
func Text(label, s string) *Node { return Leaf(label, String(s)) }

// IntLeaf constructs a leaf node holding an integer atom.
func IntLeaf(label string, v int64) *Node { return Leaf(label, Int(v)) }

// FloatLeaf constructs a leaf node holding a float atom.
func FloatLeaf(label string, v float64) *Node { return Leaf(label, Float(v)) }

// BoolLeaf constructs a leaf node holding a boolean atom.
func BoolLeaf(label string, v bool) *Node { return Leaf(label, Bool(v)) }

// RefNode constructs a reference node pointing at the tree identified by id.
func RefNode(label, id string) *Node { return &Node{Label: label, Ref: id} }

// WithID returns n after setting its identifier; it enables fluent
// construction of identified trees.
func (n *Node) WithID(id string) *Node {
	n.ID = id
	return n
}

// IsLeaf reports whether n is an atomic leaf.
func (n *Node) IsLeaf() bool { return n != nil && n.Atom != nil }

// IsRef reports whether n is a reference node.
func (n *Node) IsRef() bool { return n != nil && n.Ref != "" }

// Add appends children and returns n.
func (n *Node) Add(kids ...*Node) *Node {
	n.Kids = append(n.Kids, kids...)
	return n
}

// Child returns the first child with the given label, or nil.
func (n *Node) Child(label string) *Node {
	for _, k := range n.Kids {
		if k.Label == label {
			return k
		}
	}
	return nil
}

// IsAttr reports whether n is an XML attribute. An attribute name="v" is a
// child labelled "@name" (internal/xmlenc's convention), with v as its atom.
func (n *Node) IsAttr() bool { return n != nil && len(n.Label) > 0 && n.Label[0] == '@' }

// Attr returns the value of n's attribute name: the atom of its first child
// labelled "@name", "" when there is none or it holds no atom.
func (n *Node) Attr(name string) string {
	if n == nil {
		return ""
	}
	for _, k := range n.Kids {
		if k.IsAttr() && k.Label[1:] == name {
			if k.Atom == nil {
				return ""
			}
			return k.Atom.S
		}
	}
	return ""
}

// FirstElem returns n's first child element: the first child with a label
// that is not an attribute. Unlabelled text is skipped. It is nil when n has
// none.
func (n *Node) FirstElem() *Node {
	if n == nil {
		return nil
	}
	for _, k := range n.Kids {
		if k.Label != "" && !k.IsAttr() {
			return k
		}
	}
	return nil
}

// Children returns all children with the given label.
func (n *Node) Children(label string) []*Node {
	var out []*Node
	for _, k := range n.Kids {
		if k.Label == label {
			out = append(out, k)
		}
	}
	return out
}

// Path descends through the first children matching each label in turn,
// returning nil if any step is missing.
func (n *Node) Path(labels ...string) *Node {
	cur := n
	for _, l := range labels {
		if cur == nil {
			return nil
		}
		cur = cur.Child(l)
	}
	return cur
}

// AtomValue returns the node's atom if it is a leaf; if the node has exactly
// one leaf child (the common <title>Nympheas</title> XML shape), that child's
// atom is returned. The boolean reports success.
func (n *Node) AtomValue() (Atom, bool) {
	if n == nil {
		return Atom{}, false
	}
	if n.Atom != nil {
		return *n.Atom, true
	}
	if len(n.Kids) == 1 && n.Kids[0].Atom != nil && n.Kids[0].Label == "" {
		return *n.Kids[0].Atom, true
	}
	return Atom{}, false
}

// TextContent concatenates, in document order, every atom in the subtree.
func (n *Node) TextContent() string {
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	if n == nil {
		return
	}
	if n.Atom != nil {
		b.WriteString(n.Atom.Text())
		return
	}
	for i, k := range n.Kids {
		if i > 0 {
			b.WriteByte(' ')
		}
		k.appendText(b)
	}
}

// Clone returns a deep copy of the subtree rooted at n, built in one Block.
func (n *Node) Clone() *Node {
	nodes, atoms := 0, 0
	n.Walk(func(m *Node) bool {
		nodes++
		if m.Atom != nil {
			atoms++
		}
		return true
	})
	b := NewBlock(nodes, atoms, max(nodes-1, 0))
	return b.Clone(n)
}

// Clone returns a deep copy of the subtree rooted at n, built in b.
func (b *Block) Clone(n *Node) *Node {
	if n == nil {
		return nil
	}
	c := b.Elem(n.Label)
	c.Ref, c.ID = n.Ref, n.ID
	if n.Atom != nil {
		c.Atom = b.Atom(*n.Atom)
	}
	c.Kids = b.List(len(n.Kids))
	for i, k := range n.Kids {
		c.Kids[i] = b.Clone(k)
	}
	return c
}

// Block hands out the nodes, atoms and child lists of a tree built whole (a
// parsed frame, a tab's XML tree, an exported extent, a clone), carved from
// three shared slices instead of one heap object each. Every child list is
// capacity-capped, so Add on one node copies its list rather than writing
// over the next node's. A node from a block keeps the whole block alive.
type Block struct {
	nodes []Node
	atoms []Atom
	kids  []*Node
}

// NewBlock returns a block with room for the given numbers of nodes, atoms
// and child pointers; past them it grows by blockGrow items at a time. It is
// a value, so that a builder's block can live in its frame.
func NewBlock(nodes, atoms, kids int) Block {
	return Block{make([]Node, nodes), make([]Atom, atoms), make([]*Node, kids)}
}

// blockGrow fills a size class exactly with nodes, atoms and pointers alike.
const blockGrow = 16

// carve takes the next n items of *s, as a slice of capacity n.
func carve[T any](s *[]T, n int) []T {
	if len(*s) < n {
		*s = make([]T, max(n, blockGrow))
	}
	c := (*s)[:n:n]
	*s = (*s)[n:]
	return c
}

// Leaf returns a new leaf node labeled label holding a copy of a.
func (b *Block) Leaf(label string, a Atom) *Node {
	n := b.Elem(label)
	n.Atom = b.Atom(a)
	return n
}

// Atom returns a new copy of a.
func (b *Block) Atom(a Atom) *Atom {
	p := &carve(&b.atoms, 1)[0]
	*p = a
	return p
}

// Elem returns a new node labeled label with a copy of kids as its children.
func (b *Block) Elem(label string, kids ...*Node) *Node {
	n := &carve(&b.nodes, 1)[0]
	n.Label, n.Kids = label, b.List(len(kids))
	copy(n.Kids, kids)
	return n
}

// List returns a child list of n nil entries for the caller to fill; nil
// when n is 0, as a node without children has.
func (b *Block) List(n int) []*Node {
	if n == 0 {
		return nil
	}
	return carve(&b.kids, n)
}

// Size returns the number of nodes in the subtree.
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	s := 1
	for _, k := range n.Kids {
		s += k.Size()
	}
	return s
}

// Depth returns the height of the subtree (a leaf has depth 1).
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	d := 0
	for _, k := range n.Kids {
		if kd := k.Depth(); kd > d {
			d = kd
		}
	}
	return d + 1
}

// Equal reports deep structural equality of two trees: same labels, atoms,
// references and identically ordered equal children. Identifiers participate
// so that two distinct objects with equal state remain distinguishable, as
// in the object model.
func Equal(a, b *Node) bool { return equal(a, b, true) }

// EqualValue is like Equal but ignores identifiers, comparing only labels,
// atoms, references and structure. It implements value equality for Tab
// cells, where identity is irrelevant to predicate evaluation.
func EqualValue(a, b *Node) bool { return equal(a, b, false) }

// equal is the one walk behind Equal and EqualValue; ids says whether
// identifiers participate.
func equal(a, b *Node, ids bool) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Label != b.Label || a.Ref != b.Ref || ids && a.ID != b.ID {
		return false
	}
	if (a.Atom == nil) != (b.Atom == nil) {
		return false
	}
	if a.Atom != nil && !a.Atom.Equal(*b.Atom) {
		return false
	}
	if len(a.Kids) != len(b.Kids) {
		return false
	}
	for i := range a.Kids {
		if !equal(a.Kids[i], b.Kids[i], ids) {
			return false
		}
	}
	return true
}

// Compare defines a total order over trees, used by Sort and Group. Leaves
// order by atom; otherwise by label, then reference, then children
// lexicographically, then identifier.
func Compare(a, b *Node) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return -1
	case b == nil:
		return 1
	}
	if a.IsLeaf() && b.IsLeaf() && a.Label == b.Label {
		return a.Atom.Compare(*b.Atom)
	}
	if c := strings.Compare(a.Label, b.Label); c != 0 {
		return c
	}
	if (a.Atom == nil) != (b.Atom == nil) {
		if a.Atom != nil {
			return -1
		}
		return 1
	}
	if a.Atom != nil {
		if c := a.Atom.Compare(*b.Atom); c != 0 {
			return c
		}
	}
	if c := strings.Compare(a.Ref, b.Ref); c != 0 {
		return c
	}
	n := len(a.Kids)
	if len(b.Kids) < n {
		n = len(b.Kids)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a.Kids[i], b.Kids[i]); c != 0 {
			return c
		}
	}
	if c := len(a.Kids) - len(b.Kids); c != 0 {
		if c < 0 {
			return -1
		}
		return 1
	}
	return strings.Compare(a.ID, b.ID)
}

// Hash returns a 64-bit structural hash of the tree (identifiers excluded,
// consistent with EqualValue). It lets Group and hash joins bucket trees. It
// is FNV-1a over the bytes of the tree's labels, atoms, references and
// markers, computed in place without allocating.
func Hash(n *Node) uint64 {
	h := fnv1a(14695981039346656037)
	h.node(n)
	return uint64(h)
}

type fnv1a uint64

func (h *fnv1a) byte(c byte) { *h = (*h ^ fnv1a(c)) * 1099511628211 }

func (h *fnv1a) string(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *fnv1a) uint64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

func (h *fnv1a) node(n *Node) {
	if n == nil {
		h.byte(0)
		return
	}
	h.byte(1)
	h.string(n.Label)
	h.byte(0)
	if n.Atom != nil {
		h.byte(byte(n.Atom.Kind) + 2)
		switch n.Atom.Kind {
		case KindInt:
			h.uint64(uint64(n.Atom.I))
		case KindFloat:
			h.uint64(math.Float64bits(n.Atom.F))
		case KindBool:
			if n.Atom.B {
				h.byte(1)
			} else {
				h.byte(0)
			}
		default:
			h.string(n.Atom.S)
		}
	}
	h.string(n.Ref)
	h.byte(0)
	for _, k := range n.Kids {
		h.node(k)
	}
	h.byte(2)
}

// SortKids sorts the children of n in Compare order; used to normalise
// set-valued collections before comparison.
func (n *Node) SortKids() {
	sort.SliceStable(n.Kids, func(i, j int) bool { return Compare(n.Kids[i], n.Kids[j]) < 0 })
}

// Walk calls fn for every node of the subtree in document order. If fn
// returns false the node's children are skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil {
		return
	}
	if !fn(n) {
		return
	}
	for _, k := range n.Kids {
		k.Walk(fn)
	}
}

// String renders a compact single-line form of the tree, convenient in tests
// and error messages: label[kid, kid], label:"atom", &id references and
// id= prefixes for identified trees.
func (n *Node) String() string {
	var b strings.Builder
	n.writeString(&b)
	return b.String()
}

func (n *Node) writeString(b *strings.Builder) {
	if n == nil {
		b.WriteString("nil")
		return
	}
	if n.ID != "" {
		b.WriteString(n.ID)
		b.WriteByte('=')
	}
	b.WriteString(n.Label)
	switch {
	case n.Atom != nil:
		b.WriteByte(':')
		if n.Atom.Kind == KindString {
			b.WriteString(strconv.Quote(n.Atom.S))
		} else {
			b.WriteString(n.Atom.Text())
		}
	case n.Ref != "":
		b.WriteString(":&")
		b.WriteString(n.Ref)
	default:
		b.WriteByte('[')
		for i, k := range n.Kids {
			if i > 0 {
				b.WriteString(", ")
			}
			k.writeString(b)
		}
		b.WriteByte(']')
	}
}

// Indent renders a multi-line indented form of the tree.
func (n *Node) Indent() string {
	var b strings.Builder
	n.writeIndent(&b, 0)
	return b.String()
}

func (n *Node) writeIndent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	if n == nil {
		b.WriteString("nil\n")
		return
	}
	if n.ID != "" {
		b.WriteString(n.ID)
		b.WriteByte('=')
	}
	b.WriteString(n.Label)
	switch {
	case n.Atom != nil:
		b.WriteString(": ")
		b.WriteString(n.Atom.Text())
		b.WriteByte('\n')
	case n.Ref != "":
		b.WriteString(": &")
		b.WriteString(n.Ref)
		b.WriteByte('\n')
	default:
		b.WriteByte('\n')
		for _, k := range n.Kids {
			k.writeIndent(b, depth+1)
		}
	}
}

// Forest is an ordered sequence of trees, e.g. the members of a collection
// or the sequence bound to a collect-star variable such as $fields.
type Forest []*Node

// Clone deep-copies the forest.
func (f Forest) Clone() Forest {
	out := make(Forest, len(f))
	for i, n := range f {
		out[i] = n.Clone()
	}
	return out
}

// Equal reports element-wise EqualValue of two forests.
func (f Forest) Equal(g Forest) bool {
	if len(f) != len(g) {
		return false
	}
	for i := range f {
		if !EqualValue(f[i], g[i]) {
			return false
		}
	}
	return true
}

// String renders the forest as a bracketed list.
func (f Forest) String() string {
	parts := make([]string, len(f))
	for i, n := range f {
		parts[i] = n.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Store resolves identifiers to trees; it backs reference traversal
// (`&` edges in Figure 1, e.g. owners refs="p1 p2 p3"). A Store is safe for
// concurrent use: parallel plan evaluation registers fetched documents and
// dereferences identifiers from multiple workers at once.
type Store struct {
	mu   sync.RWMutex
	byID map[string]*Node
}

// NewStore returns an empty identifier store.
func NewStore() *Store { return &Store{byID: make(map[string]*Node)} }

// Register records every identified node of the subtree and returns refs
// extended with the target of every reference in it, in document order.
// Later registrations of the same identifier overwrite earlier ones.
func (s *Store) Register(n *Node, refs []string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	n.Walk(func(m *Node) bool {
		if m.ID != "" {
			s.byID[m.ID] = m
		}
		if m.Ref != "" {
			refs = append(refs, m.Ref)
		}
		return true
	})
	return refs
}

// Lookup resolves an identifier, returning nil if unknown.
func (s *Store) Lookup(id string) *Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byID[id]
}

// Deref resolves a node: reference nodes are chased through the store (one
// hop), others returned unchanged. A dangling reference yields nil.
func (s *Store) Deref(n *Node) *Node {
	if n == nil || !n.IsRef() {
		return n
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byID[n.Ref]
}

// Len reports the number of registered identifiers.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byID)
}
