// Package pattern implements the YAT type system: tree patterns that
// describe structural information at various levels of genericity (model,
// schema, data), related through the *instantiation* mechanism of Section 2
// and Figure 3 of the paper. A pattern is a tree whose nodes are atomic
// types, labeled nodes with (possibly starred) ordered child sequences,
// alternatives (the ∨ symbol), references to named patterns (the & symbol),
// or the Symbol wildcard standing for "any label".
//
// The two central judgements are:
//
//   - MatchData: is a data tree an instance of a pattern?
//   - Subsumes:  does one pattern instantiate another (Artifact <: ODMG <: YAT)?
//
// Both are decided by a memoized structural simulation; for the starred
// sequences appearing in YAT patterns the algorithm is polynomial and exact
// on unambiguous patterns (cf. Beeri & Milo, ICDT'99, cited by the paper),
// and sound (never wrongly accepts) in general.
package pattern

import (
	"fmt"
	"strings"

	"repro/internal/data"
	"repro/internal/syntax"
)

// Kind enumerates pattern node kinds.
type Kind int

// Pattern node kinds.
const (
	KAny    Kind = iota // the YAT top pattern: any tree
	KInt                // atomic type Int
	KFloat              // atomic type Float
	KBool               // atomic type Bool
	KString             // atomic type String
	KConst              // a data-level constant atom
	KNode               // labeled node with ordered child sequence
	KUnion              // alternatives (∨)
	KRef                // reference to a named pattern (&Name)
)

// Col enumerates collection kinds attached to a node pattern.
type Col int

// Collection kinds. ColNone marks plain element nodes; the others mirror the
// ODMG collection constructors of Figure 3.
const (
	ColNone Col = iota
	ColSet
	ColBag
	ColList
	ColArray
)

// String returns the YAT spelling of the collection kind.
func (c Col) String() string {
	switch c {
	case ColSet:
		return "set"
	case ColBag:
		return "bag"
	case ColList:
		return "list"
	case ColArray:
		return "array"
	default:
		return ""
	}
}

// ColFromString parses a collection kind name; unknown names yield ColNone.
func ColFromString(s string) Col {
	switch s {
	case "set":
		return ColSet
	case "bag":
		return ColBag
	case "list":
		return ColList
	case "array":
		return ColArray
	default:
		return ColNone
	}
}

// BindFlag restricts which variables a filter may place on an Fpattern
// node (Section 4's bind attribute of Figure 6).
type BindFlag int

// Bind flags.
const (
	BindAny   BindFlag = iota // no restriction
	BindTree                  // only a tree variable (bind the whole subtree)
	BindLabel                 // only a label variable
	BindNone                  // no variable at all
)

// String renders the flag as its XML attribute value.
func (b BindFlag) String() string {
	switch b {
	case BindTree:
		return "tree"
	case BindLabel:
		return "label"
	case BindNone:
		return "none"
	default:
		return ""
	}
}

// BindFlagFromString parses a bind attribute value.
func BindFlagFromString(s string) BindFlag {
	switch s {
	case "tree":
		return BindTree
	case "label":
		return BindLabel
	case "none":
		return BindNone
	default:
		return BindAny
	}
}

// InstFlag restricts how a filter may instantiate an Fpattern's Symbol label
// or star edge (the inst attribute of Figure 6).
type InstFlag int

// Inst flags.
const (
	InstAny    InstFlag = iota // no restriction
	InstGround                 // must be completely instantiated (concrete)
	InstNone                   // must be left unchanged (stay generic)
)

// String renders the flag as its XML attribute value.
func (i InstFlag) String() string {
	switch i {
	case InstGround:
		return "ground"
	case InstNone:
		return "none"
	default:
		return ""
	}
}

// InstFlagFromString parses an inst attribute value.
func InstFlagFromString(s string) InstFlag {
	switch s {
	case "ground":
		return InstGround
	case "none":
		return InstNone
	default:
		return InstAny
	}
}

// Item is one element of a node pattern's child sequence; Star marks
// multiple occurrence (zero or more).
type Item struct {
	P    *P
	Star bool
	Inst InstFlag // Fpattern star edge: ground (enumerate) or none (keep the star)
}

// P is a pattern node. An Fpattern — a pattern describing the filters a
// source accepts (Section 4) — is a P whose Bind and Inst flags are set;
// matching, subsumption, intersection and the text form ignore them.
type P struct {
	Kind     Kind
	Label    string     // KNode: the node label ("" with AnyLabel set means Symbol)
	AnyLabel bool       // KNode: label is the Symbol wildcard
	Col      Col        // KNode: collection kind
	Const    *data.Atom // KConst: the constant
	Name     string     // KRef: referenced pattern name
	Items    []Item     // KNode: ordered child sequence
	Alts     []*P       // KUnion: alternatives
	Bind     BindFlag   // KNode, KRef: the variables a filter may place here
	Inst     InstFlag   // KNode: on a Symbol label, whether a filter must ground it
}

// Convenience constructors.

// Any returns the top pattern matching any tree.
func Any() *P { return &P{Kind: KAny} }

// Int returns the Int atomic-type pattern.
func Int() *P { return &P{Kind: KInt} }

// Float returns the Float atomic-type pattern.
func Float() *P { return &P{Kind: KFloat} }

// Bool returns the Bool atomic-type pattern.
func Bool() *P { return &P{Kind: KBool} }

// Str returns the String atomic-type pattern.
func Str() *P { return &P{Kind: KString} }

// Const returns a constant pattern matched only by that atom.
func Const(a data.Atom) *P { return &P{Kind: KConst, Const: &a} }

// Node returns a labeled node pattern with single (unstarred) children.
func Node(label string, kids ...*P) *P {
	items := make([]Item, len(kids))
	for i, k := range kids {
		items[i] = Item{P: k}
	}
	return &P{Kind: KNode, Label: label, Items: items}
}

// NodeItems returns a labeled node pattern with an explicit item sequence.
func NodeItems(label string, items ...Item) *P {
	return &P{Kind: KNode, Label: label, Items: items}
}

// Symbol returns a node pattern whose label is the Symbol wildcard.
func Symbol(kids ...*P) *P {
	n := Node("", kids...)
	n.AnyLabel = true
	return n
}

// Coll returns a collection node pattern (label = collection name) holding
// zero or more members matching member.
func Coll(c Col, member *P) *P {
	return &P{Kind: KNode, Label: c.String(), Col: c, Items: []Item{{P: member, Star: true}}}
}

// Union returns an alternatives pattern.
func Union(alts ...*P) *P { return &P{Kind: KUnion, Alts: alts} }

// Ref returns a reference to the named pattern.
func Ref(name string) *P { return &P{Kind: KRef, Name: name} }

// Starred wraps p as a starred item.
func Starred(p *P) Item { return Item{P: p, Star: true} }

// One wraps p as a single-occurrence item.
func One(p *P) Item { return Item{P: p} }

// Model is a set of named patterns, as exported by a wrapper (Figure 3
// shows the ODMG model, the Artifacts schema and the Artworks structure;
// all are Models in this package).
type Model struct {
	Name string
	Defs map[string]*P
	// Roots lists the entry-point pattern names in declaration order.
	Roots []string
}

// NewModel returns an empty model with the given name.
func NewModel(name string) *Model {
	return &Model{Name: name, Defs: make(map[string]*P)}
}

// Define adds (or replaces) a named pattern and records it as a root.
func (m *Model) Define(name string, p *P) {
	if _, exists := m.Defs[name]; !exists {
		m.Roots = append(m.Roots, name)
	}
	m.Defs[name] = p
}

// Lookup resolves a pattern name, returning nil if absent.
func (m *Model) Lookup(name string) *P {
	if m == nil {
		return nil
	}
	return m.Defs[name]
}

// resolve chases KRef chains within the model (cycle-safe).
func (m *Model) resolve(p *P) *P {
	seen := 0
	for p != nil && p.Kind == KRef {
		q := m.Lookup(p.Name)
		if q == nil || seen > len(m.Defs)+1 {
			return nil
		}
		p = q
		seen++
	}
	return p
}

// Names returns the defined pattern names in declaration order.
func (m *Model) Names() []string {
	out := make([]string, len(m.Roots))
	copy(out, m.Roots)
	return out
}

// ---------------------------------------------------------------------------
// Data matching
// ---------------------------------------------------------------------------

// MatchData reports whether tree is an instance of pattern p in model m
// (m supplies the definitions for KRef; it may be nil when p is closed).
// References in the data are matched against KRef/class patterns by
// label only, since the referenced object lives elsewhere in the store.
func MatchData(m *Model, p *P, tree *data.Node) bool {
	return (&matcher{m: m}).match(p, tree)
}

type matcher struct {
	m *Model
	// inflight guards against non-terminating KRef cycles on the same node.
	inflight map[[2]any]bool
}

func (mt *matcher) match(p *P, n *data.Node) bool {
	if p == nil {
		return false
	}
	switch p.Kind {
	case KAny:
		return n != nil
	case KInt:
		return n != nil && n.Atom != nil && n.Atom.Kind == data.KindInt
	case KFloat:
		return n != nil && n.Atom != nil && (n.Atom.Kind == data.KindFloat || n.Atom.Kind == data.KindInt)
	case KBool:
		return n != nil && n.Atom != nil && n.Atom.Kind == data.KindBool
	case KString:
		return n != nil && n.Atom != nil && n.Atom.Kind == data.KindString
	case KConst:
		return n != nil && n.Atom != nil && n.Atom.Equal(*p.Const)
	case KUnion:
		for _, a := range p.Alts {
			if mt.match(a, n) {
				return true
			}
		}
		return false
	case KRef:
		q := mt.m.resolve(p)
		if q == nil {
			return false
		}
		if mt.inflight == nil {
			mt.inflight = make(map[[2]any]bool)
		}
		key := [2]any{q, n}
		if mt.inflight[key] {
			return false // structural cycle cannot be satisfied by finite data
		}
		mt.inflight[key] = true
		ok := mt.match(q, n)
		delete(mt.inflight, key)
		return ok
	case KNode:
		if n == nil {
			return false
		}
		// A reference in the data matches any node pattern: its label is the
		// edge name, and the target's structure is checked where the target
		// is defined (references are not chased during matching).
		if n.IsRef() {
			return true
		}
		if !p.AnyLabel && n.Label != p.Label {
			return false
		}
		if n.Atom != nil {
			// A leaf matches a node pattern with a single atomic child item.
			if len(p.Items) == 1 && !p.Items[0].Star {
				return mt.match(p.Items[0].P, n)
			}
			if len(p.Items) == 1 && p.Items[0].Star {
				return mt.match(p.Items[0].P, n) // one occurrence
			}
			return false
		}
		if p.Col == ColSet || p.Col == ColBag {
			return mt.matchUnordered(p.Items, n.Kids)
		}
		return mt.matchSeq(p.Items, n.Kids)
	default:
		return false
	}
}

// matchSeq matches a data child list against a pattern item sequence with
// memoized backtracking over (item index, kid index).
func (mt *matcher) matchSeq(items []Item, kids []*data.Node) bool {
	type key struct{ i, j int }
	memo := make(map[key]bool)
	var rec func(i, j int) bool
	rec = func(i, j int) bool {
		if i == len(items) {
			return j == len(kids)
		}
		k := key{i, j}
		if v, ok := memo[k]; ok {
			return v
		}
		memo[k] = false // provisional: break cycles
		it := items[i]
		var ok bool
		if it.Star {
			// zero occurrences, or consume one kid and stay
			ok = rec(i+1, j) ||
				(j < len(kids) && mt.match(it.P, kids[j]) && rec(i, j+1))
		} else {
			ok = j < len(kids) && mt.match(it.P, kids[j]) && rec(i+1, j+1)
		}
		memo[k] = ok
		return ok
	}
	return rec(0, 0)
}

// matchUnordered matches set/bag contents: every kid must match some item,
// and every non-starred item must be matched exactly once. YAT collection
// patterns are almost always a single starred member, for which this is
// exact; with several items it is a greedy assignment (sound for disjoint
// alternatives).
func (mt *matcher) matchUnordered(items []Item, kids []*data.Node) bool {
	needed := make([]bool, len(items)) // non-star items still unmatched
	for i, it := range items {
		needed[i] = !it.Star
	}
	for _, k := range kids {
		found := false
		// Prefer satisfying required items first.
		for i, it := range items {
			if needed[i] && mt.match(it.P, k) {
				needed[i] = false
				found = true
				break
			}
		}
		if found {
			continue
		}
		for _, it := range items {
			if it.Star && mt.match(it.P, k) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	for _, n := range needed {
		if n {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Pattern subsumption (instantiation between patterns)
// ---------------------------------------------------------------------------

// Subsumes reports whether pattern q (with definitions in mq) instantiates
// pattern p (with definitions in mp); i.e. every instance of q is an
// instance of p, written q <: p. It is coinductive over named references,
// so recursive patterns such as Fclass/Ftype are supported.
func Subsumes(mp *Model, p *P, mq *Model, q *P) bool {
	s := &subsumer{mp: mp, mq: mq, assume: make(map[[2]*P]bool)}
	return s.sub(p, q)
}

type subsumer struct {
	mp, mq *Model
	assume map[[2]*P]bool
}

func (s *subsumer) sub(p, q *P) bool {
	if p == nil || q == nil {
		return false
	}
	// Resolve references, coinductively assuming in-flight pairs hold.
	if p.Kind == KRef || q.Kind == KRef {
		key := [2]*P{p, q}
		if v, ok := s.assume[key]; ok {
			return v
		}
		s.assume[key] = true // coinductive hypothesis
		rp, rq := p, q
		if p.Kind == KRef {
			rp = s.mp.resolve(p)
		}
		if q.Kind == KRef {
			rq = s.mq.resolve(q)
		}
		ok := rp != nil && rq != nil && s.sub(rp, rq)
		s.assume[key] = ok
		return ok
	}
	switch p.Kind {
	case KAny:
		return true
	case KInt, KFloat, KBool, KString:
		if q.Kind == p.Kind {
			return true
		}
		if p.Kind == KFloat && q.Kind == KInt {
			return true // Int values are acceptable where Float is expected
		}
		if q.Kind == KConst {
			switch p.Kind {
			case KInt:
				return q.Const.Kind == data.KindInt
			case KFloat:
				return q.Const.IsNumeric()
			case KBool:
				return q.Const.Kind == data.KindBool
			case KString:
				return q.Const.Kind == data.KindString
			}
		}
		if q.Kind == KUnion {
			return s.allAlts(p, q)
		}
		return false
	case KConst:
		if q.Kind == KConst {
			return p.Const.Equal(*q.Const)
		}
		if q.Kind == KUnion {
			return s.allAlts(p, q)
		}
		return false
	case KUnion:
		if q.Kind == KUnion {
			return s.allAlts(p, q)
		}
		for _, a := range p.Alts {
			if s.sub(a, q) {
				return true
			}
		}
		return false
	case KNode:
		if q.Kind == KUnion {
			return s.allAlts(p, q)
		}
		if q.Kind != KNode {
			return false
		}
		if !p.AnyLabel && (q.AnyLabel || q.Label != p.Label) {
			return false
		}
		if p.Col != ColNone && q.Col != p.Col {
			return false
		}
		return s.subSeq(p.Items, q.Items)
	default:
		return false
	}
}

// allAlts reports that every alternative of union q is subsumed by p.
func (s *subsumer) allAlts(p, q *P) bool {
	for _, a := range q.Alts {
		if !s.sub(p, a) {
			return false
		}
	}
	return len(q.Alts) > 0
}

// subSeq decides containment of the item sequence q in the item sequence p:
// every child list generated by q must be generated by p. Dynamic program
// over (qi, pi); a starred q item must be absorbed by a subsuming starred
// p item (sound, and exact for the unambiguous sequences of YAT schemas).
func (s *subsumer) subSeq(pItems, qItems []Item) bool {
	type key struct{ qi, pi int }
	memo := make(map[key]int) // 0 unknown, 1 true, 2 false
	var rec func(qi, pi int) bool
	rec = func(qi, pi int) bool {
		if qi == len(qItems) {
			// remaining p items must all be optional (starred)
			for ; pi < len(pItems); pi++ {
				if !pItems[pi].Star {
					return false
				}
			}
			return true
		}
		k := key{qi, pi}
		if v := memo[k]; v != 0 {
			return v == 1
		}
		memo[k] = 2
		qit := qItems[qi]
		ok := false
		if pi < len(pItems) {
			pit := pItems[pi]
			if qit.Star {
				// Absorb q* into a subsuming p*; or skip an (optional) p*.
				if pit.Star && s.sub(pit.P, qit.P) && (rec(qi+1, pi) || rec(qi+1, pi+1)) {
					ok = true
				}
				if !ok && pit.Star && rec(qi, pi+1) {
					ok = true
				}
			} else {
				if pit.Star {
					// p* matches this single item (stay or advance), or is skipped.
					if s.sub(pit.P, qit.P) && (rec(qi+1, pi) || rec(qi+1, pi+1)) {
						ok = true
					}
					if !ok && rec(qi, pi+1) {
						ok = true
					}
				} else if s.sub(pit.P, qit.P) && rec(qi+1, pi+1) {
					ok = true
				}
			}
		}
		if ok {
			memo[k] = 1
		}
		return ok
	}
	return rec(0, 0)
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

// String renders the pattern in the textual syntax accepted by Parse.
func (p *P) String() string {
	var b strings.Builder
	p.write(&b)
	return b.String()
}

func (p *P) write(b *strings.Builder) {
	if p == nil {
		b.WriteString("<nil>")
		return
	}
	switch p.Kind {
	case KAny:
		b.WriteString("Any")
	case KInt:
		b.WriteString("Int")
	case KFloat:
		b.WriteString("Float")
	case KBool:
		b.WriteString("Bool")
	case KString:
		b.WriteString("String")
	case KConst:
		if p.Const.Kind == data.KindString {
			fmt.Fprintf(b, "%q", p.Const.S)
		} else {
			b.WriteString(p.Const.Text())
		}
	case KRef:
		b.WriteByte('&')
		b.WriteString(p.Name)
	case KUnion:
		b.WriteByte('(')
		for i, a := range p.Alts {
			if i > 0 {
				b.WriteString(" | ")
			}
			a.write(b)
		}
		b.WriteByte(')')
	case KNode:
		if p.AnyLabel {
			b.WriteString("Symbol")
		} else {
			writeLabel(b, p.Label, p.Col)
		}
		if len(p.Items) == 0 {
			b.WriteString("[]")
			return
		}
		if len(p.Items) == 1 && !p.Items[0].Star && isScalar(p.Items[0].P) {
			b.WriteString(": ")
			p.Items[0].P.write(b)
			return
		}
		b.WriteString("[ ")
		for i, it := range p.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			if it.Star {
				b.WriteByte('*')
			}
			it.P.write(b)
		}
		b.WriteString(" ]")
	}
}

// writeLabel writes a node label, quoting it whenever the bare spelling
// would not survive ParsePattern: XML names may contain characters outside
// the identifier alphabet ('.', ':', any non-ASCII), start with a digit, or
// collide with a reserved type name, the Symbol wildcard, or a collection
// keyword whose kind the node does not carry.
func writeLabel(b *strings.Builder, label string, col Col) {
	if plainLabel(label, col) {
		b.WriteString(label)
		return
	}
	b.WriteByte('"')
	for i := 0; i < len(label); i++ {
		if label[i] == '"' || label[i] == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(label[i])
	}
	b.WriteByte('"')
}

// plainLabel reports whether the label lexes back as the same bare name —
// a word, or an attribute's "@" glued to a word — and re-parses to the same
// node (no reserved meaning, collection kind intact).
func plainLabel(label string, col Col) bool {
	if !syntax.IsWord(strings.TrimPrefix(label, "@")) {
		return false
	}
	switch label {
	case "Int", "Float", "Bool", "String", "Any", "Symbol", "true", "false", "model":
		return false
	}
	return ColFromString(label) == col
}

func isScalar(p *P) bool {
	switch p.Kind {
	case KInt, KFloat, KBool, KString, KAny, KConst, KRef:
		return true
	default:
		return false
	}
}

// String renders the model as a sequence of name := pattern definitions.
func (m *Model) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model %s\n", m.Name)
	for _, n := range m.Names() {
		fmt.Fprintf(&b, "  %s := %s\n", n, m.Defs[n])
	}
	return b.String()
}
