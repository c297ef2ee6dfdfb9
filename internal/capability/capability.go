// Package capability implements the source-description language of
// Section 4: Fmodels of Fpatterns describing the filters a source accepts
// (an Fmodel is a pattern.Model whose patterns carry bind/inst flags),
// operational interfaces declaring which algebraic operations a source
// evaluates (Figure 6), and declared equivalences connecting
// source-specific predicates with algebra predicates (the contains/equality
// connection of Section 4.2).
//
// The central judgement is AcceptsFilter: is a Bind filter admissible for a
// source, i.e. is it an instance of the exported Fpattern respecting every
// flag? The optimizer uses it (with AcceptsPlan, in internal/optimizer) to
// decide which subplans can be pushed.
package capability

import (
	"fmt"

	"repro/internal/filter"
	"repro/internal/pattern"
)

// Sig is one operation signature entry (an <input> or <output> element).
type Sig struct {
	Model    string // model/fmodel name the pattern lives in
	Pattern  string // pattern name
	IsFilter bool   // a <filter> position rather than a <value>
	Leaf     string // atomic leaf type for predicate signatures ("String", "Bool", ...)
}

// Operation declares one operation a source supports: algebraic operators
// (bind, select, ...), boolean predicates (eq, leq, ...), or external
// functions (contains, current_price).
type Operation struct {
	Name   string
	Kind   string // "algebra", "boolean", "external", "method"
	Inputs []Sig
	Output *Sig
	// Docs, when non-empty, restricts the operation to plans over the named
	// documents. An empty Docs means the operation applies to every document
	// the source exports (the pre-scoping behavior). A source may declare
	// the same operation name several times with disjoint Docs sets — e.g. a
	// join over its extents and, separately, a join over its node-number
	// tables — without thereby claiming it can join the two families
	// together (CoversOperation requires a single declaration to cover the
	// whole document set of a pushed plan).
	Docs []string
}

// covers reports whether this declaration applies to the named document.
func (op *Operation) covers(doc string) bool {
	if len(op.Docs) == 0 {
		return true
	}
	for _, d := range op.Docs {
		if d == doc {
			return true
		}
	}
	return false
}

// Equivalence is a declared semantic connection between an algebra
// predicate and a source-specific one (Section 4.2): starting from a
// selection with From over a variable bound inside a tree rooted at an
// Fpattern-accepted subtree, one may introduce the more general To
// predicate over the subtree's root variable.
type Equivalence struct {
	Name  string
	From  string // algebra predicate, e.g. "eq"
	To    string // source predicate, e.g. "contains"
	Scope string // Fpattern name of the root the To predicate applies to
}

// Interface is the full operational interface a wrapper exports (Figure 6).
type Interface struct {
	Name         string
	FModels      []*pattern.Model
	Operations   []Operation
	Equivalences []Equivalence
	// Binds lists, per exported document, the Fpattern governing binds on
	// it: docname -> (fmodel, fpattern).
	Binds map[string]BindCap
	// Structures optionally carries, per exported document, the source's
	// structural schema (Figure 3's export): the pattern every instance of
	// the document's members instantiates. The mediator seeds plan typing
	// from these on connect; ImportStructure can still override them.
	Structures map[string]StructureRef
}

// StructureRef names a pattern inside a structural model: the declared
// type of one document's members. It is the one structure reference: an
// interface carries it, the wire ships it (StructuresToXML) and plan typing
// reads it (typecheck.Schemas).
type StructureRef struct {
	Model   *pattern.Model
	Pattern string
}

// BindCap names the Fpattern that governs Bind operations over a document.
type BindCap struct {
	FModel   string
	FPattern string
}

// NewInterface returns an empty interface description.
func NewInterface(name string) *Interface {
	return &Interface{
		Name:       name,
		Binds:      make(map[string]BindCap),
		Structures: make(map[string]StructureRef),
	}
}

// FModel resolves an Fmodel by name.
func (i *Interface) FModel(name string) *pattern.Model {
	for _, m := range i.FModels {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Operation resolves an operation by name; nil when absent.
func (i *Interface) Operation(name string) *Operation {
	for k := range i.Operations {
		if i.Operations[k].Name == name {
			return &i.Operations[k]
		}
	}
	return nil
}

// HasOperation reports whether the source declared the operation for at
// least one of its documents. Callers that know which documents a pushed
// plan touches should prefer CoversOperation.
func (i *Interface) HasOperation(name string) bool { return i.Operation(name) != nil }

// CoversOperation reports whether a single declared operation entry named
// name applies to every document in docs. A declaration with empty Docs
// covers everything; a scoped declaration covers only its listed documents.
// Requiring one entry to cover the whole set (rather than each doc being
// covered by some entry) keeps a source honest about cross-family
// operations: declaring join over its extents and, separately, join over
// its node tables does not claim a join mixing the two.
func (i *Interface) CoversOperation(name string, docs []string) bool {
	for k := range i.Operations {
		op := &i.Operations[k]
		if op.Name != name {
			continue
		}
		all := true
		for _, d := range docs {
			if !op.covers(d) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// HasOperationFor reports whether the operation is declared for one document.
func (i *Interface) HasOperationFor(name, doc string) bool {
	return i.CoversOperation(name, []string{doc})
}

// OperationFor resolves the first operation entry named name that covers the
// given document set; nil when absent.
func (i *Interface) OperationFor(name string, docs []string) *Operation {
	for k := range i.Operations {
		op := &i.Operations[k]
		if op.Name != name {
			continue
		}
		all := true
		for _, d := range docs {
			if !op.covers(d) {
				all = false
				break
			}
		}
		if all {
			return op
		}
	}
	return nil
}

// Equivalence resolves a declared equivalence by target predicate.
func (i *Interface) EquivalenceTo(to string) *Equivalence {
	for k := range i.Equivalences {
		if i.Equivalences[k].To == to {
			return &i.Equivalences[k]
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Filter acceptance
// ---------------------------------------------------------------------------

// AcceptsFilter reports whether a Bind filter over the named document is
// admissible for this interface, i.e. whether the filter instantiates the
// document's Fpattern under every bind/inst flag. A non-nil error explains
// the first violation (useful in optimizer traces and tests).
func (i *Interface) AcceptsFilter(doc string, f *filter.Filter) error {
	cap, ok := i.Binds[doc]
	if !ok {
		return fmt.Errorf("capability: source %s does not export binds on %q", i.Name, doc)
	}
	m := i.FModel(cap.FModel)
	if m == nil {
		return fmt.Errorf("capability: unknown fmodel %q", cap.FModel)
	}
	root := m.Lookup(cap.FPattern)
	if root == nil {
		return fmt.Errorf("capability: unknown fpattern %q", cap.FPattern)
	}
	chk := &checker{m: m}
	return chk.accept(root, f.Root)
}

type checker struct {
	m     *pattern.Model
	depth int
}

func (c *checker) accept(ft *pattern.P, fn *filter.FNode) error {
	if ft == nil || fn == nil {
		return fmt.Errorf("capability: nil pattern or filter")
	}
	if c.depth > 64 {
		return fmt.Errorf("capability: fpattern recursion too deep")
	}
	c.depth++
	defer func() { c.depth-- }()
	switch ft.Kind {
	case pattern.KAny:
		return nil
	case pattern.KRef:
		target := c.m.Lookup(ft.Name)
		if target == nil {
			// Opaque structural type: the filter may bind it as a whole
			// (subject to this node's flags) but not navigate inside.
			if len(fn.Items) > 0 {
				return fmt.Errorf("capability: cannot navigate inside opaque type %s", ft.Name)
			}
			return c.flags(ft, fn)
		}
		return c.accept(target, fn)
	case pattern.KUnion:
		var firstErr error
		for _, a := range ft.Alts {
			if err := c.accept(a, fn); err == nil {
				return nil
			} else if firstErr == nil {
				firstErr = err
			}
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("capability: empty union")
		}
		return firstErr
	case pattern.KInt, pattern.KFloat, pattern.KBool, pattern.KString:
		// Atomic positions: content variables and constants are fine;
		// navigation below is not.
		if len(fn.Items) > 0 {
			return fmt.Errorf("capability: navigation below an atomic position")
		}
		if fn.LabelVar != "" {
			return fmt.Errorf("capability: label variable on an atomic position")
		}
		return nil
	case pattern.KNode:
		if err := c.flags(ft, fn); err != nil {
			return err
		}
		return c.acceptItems(ft.Items, fn.Items)
	default:
		return fmt.Errorf("capability: unsupported fpattern kind %v", ft.Kind)
	}
}

// flags checks the label and variable restrictions of one node.
func (c *checker) flags(ft *pattern.P, fn *filter.FNode) error {
	// Label discipline.
	if ft.Kind == pattern.KNode {
		if ft.AnyLabel {
			switch ft.Inst {
			case pattern.InstGround:
				if fn.Label == "" || fn.AnyLabel || fn.LabelVar != "" {
					return fmt.Errorf("capability: label must be ground (inst=ground), got %q", fn)
				}
			case pattern.InstNone:
				if fn.Label != "" {
					return fmt.Errorf("capability: label must be left generic (inst=none), got %q", fn.Label)
				}
			}
		} else if ft.Label != "" {
			if fn.Label != ft.Label {
				return fmt.Errorf("capability: filter label %q does not match pattern label %q", fn.Label, ft.Label)
			}
		}
	}
	// Variable discipline.
	switch ft.Bind {
	case pattern.BindNone:
		if fn.Var != "" || fn.LabelVar != "" {
			return fmt.Errorf("capability: node %q may not be bound (bind=none)", fn)
		}
	case pattern.BindTree:
		if fn.LabelVar != "" {
			return fmt.Errorf("capability: node %q allows only tree variables (bind=tree)", fn)
		}
	case pattern.BindLabel:
		if fn.Var != "" {
			return fmt.Errorf("capability: node %q allows only label variables (bind=label)", fn)
		}
	}
	return nil
}

// acceptItems maps each filter item onto an fpattern item via memoized
// sequence matching, enforcing the star inst flags: a ground star must be
// enumerated by non-star filter items; a none star must be matched by
// starred filter items (the filter keeps the edge generic).
func (c *checker) acceptItems(fts []pattern.Item, fis []filter.FItem) error {
	type key struct{ i, j int }
	memo := map[key]error{}
	var rec func(i, j int) error
	rec = func(i, j int) error {
		if i == len(fis) {
			return nil // remaining fpattern items are simply not used
		}
		k := key{i, j}
		if e, ok := memo[k]; ok {
			return e
		}
		memo[k] = fmt.Errorf("capability: cycle")
		fi := fis[i]
		var lastErr error
		for jj := j; jj < len(fts); jj++ {
			ftIt := fts[jj]
			if err := c.acceptItem(ftIt, fi); err != nil {
				lastErr = err
				continue
			}
			next := jj
			if !ftIt.Star {
				next = jj + 1
			}
			if err := rec(i+1, next); err != nil {
				lastErr = err
				continue
			}
			memo[k] = nil
			return nil
		}
		if lastErr == nil {
			lastErr = fmt.Errorf("capability: filter item %d has no matching pattern position", i)
		}
		memo[k] = lastErr
		return lastErr
	}
	return rec(0, 0)
}

func (c *checker) acceptItem(ftIt pattern.Item, fi filter.FItem) error {
	if fi.Descend {
		return fmt.Errorf("capability: descendant navigation (**) cannot be pushed")
	}
	if fi.CollectVar != "" {
		// Collecting a subsequence requires the member position to allow
		// tree binding and the edge to stay generic.
		if ftIt.Inst == pattern.InstGround {
			return fmt.Errorf("capability: collect-star on a ground edge")
		}
		if !ftIt.Star {
			return fmt.Errorf("capability: collect-star on a non-star position")
		}
		if ftIt.P != nil && ftIt.P.Bind == pattern.BindNone {
			return fmt.Errorf("capability: collect-star over unbindable members")
		}
		return nil
	}
	switch ftIt.Inst {
	case pattern.InstGround:
		if fi.Star {
			return fmt.Errorf("capability: star edge must be instantiated (inst=ground)")
		}
	case pattern.InstNone:
		if !fi.Star && ftIt.Star {
			return fmt.Errorf("capability: edge must be left generic (inst=none); enumerating members is not supported")
		}
	}
	return c.accept(ftIt.P, fi.F)
}
