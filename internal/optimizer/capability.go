package optimizer

import (
	"slices"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/data"
	"repro/internal/typecheck"
)

// Round 2 — capability-based pushdown (Section 5.3, Figure 9). Three steps:
//
//  1. split Binds whose filters a source rejects as a whole but whose
//     document level it accepts (Figure 7's Bind-split applied for
//     capability matching);
//  2. apply declared equivalences: a selection with equality over a value
//     bound inside a document implies a contains selection over the
//     document variable (Section 4.2), which the source can evaluate;
//  3. wrap maximal admissible Select*/Project*-over-Bind chains in
//     SourceQuery nodes.

func (o *Optimizer) round2(plan algebra.Op) algebra.Op {
	plan = o.splitForCapabilities(plan)
	plan = o.introduceEquivalences(plan)
	plan = pushSelections(plan)
	plan = o.wrapSources(plan)
	return o.mergeSourceJoins(plan)
}

// mergeSourceJoins merges a Join of two queries pushed to the same source
// into a single pushed query when the source declared the join operation
// and can evaluate the predicate — a full query language such as OQL
// evaluates multi-extent joins natively (Section 4.1).
func (o *Optimizer) mergeSourceJoins(op algebra.Op) algebra.Op {
	op = rebuildChildren(op, o.mergeSourceJoins)
	j, ok := op.(*algebra.Join)
	if !ok {
		return op
	}
	l, lok := j.L.(*algebra.SourceQuery)
	r, rok := j.R.(*algebra.SourceQuery)
	if !lok || !rok || l.Source != r.Source {
		return op
	}
	iface := o.opts.Interfaces[l.Source]
	// A single declared join entry must cover every document the merged plan
	// touches: a source may join its extents and, separately, its node
	// tables, without claiming it can join across the two families.
	docs := algebra.Docs(&algebra.Join{L: l.Plan, R: r.Plan})
	if iface == nil || !iface.CoversOperation("join", docs) {
		return op
	}
	for _, c := range algebra.SplitConj(j.Pred) {
		if !pushable(iface, c, docs) {
			return op
		}
	}
	o.trace("merged same-source join at %s", l.Source)
	return &algebra.SourceQuery{Source: l.Source,
		Plan: &algebra.Join{L: l.Plan, R: r.Plan, Pred: j.Pred}}
}

// pushable reports whether the source can evaluate one conjunct over the
// documents the pushed plan touches. The feasibility table is typecheck's
// (PredFeasible); the one conjunct it accepts that is never pushed is a bare
// constant, which no wrapper was ever handed to translate.
func pushable(iface *capability.Interface, conj algebra.Expr, docs []string) bool {
	if _, isConst := conj.(algebra.Const); isConst {
		return false
	}
	return typecheck.PredFeasible(iface, conj, docs) == nil
}

func (o *Optimizer) ifaceFor(doc string) *capability.Interface {
	src, ok := o.opts.SourceDocs[doc]
	if !ok {
		return nil
	}
	return o.opts.Interfaces[src]
}

// splitForCapabilities splits document Binds that a source rejects directly
// but accepts at the document level.
func (o *Optimizer) splitForCapabilities(op algebra.Op) algebra.Op {
	op = rebuildChildren(op, o.splitForCapabilities)
	b, ok := op.(*algebra.Bind)
	if !ok || b.Doc == "" {
		return op
	}
	iface := o.ifaceFor(b.Doc)
	if iface == nil || iface.AcceptsFilter(b.Doc, b.F) == nil {
		return op // directly acceptable (or no source): leave intact
	}
	docBind, residual, ok := SplitBindDoc(b, o.fresh.fresh)
	if !ok {
		return op
	}
	if iface.AcceptsFilter(docBind.Doc, docBind.F) != nil {
		return op
	}
	o.trace("split Bind(%s) for capability matching", b.Doc)
	residual.From = docBind
	return residual
}

// introduceEquivalences inserts contains selections implied by equality
// selections, directly above the document-level Bind they restrict.
func (o *Optimizer) introduceEquivalences(op algebra.Op) algebra.Op {
	op = rebuildChildren(op, o.introduceEquivalences)
	sel, ok := op.(*algebra.Select)
	if !ok {
		return op
	}
	for _, conj := range algebra.SplitConj(sel.Pred) {
		v, text, ok := eqStringConst(conj)
		if !ok {
			continue
		}
		docVar, docBind := o.containsTarget(sel.From, v)
		if docBind == nil {
			continue
		}
		contains := algebra.Call{Name: "contains", Args: []algebra.Expr{
			algebra.Var{Name: docVar}, algebra.Const{Atom: data.String(text)}}}
		if hasContains(sel.From, contains) {
			continue // already introduced (fixpoint safety)
		}
		o.trace("introduced %s from %s (declared equivalence)", contains, conj)
		return &algebra.Select{
			From: insertAboveBind(sel.From, docBind, contains),
			Pred: sel.Pred,
		}
	}
	return op
}

// eqStringConst recognises `$x = "str"` (either side).
func eqStringConst(e algebra.Expr) (string, string, bool) {
	c, ok := e.(algebra.Cmp)
	if !ok || c.Op != algebra.OpEq {
		return "", "", false
	}
	if v, ok := c.L.(algebra.Var); ok {
		if k, ok := c.R.(algebra.Const); ok && k.Atom.Kind == data.KindString {
			return v.Name, k.Atom.S, true
		}
	}
	if v, ok := c.R.(algebra.Var); ok {
		if k, ok := c.L.(algebra.Const); ok && k.Atom.Kind == data.KindString {
			return v.Name, k.Atom.S, true
		}
	}
	return "", "", false
}

// containsTarget finds, below op, a residual Bind binding v over a document
// variable whose document Bind belongs to a source declaring an
// eq→contains equivalence. It returns the document variable and its Bind.
func (o *Optimizer) containsTarget(op algebra.Op, v string) (string, *algebra.Bind) {
	var docVar string
	var docBind *algebra.Bind
	algebra.Walk(op, func(n algebra.Op) bool {
		if docBind != nil {
			return false
		}
		rb, ok := n.(*algebra.Bind)
		if !ok || rb.Col == "" || rb.Doc != "" {
			return true
		}
		if !slices.Contains(rb.F.Vars(), v) {
			return true
		}
		// rb binds v over column rb.Col; find the document Bind below that
		// binds rb.Col over a source with the equivalence.
		algebra.Walk(rb, func(m algebra.Op) bool {
			db, ok := m.(*algebra.Bind)
			if !ok || db.Doc == "" || !slices.Contains(db.F.Vars(), rb.Col) {
				return true
			}
			iface := o.ifaceFor(db.Doc)
			if iface == nil || iface.EquivalenceTo("contains") == nil {
				return true
			}
			docVar, docBind = rb.Col, db
			return false
		})
		return docBind == nil
	})
	return docVar, docBind
}

// hasContains reports whether an identical contains selection already
// exists in the subtree.
func hasContains(op algebra.Op, call algebra.Call) bool {
	found := false
	algebra.Walk(op, func(n algebra.Op) bool {
		if s, ok := n.(*algebra.Select); ok {
			for _, c := range algebra.SplitConj(s.Pred) {
				if c.String() == call.String() {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// insertAboveBind rebuilds op with Select(pred) inserted directly above the
// given Bind node.
func insertAboveBind(op algebra.Op, target *algebra.Bind, pred algebra.Expr) algebra.Op {
	if op == algebra.Op(target) {
		return &algebra.Select{From: target, Pred: pred}
	}
	return rebuildChildren(op, func(c algebra.Op) algebra.Op {
		return insertAboveBind(c, target, pred)
	})
}

// ---------------------------------------------------------------------------
// Source wrapping
// ---------------------------------------------------------------------------

// wrapSources wraps maximal admissible chains in SourceQuery nodes,
// splitting Selects into pushable and residual parts.
func (o *Optimizer) wrapSources(op algebra.Op) algebra.Op {
	if out, ok := o.tryWrap(op); ok {
		return out
	}
	return rebuildChildren(op, o.wrapSources)
}

// tryWrap attempts to wrap the chain rooted at op.
func (o *Optimizer) tryWrap(op algebra.Op) (algebra.Op, bool) {
	// Find the chain: Select/Project* down to Bind(doc).
	var bind *algebra.Bind
	cur := op
chain:
	for {
		// yat-lint:ignore intentionally partial: only Select/Project* over Bind(doc) chains are wrappable
		switch x := cur.(type) {
		case *algebra.Select:
			cur = x.From
		case *algebra.Project:
			cur = x.From
		case *algebra.Bind:
			if x.Doc == "" || x.From != nil {
				return nil, false
			}
			bind = x
			break chain
		default:
			return nil, false
		}
	}
	iface := o.ifaceFor(bind.Doc)
	if iface == nil || !iface.HasOperationFor("bind", bind.Doc) {
		return nil, false
	}
	if err := iface.AcceptsFilter(bind.Doc, bind.F); err != nil {
		return nil, false
	}
	docs := []string{bind.Doc}
	// Rebuild the chain bottom-up, pushing what the interface accepts.
	var build func(op algebra.Op) (pushed algebra.Op, residual []func(algebra.Op) algebra.Op)
	build = func(op algebra.Op) (algebra.Op, []func(algebra.Op) algebra.Op) {
		// yat-lint:ignore intentionally partial: mirrors the chain walk above; only Bind/Project/Select occur
		switch x := op.(type) {
		case *algebra.Bind:
			return x, nil
		case *algebra.Project:
			inner, res := build(x.From)
			if iface.CoversOperation("project", docs) && len(res) == 0 {
				return &algebra.Project{From: inner, Cols: x.Cols}, nil
			}
			cols := x.Cols
			res = append(res, func(in algebra.Op) algebra.Op {
				return &algebra.Project{From: in, Cols: cols}
			})
			return inner, res
		case *algebra.Select:
			inner, res := build(x.From)
			var push, keep []algebra.Expr
			for _, c := range algebra.SplitConj(x.Pred) {
				if iface.CoversOperation("select", docs) && pushable(iface, c, docs) && len(res) == 0 {
					push = append(push, c)
				} else {
					keep = append(keep, c)
				}
			}
			if len(push) > 0 {
				inner = &algebra.Select{From: inner, Pred: algebra.Conj(push...)}
			}
			if len(keep) > 0 {
				pred := algebra.Conj(keep...)
				res = append(res, func(in algebra.Op) algebra.Op {
					return &algebra.Select{From: in, Pred: pred}
				})
			}
			return inner, res
		default:
			return op, nil
		}
	}
	pushed, residual := build(op)
	sq := algebra.Op(&algebra.SourceQuery{Source: o.opts.SourceDocs[bind.Doc], Plan: pushed})
	for _, wrap := range residual {
		sq = wrap(sq)
	}
	o.trace("pushed to %s:\n%s", o.opts.SourceDocs[bind.Doc], algebra.Describe(pushed))
	return sq, true
}

// ---------------------------------------------------------------------------
// Round 3 — information passing
// ---------------------------------------------------------------------------

// round3 converts cross-source Joins whose right side is a pushed source
// query into DJoins, injecting the join predicate into the pushed plan so
// that left-hand bindings flow to the source as parameters (the nested-loop
// information passing of Figure 9).
func (o *Optimizer) round3(op algebra.Op) algebra.Op {
	op = rebuildChildren(op, o.round3)
	j, ok := op.(*algebra.Join)
	if !ok {
		return op
	}
	sq := innermostSourceQuery(j.R)
	if sq == nil {
		// Joins are commutative: when only the left side ends in a source
		// query, swap so that the source query becomes the parameterized
		// inner side of the nested loop.
		if lsq := innermostSourceQuery(j.L); lsq != nil {
			j = &algebra.Join{L: j.R, R: j.L, Pred: j.Pred}
			sq = lsq
		} else {
			return op
		}
	}
	iface := o.opts.Interfaces[sq.Source]
	sqDocs := algebra.Docs(sq.Plan)
	if iface == nil || !iface.CoversOperation("select", sqDocs) {
		return op
	}
	lcols := algebra.SetOf(j.L.Columns())
	rcols := algebra.SetOf(j.R.Columns())
	var inject, rest []algebra.Expr
	for _, c := range algebra.SplitConj(j.Pred) {
		a, b, ok := algebra.EqColumns(c)
		if ok && iface.CoversOperation("eq", sqDocs) &&
			((lcols[a] && rcols[b]) || (lcols[b] && rcols[a])) {
			inject = append(inject, c)
		} else {
			rest = append(rest, c)
		}
	}
	if len(inject) == 0 {
		return op
	}
	o.trace("information passing: Join → DJoin over %s", sq.Source)
	newSQ := &algebra.SourceQuery{Source: sq.Source,
		Plan: &algebra.Select{From: sq.Plan, Pred: algebra.Conj(inject...)}}
	right := replaceSourceQuery(j.R, sq, newSQ)
	var out algebra.Op = &algebra.DJoin{L: j.L, R: right}
	if len(rest) > 0 {
		out = &algebra.Select{From: out, Pred: algebra.Conj(rest...)}
	}
	return out
}

// innermostSourceQuery returns the SourceQuery at the bottom of a
// Select/Project chain, or nil.
func innermostSourceQuery(op algebra.Op) *algebra.SourceQuery {
	// yat-lint:ignore intentionally partial: anything but a Select/Project chain ends the search
	switch x := op.(type) {
	case *algebra.SourceQuery:
		return x
	case *algebra.Select:
		return innermostSourceQuery(x.From)
	case *algebra.Project:
		return innermostSourceQuery(x.From)
	default:
		return nil
	}
}

func replaceSourceQuery(op algebra.Op, from, to *algebra.SourceQuery) algebra.Op {
	if op == algebra.Op(from) {
		return to
	}
	return rebuildChildren(op, func(c algebra.Op) algebra.Op {
		return replaceSourceQuery(c, from, to)
	})
}
