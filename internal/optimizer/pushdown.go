package optimizer

import (
	"sort"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/filter"
	"repro/internal/pattern"
	"repro/internal/tab"
)

// ---------------------------------------------------------------------------
// Selection pushdown
// ---------------------------------------------------------------------------

// pushSelections moves selection conjuncts as close to the leaves as their
// variables allow, and merges adjacent Selects. It rebuilds the plan
// bottom-up.
func pushSelections(op algebra.Op) algebra.Op {
	op = rebuildChildren(op, pushSelections)
	sel, ok := op.(*algebra.Select)
	if !ok {
		return op
	}
	conjs := algebra.SplitConj(sel.Pred)
	child, rest := sink(sel.From, conjs)
	if len(rest) == 0 {
		return child
	}
	return &algebra.Select{From: child, Pred: algebra.Conj(rest...)}
}

// sink pushes the given conjuncts into op where possible; it returns the
// rebuilt operator and the conjuncts that could not be placed below.
func sink(op algebra.Op, conjs []algebra.Expr) (algebra.Op, []algebra.Expr) {
	// yat-lint:ignore intentionally partial: operators without a sink rule keep the selection above them (default)
	switch x := op.(type) {
	case *algebra.Select:
		// Merge and retry below.
		return sink(x.From, append(algebra.SplitConj(x.Pred), conjs...))
	case *algebra.Join:
		lcols, rcols := algebra.SetOf(x.L.Columns()), algebra.SetOf(x.R.Columns())
		var lp, rp, here []algebra.Expr
		for _, c := range conjs {
			switch {
			case covered(c, lcols):
				lp = append(lp, c)
			case covered(c, rcols):
				rp = append(rp, c)
			default:
				here = append(here, c)
			}
		}
		l, lrest := sink(x.L, lp)
		r, rrest := sink(x.R, rp)
		join := &algebra.Join{L: wrapSelect(l, lrest), R: wrapSelect(r, rrest), Pred: x.Pred}
		if len(here) > 0 {
			return &algebra.Select{From: join, Pred: algebra.Conj(here...)}, nil
		}
		return join, nil
	case *algebra.DJoin:
		// The right side of a DJoin sees left columns as parameters; only
		// left-covered conjuncts sink safely into the left side.
		lcols := algebra.SetOf(x.L.Columns())
		var lp, rest []algebra.Expr
		for _, c := range conjs {
			if covered(c, lcols) {
				lp = append(lp, c)
			} else {
				rest = append(rest, c)
			}
		}
		l, lrest := sink(x.L, lp)
		return &algebra.DJoin{L: wrapSelect(l, lrest), R: x.R}, rest
	case *algebra.Distinct:
		child, rest := sink(x.From, conjs)
		return &algebra.Distinct{From: wrapSelect(child, rest)}, nil
	case *algebra.Project:
		// Rewrite conjunct variables through the renames; conjuncts whose
		// variables all survive below the projection sink through it.
		toSrc := map[string]string{}
		for _, c := range x.Cols {
			name, src := tab.SplitRename(c)
			toSrc[name] = src
		}
		var down []algebra.Expr
		var stay []algebra.Expr
		for _, c := range conjs {
			if r, ok := renameExpr(c, toSrc); ok {
				down = append(down, r)
			} else {
				stay = append(stay, c)
			}
		}
		child, rest := sink(x.From, down)
		return &algebra.Project{From: wrapSelect(child, rest), Cols: x.Cols}, stay
	case *algebra.Bind:
		if x.From == nil {
			return op, conjs
		}
		// Conjuncts over the input columns can sink below the Bind.
		below := algebra.SetOf(x.From.Columns())
		var lp, rest []algebra.Expr
		for _, c := range conjs {
			if covered(c, below) {
				lp = append(lp, c)
			} else {
				rest = append(rest, c)
			}
		}
		child, lrest := sink(x.From, lp)
		return &algebra.Bind{From: wrapSelect(child, lrest), Doc: x.Doc, Col: x.Col, F: x.F}, rest
	default:
		return op, conjs
	}
}

// wrapSelect places the conjuncts directly above op (they could not sink
// deeper but belong to this branch).
func wrapSelect(op algebra.Op, conjs []algebra.Expr) algebra.Op {
	if len(conjs) == 0 {
		return op
	}
	return &algebra.Select{From: op, Pred: algebra.Conj(conjs...)}
}

func covered(e algebra.Expr, cols map[string]bool) bool {
	for _, v := range e.Vars() {
		if !cols[v] {
			return false
		}
	}
	return true
}

// rebuildChildren maps fn over an operator's children, rebuilding the node.
func rebuildChildren(op algebra.Op, fn func(algebra.Op) algebra.Op) algebra.Op {
	if _, pushed := op.(*algebra.SourceQuery); pushed {
		return op // pushed plans are opaque to mediator rewriting
	}
	return algebra.MapChildren(op, fn)
}

// ---------------------------------------------------------------------------
// Projection pruning and source-branch elimination
// ---------------------------------------------------------------------------

// pruneColumns walks top-down with the set of columns needed above each
// operator, narrowing projections and — under a declared containment
// assumption — eliminating join branches none of whose columns are needed
// (the source pruning of Figure 8).
func (o *Optimizer) pruneColumns(op algebra.Op, needed map[string]bool) algebra.Op {
	// yat-lint:ignore intentionally partial: operators without a pruning rule conservatively need all their columns (default)
	switch x := op.(type) {
	case *algebra.Project:
		// Columns feeding the projection. The projection itself narrows to
		// the needed columns: keeping a column the parent pruned away would
		// reference data the pruned input no longer produces.
		below := map[string]bool{}
		cols := make([]string, 0, len(x.Cols))
		for _, c := range x.Cols {
			name, src := tab.SplitRename(c)
			if needed[name] {
				below[src] = true
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 && len(x.Cols) > 0 {
			// Nothing above needs any column (e.g. a constant construction):
			// keep one so the plan stays well-formed.
			_, src := tab.SplitRename(x.Cols[0])
			below[src] = true
			cols = []string{x.Cols[0]}
		}
		return &algebra.Project{From: o.pruneColumns(x.From, below), Cols: cols}
	case *algebra.Select:
		n2 := algebra.SetUnion(needed, algebra.SetOf(x.Pred.Vars()))
		return &algebra.Select{From: o.pruneColumns(x.From, n2), Pred: x.Pred}
	case *algebra.MapExpr:
		n2 := algebra.SetUnion(needed, algebra.SetOf(x.E.Vars()))
		return &algebra.MapExpr{From: o.pruneColumns(x.From, n2), Col: x.Col, E: x.E}
	case *algebra.Join:
		n2 := algebra.SetUnion(needed, algebra.SetOf(x.Pred.Vars()))
		lcols, rcols := algebra.SetOf(x.L.Columns()), algebra.SetOf(x.R.Columns())
		if repl, ok := o.pruneJoinBranch(x, x.L, x.R, needed); ok {
			return o.pruneColumns(repl, algebra.SetOf(repl.Columns()))
		}
		if repl, ok := o.pruneJoinBranch(x, x.R, x.L, needed); ok {
			return o.pruneColumns(repl, algebra.SetOf(repl.Columns()))
		}
		return &algebra.Join{
			L:    o.pruneColumns(x.L, intersect(n2, lcols)),
			R:    o.pruneColumns(x.R, intersect(n2, rcols)),
			Pred: x.Pred,
		}
	case *algebra.DJoin:
		n2 := algebra.SetUnion(needed, algebra.SetOf(algebra.FreeVars(x.R)))
		return &algebra.DJoin{
			L: o.pruneColumns(x.L, intersect(n2, algebra.SetOf(x.L.Columns()))),
			R: x.R,
		}
	case *algebra.Distinct:
		return &algebra.Distinct{From: o.pruneColumns(x.From, needed)}
	case *algebra.Bind:
		if x.From == nil {
			return o.simplifyBindFilter(x, needed)
		}
		n2 := algebra.SetUnion(needed, map[string]bool{x.Col: true})
		return &algebra.Bind{From: o.pruneColumns(x.From, n2), Doc: x.Doc, Col: x.Col,
			F: x.F}
	case *algebra.TreeOp:
		return &algebra.TreeOp{From: o.pruneColumns(x.From, algebra.SetOf(x.C.AllVars())), C: x.C, OutCol: x.OutCol}
	default:
		return rebuildChildren(op, func(c algebra.Op) algebra.Op {
			return o.pruneColumns(c, algebra.SetOf(c.Columns()))
		})
	}
}

// pruneJoinBranch eliminates the drop side of a join (Figure 8's source
// pruning) when (i) a containment assumption declares the join lossless for
// the kept side — e.g. "all artifacts are available in the XML source" —
// and (ii) every needed column coming from the dropped side can be sourced
// from the kept side through a join equality ($t from $t'). The replacement
// is a Project over the kept side carrying those renames.
func (o *Optimizer) pruneJoinBranch(j *algebra.Join, drop, keep algebra.Op, needed map[string]bool) (algebra.Op, bool) {
	a := o.assumed(drop, keep)
	if a == nil {
		return nil, false
	}
	// Every selection inside the dropped branch must be absorbed by the
	// assumption; otherwise dropping it would un-filter the result.
	absorbed := map[string]bool{}
	for _, p := range a.Modulo {
		absorbed[p] = true
	}
	sound := true
	algebra.Walk(drop, func(n algebra.Op) bool {
		if s, ok := n.(*algebra.Select); ok {
			for _, c := range algebra.SplitConj(s.Pred) {
				if !absorbed[c.String()] {
					sound = false
				}
			}
		}
		return sound
	})
	if !sound {
		return nil, false
	}
	dropCols, keepCols := algebra.SetOf(drop.Columns()), algebra.SetOf(keep.Columns())
	// Equalities usable for substitution.
	eqMap := map[string]string{}
	for _, c := range algebra.SplitConj(j.Pred) {
		if a, b, ok := algebra.EqColumns(c); ok {
			if dropCols[a] && keepCols[b] {
				eqMap[a] = b
			}
			if dropCols[b] && keepCols[a] {
				eqMap[b] = a
			}
		}
	}
	var cols []string
	for c := range needed {
		switch {
		case keepCols[c]:
			cols = append(cols, c)
		case dropCols[c]:
			src, ok := eqMap[c]
			if !ok {
				return nil, false
			}
			cols = append(cols, tab.Rename(c, src))
		}
	}
	sort.Strings(cols)
	o.trace("pruned join branch under containment assumption: kept %v", cols)
	o.pruned = true
	return &algebra.Project{From: keep, Cols: cols}, true
}

// assumed returns the containment assumption covering dropping the drop
// side while keeping keep, or nil.
func (o *Optimizer) assumed(drop, keep algebra.Op) *Containment {
	dropDocs, keepDocs := algebra.Docs(drop), algebra.Docs(keep)
	for i := range o.opts.Assume {
		a := &o.opts.Assume[i]
		for _, dd := range dropDocs {
			if dd != a.Drop {
				continue
			}
			for _, kd := range keepDocs {
				if kd == a.Keep {
					return a
				}
			}
		}
	}
	return nil
}

func intersect(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Type-driven filter simplification (Figure 7, lower middle and right)
// ---------------------------------------------------------------------------

// simplifyBindFilter uses the structural type of a document (when known) to
// simplify a leaf Bind: items binding only unneeded variables are dropped
// when the type guarantees their presence (structured queries over
// semistructured data — the projection rewriting of Figure 7).
func (o *Optimizer) simplifyBindFilter(b *algebra.Bind, needed map[string]bool) algebra.Op {
	st, ok := o.opts.Structures.Doc(b.Doc)
	if !ok {
		return b
	}
	root := b.F.Root.Clone()
	simplifyNode(root, st.Model, st.Model.Lookup(st.Pattern), needed)
	return &algebra.Bind{Doc: b.Doc, Col: b.Col, F: filter.New(root).WithModel(b.F.Model)}
}

// simplifyNode drops child items whose variables are all unneeded and whose
// presence is mandatory under the pattern.
func simplifyNode(fn *filter.FNode, m *pattern.Model, p *pattern.P, needed map[string]bool) {
	p = resolve(m, p)
	if p == nil || fn == nil {
		return
	}
	var kept []filter.FItem
	for _, it := range fn.Items {
		if it.CollectVar != "" || it.Descend || it.F == nil {
			kept = append(kept, it)
			continue
		}
		anyNeeded := false
		for _, v := range it.F.VarsBelow() {
			if needed[v] {
				anyNeeded = true
				break
			}
		}
		if !anyNeeded && !it.F.HasConstraints() && mandatoryChild(m, p, it.F.Label) != nil {
			continue // mandatory, unbound, unconstrained: drop
		}
		if sub := childPattern(m, p, it.F.Label); sub != nil {
			simplifyNode(it.F, m, sub, needed)
		}
		kept = append(kept, it)
	}
	fn.Items = kept
}

func resolve(m *pattern.Model, p *pattern.P) *pattern.P {
	for p != nil && p.Kind == pattern.KRef {
		p = m.Lookup(p.Name)
	}
	return p
}

// mandatoryChild returns the pattern of a non-starred (mandatory) child
// with the given label, or nil when the child is optional or unknown.
func mandatoryChild(m *pattern.Model, p *pattern.P, label string) *pattern.P {
	p = resolve(m, p)
	if p == nil {
		return nil
	}
	if p.Kind == pattern.KUnion {
		return nil // optional under some alternative: keep
	}
	if p.Kind != pattern.KNode {
		return nil
	}
	for _, it := range p.Items {
		sub := resolve(m, it.P)
		if sub != nil && sub.Kind == pattern.KNode && !sub.AnyLabel && sub.Label == label {
			if it.Star {
				return nil // repetition: occurrence not guaranteed
			}
			return sub
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Label-variable expansion (Figure 7, lower right)
// ---------------------------------------------------------------------------

// expandLabelVars rewrites a Bind whose filter uses a label variable over a
// document with precise type information into a union of Binds with
// concrete labels plus a Map computing the label constant — after which
// each branch can be pushed to a structured source such as O₂.
func (o *Optimizer) expandLabelVars(op algebra.Op) algebra.Op {
	op = rebuildChildren(op, o.expandLabelVars)
	b, ok := op.(*algebra.Bind)
	if !ok || b.Doc == "" {
		return op
	}
	st, stOK := o.opts.Structures.Doc(b.Doc)
	if !stOK {
		return op
	}
	site, labels := findLabelVarSite(b.F.Root, st.Model, st.Model.Lookup(st.Pattern))
	if site == nil || len(labels) == 0 {
		return op
	}
	var cur algebra.Op
	for _, label := range labels {
		root := b.F.Root.Clone()
		target := findEquivalent(root, b.F.Root, site)
		lv := target.LabelVar
		target.LabelVar = ""
		target.Label = label
		// A concrete attribute occurs once: the expanded item is no longer
		// a multiple-occurrence position.
		clearStar(root, target)
		branch := algebra.Op(&algebra.Bind{Doc: b.Doc, Col: b.Col,
			F: filter.New(root).WithModel(b.F.Model)})
		branch = &algebra.MapExpr{From: branch, Col: lv,
			E: algebra.Const{Atom: data.String(label)}}
		branch = &algebra.Project{From: branch, Cols: b.F.Vars()}
		if cur == nil {
			cur = branch
		} else {
			cur = &algebra.Union{L: cur, R: branch}
		}
	}
	return cur
}

// findLabelVarSite locates a filter node with a label variable whose
// position in the type pattern enumerates concrete labels (tuple fields).
func findLabelVarSite(fn *filter.FNode, m *pattern.Model, p *pattern.P) (*filter.FNode, []string) {
	p = resolve(m, p)
	if fn == nil || p == nil {
		return nil, nil
	}
	if p.Kind == pattern.KUnion {
		for _, a := range p.Alts {
			if site, labels := findLabelVarSite(fn, m, a); site != nil {
				return site, labels
			}
		}
		return nil, nil
	}
	if p.Kind != pattern.KNode {
		return nil, nil
	}
	for i := range fn.Items {
		it := &fn.Items[i]
		if it.F == nil {
			continue
		}
		if it.F.LabelVar != "" {
			// enumerate the labels of the pattern's children
			var labels []string
			for _, pit := range p.Items {
				sub := resolve(m, pit.P)
				if sub != nil && sub.Kind == pattern.KNode && !sub.AnyLabel && sub.Label != "" {
					labels = append(labels, sub.Label)
				}
			}
			if len(labels) > 0 {
				return it.F, labels
			}
			return nil, nil
		}
		// descend along the matching child; when the filter has an extra
		// wrapping level (the extent set around class patterns), re-align by
		// matching the child against the pattern root itself
		if sub := childPattern(m, p, it.F.Label); sub != nil {
			if site, labels := findLabelVarSite(it.F, m, sub); site != nil {
				return site, labels
			}
		} else if it.F.Label == p.Label || it.F.Label != "" && p.Label == "" {
			if site, labels := findLabelVarSite(it.F, m, p); site != nil {
				return site, labels
			}
		}
	}
	// The filter may wrap the pattern in extra levels (set of classes):
	// retry each filter child against the same pattern.
	for i := range fn.Items {
		if f := fn.Items[i].F; f != nil && f.Label != p.Label && f.LabelVar == "" {
			if site, labels := findLabelVarSite(f, m, p); site != nil {
				return site, labels
			}
		}
	}
	return nil, nil
}

func childPattern(m *pattern.Model, p *pattern.P, label string) *pattern.P {
	p = resolve(m, p)
	if p == nil || p.Kind != pattern.KNode {
		return nil
	}
	for _, it := range p.Items {
		sub := resolve(m, it.P)
		if sub != nil && sub.Kind == pattern.KNode && sub.Label == label {
			return sub
		}
	}
	return nil
}

// clearStar drops the star flag on the item holding target.
func clearStar(root *filter.FNode, target *filter.FNode) {
	for i := range root.Items {
		if root.Items[i].F == target {
			root.Items[i].Star = false
			return
		}
		if root.Items[i].F != nil {
			clearStar(root.Items[i].F, target)
		}
	}
}

// findEquivalent finds in the cloned tree the node at the same position as
// target is in orig.
func findEquivalent(clone, orig *filter.FNode, target *filter.FNode) *filter.FNode {
	if orig == target {
		return clone
	}
	for i := range orig.Items {
		if orig.Items[i].F == nil {
			continue
		}
		if got := findEquivalent(clone.Items[i].F, orig.Items[i].F, target); got != nil {
			return got
		}
	}
	return nil
}

// renameExpr rewrites an expression's variables through a rename map; it
// reports false when a variable has no image (the conjunct cannot cross
// the projection).
func renameExpr(e algebra.Expr, toSrc map[string]string) (algebra.Expr, bool) {
	switch x := e.(type) {
	case algebra.Var:
		src, ok := toSrc[x.Name]
		if !ok {
			return nil, false
		}
		return algebra.Var{Name: src}, true
	case algebra.Const:
		return x, true
	case algebra.Cmp:
		l, ok1 := renameExpr(x.L, toSrc)
		r, ok2 := renameExpr(x.R, toSrc)
		if !ok1 || !ok2 {
			return nil, false
		}
		return algebra.Cmp{Op: x.Op, L: l, R: r}, true
	case algebra.And:
		l, ok1 := renameExpr(x.L, toSrc)
		r, ok2 := renameExpr(x.R, toSrc)
		if !ok1 || !ok2 {
			return nil, false
		}
		return algebra.And{L: l, R: r}, true
	case algebra.Or:
		l, ok1 := renameExpr(x.L, toSrc)
		r, ok2 := renameExpr(x.R, toSrc)
		if !ok1 || !ok2 {
			return nil, false
		}
		return algebra.Or{L: l, R: r}, true
	case algebra.Not:
		inner, ok := renameExpr(x.E, toSrc)
		if !ok {
			return nil, false
		}
		return algebra.Not{E: inner}, true
	case algebra.Arith:
		l, ok1 := renameExpr(x.L, toSrc)
		r, ok2 := renameExpr(x.R, toSrc)
		if !ok1 || !ok2 {
			return nil, false
		}
		return algebra.Arith{Op: x.Op, L: l, R: r}, true
	case algebra.Call:
		args := make([]algebra.Expr, len(x.Args))
		for i, a := range x.Args {
			r, ok := renameExpr(a, toSrc)
			if !ok {
				return nil, false
			}
			args[i] = r
		}
		return algebra.Call{Name: x.Name, Args: args}, true
	default:
		return nil, false
	}
}
