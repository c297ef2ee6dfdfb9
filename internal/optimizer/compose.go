// Package optimizer implements the rewriting techniques of Section 5 and
// the three-round strategy of Section 6:
//
//	round 1 — composition simplification: Bind–Tree elimination (Figure 8),
//	          Bind splitting (Figure 7), selection/projection pushdown,
//	          type-driven filter simplification, source-branch pruning;
//	round 2 — capability-based pushdown: wrap maximal admissible subplans
//	          in SourceQuery nodes, applying declared equivalences such as
//	          the contains/equality connection (Section 4.2, Figure 9);
//	round 3 — information passing: turn cross-source Joins into DJoins
//	          whose right-hand side is a parameterized source query.
package optimizer

import (
	"cmp"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/filter"
	"repro/internal/tab"
)

// ---------------------------------------------------------------------------
// Bind splitting (Figure 7, lower left)
// ---------------------------------------------------------------------------

// SplitBindDoc splits a document Bind with a single starred member filter
// into an elementary document-level Bind (binding whole members to a fresh
// variable) followed by a Bind over that variable carrying the inner
// structure. This is the linear Bind-split of Figure 7; it lets the
// document-level part match restrictive capabilities such as Wais's Fworks.
func SplitBindDoc(b *algebra.Bind, fresh func() string) (*algebra.Bind, *algebra.Bind, bool) {
	root := b.F.Root
	if b.Doc == "" || root.Var != "" || root.LabelVar != "" || len(root.Items) != 1 {
		return nil, nil, false
	}
	it := root.Items[0]
	if !it.Star || it.CollectVar != "" || it.Descend || it.F == nil {
		return nil, nil, false
	}
	member := it.F
	if member.Label == "" || member.LabelVar != "" {
		return nil, nil, false
	}
	if len(member.Items) == 0 && member.Var != "" {
		return nil, nil, false // already elementary
	}
	docVar := member.Var
	if docVar == "" {
		docVar = fresh()
	}
	docFilter := &filter.FNode{Label: root.Label, Items: []filter.FItem{{
		Star: true,
		F:    &filter.FNode{Label: member.Label, Var: docVar},
	}}}
	residualRoot := member.Clone()
	residualRoot.Var = "" // bound by the document-level Bind already
	docBind := &algebra.Bind{Doc: b.Doc, From: b.From, Col: b.Col,
		F: filter.New(docFilter).WithModel(b.F.Model)}
	residual := &algebra.Bind{Col: docVar,
		F: filter.New(residualRoot).WithModel(b.F.Model)}
	return docBind, residual, true
}

// ---------------------------------------------------------------------------
// Bind–Tree elimination (Figure 8)
// ---------------------------------------------------------------------------

// composition is the outcome of matching a query filter against a view's
// construction pattern.
type composition struct {
	renames   []rename          // filter variables read from cons variables
	constCols map[string]string // fvar bound to a constant label/value
	consts    []algebra.Expr    // equality constraints on cons variables
	residuals []residualBind    // navigation into spliced variables
	empty     bool              // the filter requires structure never built
}

// rename binds the filter variable fvar to the cons variable cvar's column.
type rename struct{ fvar, cvar string }

type residualBind struct {
	consVar string
	f       *filter.FNode
}

// EliminateBindTree rewrites Bind(F) ∘ Tree(C) into a Project (with
// renaming) over the Tree's input, plus residual Binds for navigation into
// spliced variables and Selects for constants — the key equivalence of
// Section 5.2. It returns (rewritten, true) on success; the rewritten plan
// has exactly the filter's variables as columns. A filter variable named
// like a view variable the rewriting keeps as a column is not captured by
// it: the kept column takes a name from fresh instead.
func EliminateBindTree(b *algebra.Bind, t *algebra.TreeOp, fresh func() string) (algebra.Op, bool) {
	if b.From != t || b.Col != t.Columns()[0] {
		return nil, false
	}
	comp := &composition{constCols: map[string]string{}}
	if !comp.match(b.F.Root, t.C, 0) {
		return nil, false
	}
	outCols := b.F.Vars()
	if comp.empty {
		return &algebra.Literal{T: tab.New(outCols...)}, true
	}
	// Base: the view's input rows.
	var cur algebra.Op = t.From
	if len(comp.consts) > 0 {
		cur = &algebra.Select{From: cur, Pred: algebra.Conj(comp.consts...)}
	}
	// Keep only the columns the composition consumes, then deduplicate:
	// binding over the constructed tree sees one row per *group*.
	var keep []string
	seen := map[string]bool{}
	for _, r := range comp.renames {
		if !seen[r.cvar] {
			seen[r.cvar] = true
			keep = append(keep, r.cvar)
		}
	}
	for _, rb := range comp.residuals {
		if !seen[rb.consVar] {
			seen[rb.consVar] = true
			keep = append(keep, rb.consVar)
		}
	}
	srcOf := map[string]string{}
	for _, r := range comp.renames {
		srcOf[r.fvar] = r.cvar
	}
	// The residual Binds and constant Maps below add the query's variables
	// as columns beside the kept ones. A kept column named like one of those
	// variables would capture it, so it is renamed to a fresh column.
	renamed := map[string]string{} // kept column → its fresh name
	for _, fv := range outCols {
		if seen[fv] && srcOf[fv] == "" {
			renamed[fv] = fresh()
		}
	}
	colOf := func(cv string) string { return cmp.Or(renamed[cv], cv) }
	for i, cv := range keep {
		if c := renamed[cv]; c != "" {
			keep[i] = tab.Rename(c, cv)
		}
	}
	cur = &algebra.Distinct{From: &algebra.Project{From: cur, Cols: keep}}
	for _, rb := range comp.residuals {
		cur = &algebra.Bind{From: cur, Col: colOf(rb.consVar), F: filter.New(rb.f).WithModel(b.F.Model)}
	}
	// Final projection: filter variables in order, renamed from cons
	// variables or computed constants.
	var maps algebra.Op = cur
	final := make([]string, 0, len(outCols))
	for _, fv := range outCols {
		switch {
		case srcOf[fv] != "":
			final = append(final, tab.Rename(fv, colOf(srcOf[fv])))
		case comp.constCols[fv] != "":
			maps = &algebra.MapExpr{From: maps, Col: fv,
				E: algebra.Const{Atom: data.String(comp.constCols[fv])}}
			final = append(final, fv)
		default:
			// Residual binds already produce this column under its own name.
			final = append(final, fv)
		}
	}
	return &algebra.Project{From: maps, Cols: final}, true
}

// match relates a filter node with a construction node. starSeen counts the
// distinct starred construction subtrees the filter has entered on this
// branch: binding under two sibling stars would expose cross products the
// underlying rows do not contain, so composition fails there.
func (c *composition) match(fn *filter.FNode, cn *algebra.Cons, depth int) bool {
	if fn == nil || cn == nil {
		return false
	}
	if fn.Type != nil || fn.LabelVar != "" && cn.LabelVar != "" {
		return false // type filters and label-var/label-var need runtime data
	}
	if fn.Const != nil && len(fn.Items) > 0 {
		return false // the branches below would drop the items' variables
	}
	// Label discipline.
	label := cn.Label
	switch {
	case fn.LabelVar != "":
		if label == "" {
			return false
		}
		c.constCols[fn.LabelVar] = label
	case fn.AnyLabel:
		if label == "" {
			return false
		}
	case fn.Label != "":
		if cn.LabelVar != "" {
			return false
		}
		if label != fn.Label {
			c.empty = true
			return true
		}
	}
	// Constants in the construction.
	if cn.Const != nil {
		if fn.Const != nil {
			if !fn.Const.Equal(*cn.Const) {
				c.empty = true
			}
			return true
		}
		if fn.Var != "" || len(fn.Items) == 1 && varOnly(fn.Items[0].F) {
			v := fn.Var
			if v == "" {
				v = fn.Items[0].F.Var
			}
			c.constCols[v] = cn.Const.Text()
			return true
		}
		// Constant content requirement: `kind: "painting"`.
		if len(fn.Items) == 1 && fn.Items[0].F != nil &&
			fn.Items[0].F.Label == "" && fn.Items[0].F.Const != nil {
			if !fn.Items[0].F.Const.Equal(*cn.Const) {
				c.empty = true
			}
			return true
		}
		if len(fn.Items) > 0 {
			c.empty = true
		}
		return true
	}
	// Spliced variable content (more: $fields, or bare $t).
	if cn.Var != "" {
		if fn.Var != "" && cn.Label == "" {
			// bare splice bound as a whole
			c.renames = append(c.renames, rename{fn.Var, cn.Var})
			return len(fn.Items) == 0
		}
		if fn.Var != "" {
			return false // binding the constructed wrapper tree is not supported
		}
		if fn.Const != nil {
			c.consts = append(c.consts, algebra.Eq(algebra.Var{Name: cn.Var},
				algebra.Const{Atom: *fn.Const}))
			return true
		}
		switch len(fn.Items) {
		case 0:
			return true
		case 1:
			it := fn.Items[0]
			if it.CollectVar != "" || it.Descend {
				return false
			}
			if varOnly(it.F) {
				// content variable over an atomic splice: direct rename
				c.renames = append(c.renames, rename{it.F.Var, cn.Var})
				return true
			}
			c.residuals = append(c.residuals, residualBind{consVar: cn.Var, f: it.F.Clone()})
			return true
		default:
			return false
		}
	}
	if fn.Var != "" {
		return false // would need the constructed subtree itself
	}
	if fn.Const != nil {
		c.empty = true // constant leaf against a non-leaf construction
		return true
	}
	// Structural children.
	starBranch := -1
	for _, fi := range fn.Items {
		if fi.CollectVar != "" || fi.Descend {
			return false
		}
		idx, ci := findConsKid(cn, fi.F)
		if ci == nil {
			c.empty = true
			return true
		}
		_ = idx
		if ci.Star && fi.F.HasVars() {
			// At most one variable-binding filter item may iterate a starred
			// construction child per node: a second one (same star twice or a
			// sibling star) would expose cross products of group instances
			// that the underlying rows do not contain.
			if starBranch >= 0 {
				return false
			}
			starBranch = 1
		}
		if !c.match(fi.F, ci.C, depth+1) {
			return false
		}
		if c.empty {
			return true
		}
	}
	return true
}

func varOnly(f *filter.FNode) bool {
	return f != nil && f.Label == "" && !f.AnyLabel && f.LabelVar == "" &&
		f.Var != "" && f.Const == nil && f.Type == nil && len(f.Items) == 0
}

// findConsKid locates the construction child a filter item can match:
// a labeled child with the same label, any child for wildcard filters.
func findConsKid(cn *algebra.Cons, fn *filter.FNode) (int, *algebra.ConsItem) {
	for i := range cn.Kids {
		ci := &cn.Kids[i]
		kidLabel := ci.C.Label
		switch {
		case fn.Label != "":
			if kidLabel == fn.Label || ci.C.LabelVar != "" {
				return i, ci
			}
		case fn.AnyLabel || fn.LabelVar != "":
			if kidLabel != "" || ci.C.LabelVar != "" {
				return i, ci
			}
		default:
			return i, ci
		}
	}
	return -1, nil
}

// freshVars hands out collision-free variable names.
type freshVars struct {
	used map[string]bool
	n    int
}

func newFreshVars(plan algebra.Op) *freshVars {
	fv := &freshVars{used: map[string]bool{}}
	algebra.Walk(plan, func(op algebra.Op) bool {
		for _, c := range op.Columns() {
			fv.used[c] = true
		}
		return true
	})
	return fv
}

func (fv *freshVars) fresh() string {
	for {
		fv.n++
		v := fmt.Sprintf("$w%d", fv.n)
		if !fv.used[v] {
			fv.used[v] = true
			return v
		}
	}
}
