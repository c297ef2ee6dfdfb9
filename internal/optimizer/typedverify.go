package optimizer

// Typed rewrite verification: under Options.CheckInvariants the optimizer
// infers the plan's root row type once on the input (typecheck.Infer) and
// re-infers it after every rewriting step. A rewrite must keep each root
// column's inferred type subsumed by the original's — a rewrite that
// changes what a column can contain is a miscompile even when the plan
// stays well-formed, and is reported as a *TypeError naming the stage and
// the deepest operator that introduced the offending type. A step whose
// result is provably empty is exempt (every per-column claim is vacuous),
// which is exactly what makes dead-branch pruning type-sound. One step is
// licensed by something the types cannot see: source pruning under a declared
// Containment (Figure 8) sources a dropped branch's columns from the kept
// document — $t, a String in O₂, from the semistructured works' title — which
// is sound because the assumption says so, not because the types do. After
// such a prune, and only then, the pruned plan's root type becomes the
// baseline the remaining steps are held to.

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/pattern"
	"repro/internal/planlint"
	"repro/internal/tab"
	"repro/internal/typecheck"
)

// TypeError reports a rewriting step that changed the plan's inferred type:
// column Col's type under the rewritten plan (Got) is not subsumed by its
// type under the original plan (Want). Path locates the deepest operator of
// the rewritten plan whose inferred type for Col already violates the
// subsumption, in planlint's path notation.
type TypeError struct {
	Stage string
	Path  string
	Col   string
	Want  *pattern.P
	Got   *pattern.P
}

// Error implements error.
func (e *TypeError) Error() string {
	return fmt.Sprintf("optimizer: type changed after %s: column %s at %s has inferred type %s, not subsumed by the original %s",
		e.Stage, e.Col, e.Path, renderPat(e.Got), renderPat(e.Want))
}

func renderPat(p *pattern.P) string {
	if p == nil {
		return "Any"
	}
	return p.String()
}

// captureRootType records the input plan's inferred root type as the
// baseline every rewriting step is verified against.
func (o *Optimizer) captureRootType(plan algebra.Op) {
	o.origType = nil
	if !o.opts.CheckInvariants {
		return
	}
	if ann, err := typecheck.Infer(plan, o.tcfg); err == nil {
		o.origType = ann.Root
	}
}

// verifyTypes asserts the rewritten plan's root type is subsumed per column
// by the original's; called from verify after the well-formedness lint.
func (o *Optimizer) verifyTypes(stage string, plan algebra.Op) {
	if o.pruned {
		o.pruned = false
		o.captureRootType(plan)
		return
	}
	if o.origType == nil || o.origType.Empty || o.err != nil {
		return
	}
	ann, err := typecheck.Infer(plan, o.tcfg)
	if err != nil || ann.Root.Empty {
		// A provably-empty result makes every per-column claim vacuous
		// (dead-branch pruning legitimately lands here).
		return
	}
	for _, col := range ann.Root.Cols {
		want := o.origType.Type(col)
		got := ann.Root.Type(col)
		if want == nil || got == nil {
			// Unknown on either side: nothing provable. Losing inferable
			// precision is not a type change; only a provable one is.
			continue
		}
		if !pattern.Subsumes(ann.Model, want, ann.Model, got) {
			path := blamePath(plan, ann, col, want)
			o.err = &TypeError{Stage: stage, Path: path, Col: col, Want: want, Got: got}
			o.trace("TYPE CHANGED after %s: column %s at %s: %s not subsumed by %s",
				stage, col, path, got, want)
			return
		}
	}
}

// blamePath locates the deepest operator whose inferred type for col
// already violates the subsumption against want, in planlint's path
// notation (operator short names joined by '/', with L/R side markers).
func blamePath(plan algebra.Op, ann *typecheck.Annotation, col string, want *pattern.P) string {
	var walk func(op algebra.Op, path string) (string, bool)
	walk = func(op algebra.Op, path string) (string, bool) {
		if op == nil {
			return "", false
		}
		path = planlint.Extend(path, planlint.OpName(op))
		for i, ch := range op.Children() {
			p := path
			if seg := childSeg(op, i); seg != "" {
				p = planlint.Extend(path, seg)
			}
			if bp, ok := walk(ch, p); ok {
				return bp, ok
			}
		}
		if rt := ann.Types[op]; rt != nil && !rt.Empty {
			if got := rt.Type(col); got != nil && !pattern.Subsumes(ann.Model, want, ann.Model, got) {
				return path, true
			}
		}
		return "", false
	}
	if bp, ok := walk(plan, ""); ok {
		return bp
	}
	return planlint.OpName(plan)
}

// childSeg returns the path segment marking which side of a binary operator
// a child sits on (empty for unary operators, matching planlint).
func childSeg(op algebra.Op, i int) string {
	// yat-lint:ignore intentionally partial: only binary operators need side markers
	switch op.(type) {
	case *algebra.Join, *algebra.DJoin, *algebra.Union, *algebra.Intersect:
		return []string{"L", "R"}[i]
	}
	return ""
}

// pruneDeadBranches eliminates operators the type inference proves dead
// (Options.PruneDeadBranches, round 1): a Union branch whose type is empty
// is dropped — renaming the surviving right branch to the left's column
// names Union would have output — and a Join/DJoin with a provably-empty
// side collapses to an empty literal, letting projection pruning eliminate
// the other side's source access too.
func (o *Optimizer) pruneDeadBranches(plan algebra.Op) algebra.Op {
	ann, err := typecheck.Infer(plan, o.tcfg)
	if err != nil {
		return plan
	}
	empty := func(op algebra.Op) bool {
		rt := ann.Types[op]
		return rt != nil && rt.Empty
	}
	var rw func(op algebra.Op) algebra.Op
	rw = func(op algebra.Op) algebra.Op {
		// Decide on the original operators: the annotation is keyed by the
		// pre-rewrite pointers, so inspect before rebuilding.
		// yat-lint:ignore intentionally partial: only set-combining operators have a prunable side
		switch x := op.(type) {
		case *algebra.Union:
			le, re := empty(x.L), empty(x.R)
			switch {
			case re && !le:
				o.trace("pruned provably-empty right branch of Union")
				return rw(x.L)
			case le && !re:
				lc, rc := x.L.Columns(), x.R.Columns()
				if len(lc) != len(rc) {
					break // malformed union; the lint reports it
				}
				// Union outputs the left column names; keep them by renaming.
				cols := make([]string, len(lc))
				for i := range lc {
					if lc[i] == rc[i] {
						cols[i] = lc[i]
					} else {
						cols[i] = lc[i] + "=" + rc[i]
					}
				}
				o.trace("pruned provably-empty left branch of Union")
				return &algebra.Project{From: rw(x.R), Cols: cols}
			}
		case *algebra.Join:
			if empty(x.L) || empty(x.R) {
				o.trace("collapsed Join with provably-empty side to an empty literal")
				return &algebra.Literal{T: tab.New(x.Columns()...)}
			}
		case *algebra.DJoin:
			if empty(x.L) || empty(x.R) {
				o.trace("collapsed DJoin with provably-empty side to an empty literal")
				return &algebra.Literal{T: tab.New(x.Columns()...)}
			}
		}
		return rebuildChildren(op, rw)
	}
	return rw(plan)
}
