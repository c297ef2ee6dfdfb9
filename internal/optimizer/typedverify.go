package optimizer

// Typed rewrite verification: under Options.CheckInvariants the optimizer
// infers the input plan's root row type once (typecheck.Infer) and
// re-infers it on the output of each round. A round must keep each root
// column's inferred type subsumed by the original's — a rewrite that
// changes what a column can contain is a miscompile even when the plan
// stays well-formed, and is reported as a *TypeError naming the stage and
// the deepest operator that introduced the offending type. A round whose
// result is provably empty is exempt (every per-column claim is vacuous).
// One step is licensed by something the types cannot see: source pruning
// under a declared Containment (Figure 8) sources a dropped branch's
// columns from the kept document — $t, a String in O₂, from the
// semistructured works' title — which is sound because the assumption says
// so, not because the types do. Round 1 therefore verifies the plan such a
// prune was given against the baseline it started under, and only then
// makes the pruned plan's root type the baseline the rest of the
// optimization is held to.

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/pattern"
	"repro/internal/planlint"
	"repro/internal/typecheck"
)

// TypeError reports a round that changed the plan's inferred type:
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

// captureRootType records the plan's inferred root type as the baseline
// the following rounds are verified against.
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
// by the baseline's; called from verify after the well-formedness lint.
func (o *Optimizer) verifyTypes(stage string, plan algebra.Op) {
	if o.origType == nil || o.origType.Empty || o.err != nil {
		return
	}
	ann, err := typecheck.Infer(plan, o.tcfg)
	if err != nil || ann.Root.Empty {
		// A provably-empty result makes every per-column claim vacuous.
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
// notation (operator kinds joined by '/', with L/R side markers).
func blamePath(plan algebra.Op, ann *typecheck.Annotation, col string, want *pattern.P) string {
	var walk func(op algebra.Op, path string) (string, bool)
	walk = func(op algebra.Op, path string) (string, bool) {
		if op == nil {
			return "", false
		}
		path = planlint.Extend(path, algebra.OpKind(op))
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
	return algebra.OpKind(plan)
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
