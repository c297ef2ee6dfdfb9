package optimizer

// Typed rewrite verification: under Options.CheckInvariants the one analysis
// of the input plan (typecheck.Check) fixes its root row type as the
// baseline, and the analysis of each round's output types it against that
// baseline. A round must keep each root column's inferred type subsumed by
// the original's — a rewrite that changes what a column can contain is a
// miscompile even when the plan stays well-formed, and is reported as a
// *TypeError naming the stage and the deepest operator that introduced the
// offending type. A round whose result is provably empty is exempt (every
// per-column claim is vacuous). One step is licensed by something the types
// cannot see: source pruning under a declared Containment (Figure 8) sources
// a dropped branch's columns from the kept document — $t, a String in O₂,
// from the semistructured works' title — which is sound because the
// assumption says so, not because the types do. Round 1 therefore verifies
// the plan such a prune was given against the baseline it started under, and
// the round's own plan then becomes the baseline the rest of the
// optimization is held to.

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/pattern"
	"repro/internal/typecheck"
)

// TypeError reports a round that changed the plan's inferred type:
// column Col's type under the rewritten plan (Got) is not subsumed by its
// type under the original plan (Want). Path locates the deepest operator of
// the rewritten plan whose inferred type for Col already violates the
// subsumption, as a typecheck.Diagnostic's path does.
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

// verifyTypes asserts the analyzed plan's root type is subsumed per column
// by the baseline's; called from verify on a plan without diagnostics.
func (o *Optimizer) verifyTypes(stage string, plan algebra.Op, ann *typecheck.Annotation) {
	if o.base.Empty || ann.Root.Empty {
		// A provably-empty plan makes every per-column claim vacuous.
		return
	}
	for _, col := range ann.Root.Cols {
		want := o.base.Type(col)
		got := ann.Root.Type(col)
		if want == nil || got == nil {
			// Unknown on either side: nothing provable. Losing inferable
			// precision is not a type change; only a provable one is.
			continue
		}
		if !pattern.Subsumes(ann.Model, want, ann.Model, got) {
			path := ann.Root.Path
			if rt := blame(plan, ann, col, want); rt != nil {
				path = rt.Path
			}
			o.err = &TypeError{Stage: stage, Path: path, Col: col, Want: want, Got: got}
			o.trace("TYPE CHANGED after %s: column %s at %s: %s not subsumed by %s",
				stage, col, path, got, want)
			return
		}
	}
}

// blame returns the row type of the deepest operator whose inferred type
// for col already violates the subsumption against want (nil if none does).
func blame(op algebra.Op, ann *typecheck.Annotation, col string, want *pattern.P) *typecheck.RowType {
	if op == nil {
		return nil
	}
	for _, ch := range op.Children() {
		if rt := blame(ch, ann, col, want); rt != nil {
			return rt
		}
	}
	if rt := ann.Types[op]; rt != nil && !rt.Empty {
		if got := rt.Type(col); got != nil && !pattern.Subsumes(ann.Model, want, ann.Model, got) {
			return rt
		}
	}
	return nil
}
