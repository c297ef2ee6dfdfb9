package optimizer

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/planlint"
	"repro/internal/typecheck"
)

// Containment is a declared assumption letting the optimizer prune a join
// branch (Figure 8's "because all artifacts are available in the XML
// source"): joining Keep with the Drop branch loses no Keep rows, so when
// no column of Drop is needed the Drop branch can be eliminated. Modulo
// lists the selection conjuncts (in their printed form) that the assumption
// absorbs — for the cultural view, "$y > 1800", because every catalogued
// work corresponds to a post-1800 artifact. A branch carrying any other
// selection (e.g. a predicate pushed down from the user query) is never
// pruned: the assumption says nothing about it.
type Containment struct {
	Drop   string   // document whose branch may be eliminated
	Keep   string   // document whose rows are preserved by the join
	Modulo []string // selection conjuncts the assumption absorbs
}

// Options configure the optimizer. Zero-value options yield a conservative
// optimizer that only performs composition simplification and pushdown of
// selections/projections.
type Options struct {
	// Interfaces maps source names to their capability interfaces.
	Interfaces map[string]*capability.Interface
	// SourceDocs maps document names to the source exporting them.
	SourceDocs map[string]string
	// Structures holds the documents' structural types, used by type-driven
	// rewritings (Figure 7, lower middle/right).
	Structures *typecheck.Schemas
	// Assume lists containment assumptions enabling source pruning.
	Assume []Containment
	// InfoPassing enables round 3 (Join → DJoin with parameter passing).
	InfoPassing bool
	// DisablePushdown skips capability-based pushdown (round 2): the
	// ablation switch of EXPERIMENTS.md's E13.
	DisablePushdown bool
	// PruneDeadBranches lets round 1 eliminate operators the type inference
	// proves dead under the declared Structures: a Union branch with a
	// provably-empty type is dropped, a Join/DJoin with a provably-empty
	// side collapses to an empty literal. Off by default — it changes plan
	// shape based on schema claims, so callers opt in.
	PruneDeadBranches bool
	// CheckInvariants verifies plan well-formedness with planlint after
	// every rewriting step of every round; the first violation — named by
	// the round and rule that introduced it — is reported through Trace and
	// returned by OptimizeChecked. A rewrite that unbinds a variable,
	// breaks Skolem arity or pushes an infeasible subplan is caught at the
	// step that did it, not as a wrong answer at execution time. The same
	// gate verifies every step against the input plan's inferred type: a
	// rewrite whose root row type is no longer subsumed by the original's
	// is reported as a *TypeError (see typedverify.go).
	CheckInvariants bool
	// Trace receives one line per applied rewriting when non-nil.
	Trace func(string)
}

// InvariantError reports a plan invariant broken by a rewriting step: Stage
// names the round and rule ("round2/wrapSources"), Diags the violations.
type InvariantError struct {
	Stage string
	Diags []planlint.Diagnostic
}

// Error implements error.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("optimizer: invariant broken after %s: %v", e.Stage, planlint.Error(e.Diags))
}

// Optimizer rewrites algebraic plans.
type Optimizer struct {
	opts     Options
	fresh    *freshVars
	err      error // first invariant violation (CheckInvariants only)
	tcfg     *typecheck.Config
	lcfg     *planlint.Config
	origType *typecheck.RowType // root type every step is verified against (typedverify.go)
	pruned   bool               // pruneColumns dropped a branch under a Containment since the last verify
}

// New returns an optimizer over the given options. What verification
// consults is the options' own maps: nothing is copied or rebuilt per plan.
func New(opts Options) *Optimizer {
	return &Optimizer{
		opts: opts,
		tcfg: &typecheck.Config{Structures: opts.Structures},
		lcfg: &planlint.Config{Interfaces: opts.Interfaces, SourceDocs: opts.SourceDocs, Structures: opts.Structures},
	}
}

func (o *Optimizer) trace(format string, args ...any) {
	if o.opts.Trace != nil {
		o.opts.Trace(fmt.Sprintf(format, args...))
	}
}

// Optimize runs the three rewriting rounds of Section 6 and returns the
// rewritten plan. The input plan is not mutated. With CheckInvariants set,
// violations are reported through Trace only; use OptimizeChecked to also
// receive them as an error.
func (o *Optimizer) Optimize(plan algebra.Op) algebra.Op {
	out, _ := o.optimize(plan)
	return out
}

// OptimizeChecked optimizes like Optimize and returns the first invariant
// violation as an *InvariantError (always nil unless Options.CheckInvariants
// is set). The returned plan is the full rewriting result either way.
func (o *Optimizer) OptimizeChecked(plan algebra.Op) (algebra.Op, error) {
	return o.optimize(plan)
}

func (o *Optimizer) optimize(plan algebra.Op) (algebra.Op, error) {
	o.fresh = newFreshVars(plan)
	o.err, o.pruned = nil, false
	o.captureRootType(plan)
	o.verify("input", plan)
	out := o.round1(plan)
	if !o.opts.DisablePushdown {
		out = o.round2(out)
	}
	if o.opts.InfoPassing {
		out = o.round3(out)
		o.verify("round3/infoPassing", out)
	}
	return out, o.err
}

// verify checks the plan after one rewriting step and records the first
// violation, naming the stage (round and rule) that introduced it. Verifying
// after every step — not only at round boundaries — pins a miscompile to the
// exact rule.
func (o *Optimizer) verify(stage string, plan algebra.Op) {
	if !o.opts.CheckInvariants || o.err != nil {
		return
	}
	if ds := planlint.Check(plan, o.lcfg); len(ds) > 0 {
		o.err = &InvariantError{Stage: stage, Diags: ds}
		o.trace("INVARIANT BROKEN after %s:\n%v", stage, planlint.Error(ds))
		return
	}
	o.verifyTypes(stage, plan)
}

// round1 simplifies compositions: Bind–Tree elimination, selection
// pushdown, projection pruning with source elimination, type-driven filter
// simplification and label-variable expansion, iterated to a fixpoint.
func (o *Optimizer) round1(plan algebra.Op) algebra.Op {
	prev := ""
	for iter := 0; iter < 6; iter++ {
		plan = o.eliminateCompositions(plan)
		o.verify("round1/eliminateCompositions", plan)
		plan = pushSelections(plan)
		o.verify("round1/pushSelections", plan)
		plan = o.pruneColumns(plan, colSet(plan.Columns()))
		o.verify("round1/pruneColumns", plan)
		if o.opts.PruneDeadBranches {
			plan = o.pruneDeadBranches(plan)
			o.verify("round1/pruneDeadBranches", plan)
		}
		plan = o.expandLabelVars(plan)
		o.verify("round1/expandLabelVars", plan)
		plan = pushSelections(plan)
		o.verify("round1/pushSelections", plan)
		plan = simplifyProjects(plan)
		o.verify("round1/simplifyProjects", plan)
		cur := algebra.Describe(plan)
		if cur == prev {
			break
		}
		prev = cur
		o.trace("round1 iteration %d:\n%s", iter+1, cur)
	}
	return plan
}

// eliminateCompositions applies the Bind–Tree equivalence wherever a Bind
// reads the output column of a Tree operator (view composition, Figure 8).
func (o *Optimizer) eliminateCompositions(op algebra.Op) algebra.Op {
	op = rebuildChildren(op, o.eliminateCompositions)
	b, ok := op.(*algebra.Bind)
	if !ok || b.From == nil {
		return op
	}
	t, ok := b.From.(*algebra.TreeOp)
	if !ok {
		return op
	}
	if out, ok := EliminateBindTree(b, t); ok {
		o.trace("eliminated Bind–Tree composition over %s", t.Detail())
		return out
	}
	return op
}

// simplifyProjects removes identity projections and collapses stacked ones.
func simplifyProjects(op algebra.Op) algebra.Op {
	op = rebuildChildren(op, simplifyProjects)
	p, ok := op.(*algebra.Project)
	if !ok {
		return op
	}
	if inner, ok := p.From.(*algebra.Project); ok {
		// compose the rename maps
		innerSrc := map[string]string{}
		for _, c := range inner.Cols {
			name, src := c, c
			if i := indexEq(c); i >= 0 {
				name, src = c[:i], c[i+1:]
			}
			innerSrc[name] = src
		}
		cols := make([]string, len(p.Cols))
		for i, c := range p.Cols {
			name, src := c, c
			if j := indexEq(c); j >= 0 {
				name, src = c[:j], c[j+1:]
			}
			if deep, ok := innerSrc[src]; ok {
				src = deep
			}
			if name == src {
				cols[i] = name
			} else {
				cols[i] = name + "=" + src
			}
		}
		return simplifyProjects(&algebra.Project{From: inner.From, Cols: cols})
	}
	from := p.From.Columns()
	if len(from) == len(p.Cols) {
		identity := true
		for i, c := range p.Cols {
			if c != from[i] {
				identity = false
				break
			}
		}
		if identity {
			return p.From
		}
	}
	return op
}
