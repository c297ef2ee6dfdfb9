package optimizer

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/tab"
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

// Options configure the optimizer. Every plan goes through all three
// rounds; what a round can do is bounded by what the options declare:
// without interfaces nothing is pushed, so round 3 finds no source query to
// pass information to, and without structures or assumptions round 1 only
// composes views and moves selections and projections.
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
	// CheckInvariants analyzes the input and the output of each round once
	// with typecheck.Check; the first violation — named by its stage
	// ("input", "round1", "round2", "round3") and located by its plan path —
	// is reported through Trace and returned by Optimize. A round that
	// unbinds a variable, breaks Skolem arity or pushes an infeasible
	// subplan is caught before execution, not as a wrong answer. The same
	// analysis types each round against the input plan: a round whose root
	// row type is no longer subsumed by the original's is reported as a
	// *TypeError (see typedverify.go).
	CheckInvariants bool
	// Trace receives one line per applied rewriting when non-nil.
	Trace func(string)
}

// InvariantError reports a broken plan invariant: Stage names the plan that
// failed ("input" or the round that produced it, "round2"), Diags the
// violations, each located by its plan path.
type InvariantError struct {
	Stage string
	Diags []typecheck.Diagnostic
}

// Error implements error.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("optimizer: invariant broken after %s: %v", e.Stage, typecheck.Error(e.Diags))
}

// Optimizer rewrites algebraic plans.
type Optimizer struct {
	opts   Options
	fresh  *freshVars
	err    error // first invariant violation (CheckInvariants only)
	cfg    *typecheck.Config
	base   *typecheck.RowType // root type each round is verified against (typedverify.go)
	pruned bool               // pruneColumns dropped a branch under a Containment
}

// New returns an optimizer over the given options. What verification
// consults is the options' own maps: nothing is copied or rebuilt per plan.
func New(opts Options) *Optimizer {
	return &Optimizer{
		opts: opts,
		cfg:  &typecheck.Config{Interfaces: opts.Interfaces, SourceDocs: opts.SourceDocs, Structures: opts.Structures},
	}
}

func (o *Optimizer) trace(format string, args ...any) {
	if o.opts.Trace != nil {
		o.opts.Trace(fmt.Sprintf(format, args...))
	}
}

// Optimize runs the three rewriting rounds of Section 6 and returns the
// rewritten plan. The input plan is not mutated. The error is the first
// invariant violation as an *InvariantError, always nil unless
// Options.CheckInvariants is set; the returned plan is the full rewriting
// result either way.
func (o *Optimizer) Optimize(plan algebra.Op) (algebra.Op, error) {
	rounds, err := o.Rounds(plan)
	return rounds[len(rounds)-1], err
}

// Rounds optimizes like Optimize and returns the plan after each of the
// three rounds, in order: composition simplification, capability-based
// pushdown, information passing. Each is verified as Optimize verifies it.
func (o *Optimizer) Rounds(plan algebra.Op) ([]algebra.Op, error) {
	o.fresh = newFreshVars(plan)
	o.err = nil
	o.base = nil
	o.verify("input", plan)
	rounds := make([]algebra.Op, 0, 3)
	for i, round := range []func(algebra.Op) algebra.Op{o.round1, o.round2, o.round3} {
		plan = round(plan)
		o.verify(fmt.Sprintf("round%d", i+1), plan)
		rounds = append(rounds, plan)
	}
	return rounds, o.err
}

// verify analyzes a plan once, recording the first violation under stage:
// a diagnostic, or a root type the baseline does not subsume. With no
// baseline yet, the plan's root type becomes it.
func (o *Optimizer) verify(stage string, plan algebra.Op) {
	if !o.opts.CheckInvariants || o.err != nil {
		return
	}
	ann, ds := typecheck.Check(plan, o.cfg)
	switch {
	case len(ds) > 0:
		o.err = &InvariantError{Stage: stage, Diags: ds}
		o.trace("INVARIANT BROKEN after %s:\n%v", stage, typecheck.Error(ds))
	case o.base == nil:
		o.base = ann.Root
	default:
		o.verifyTypes(stage, plan, ann)
	}
}

// round1 simplifies compositions: Bind–Tree elimination, selection
// pushdown, projection pruning with source elimination, type-driven filter
// simplification and label-variable expansion, iterated to a fixpoint.
func (o *Optimizer) round1(plan algebra.Op) algebra.Op {
	prev := ""
	for iter := 0; iter < 6; iter++ {
		plan = o.eliminateCompositions(plan)
		plan = pushSelections(plan)
		given := plan
		o.pruned = false
		plan = o.pruneColumns(plan, algebra.SetOf(plan.Columns()))
		if o.pruned {
			// The assumption, not the types, licenses the prune
			// (typedverify.go): hold what pruneColumns was given to the
			// old baseline; the round's plan sets the new one.
			o.verify("round1", given)
			o.base = nil
		}
		plan = o.expandLabelVars(plan)
		plan = pushSelections(plan)
		plan = simplifyProjects(plan)
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
	if out, ok := EliminateBindTree(b, t, o.fresh.fresh); ok {
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
			name, src := tab.SplitRename(c)
			innerSrc[name] = src
		}
		cols := make([]string, len(p.Cols))
		for i, c := range p.Cols {
			name, src := tab.SplitRename(c)
			if deep, ok := innerSrc[src]; ok {
				src = deep
			}
			if name == src {
				cols[i] = name
			} else {
				cols[i] = tab.Rename(name, src)
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
