// Package planlint is a static verifier over algebraic plans: it checks the
// well-formedness invariants every plan must satisfy before execution —
// variable binding and scoping, Skolem-function arity consistency,
// pattern-instantiation compatibility of operator inputs, and capability
// feasibility of pushed subplans — and reports violations as structured
// diagnostics carrying plan-path locations.
//
// The paper's pattern type system is used "both for data description and for
// optimization"; this package is the operational counterpart for plans: the
// optimizer verifies the plan after every rewriting step (the
// Options.CheckInvariants hook in internal/optimizer), and the mediator
// verifies once more before execution, so a miscompiled rewrite is caught at
// the rewrite that introduced it rather than as a wrong answer at runtime.
package planlint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/filter"
	"repro/internal/pattern"
	"repro/internal/typecheck"
)

// Diagnostic codes.
const (
	CodeNilPlan       = "nil-plan"       // a nil operator or child
	CodeUnboundVar    = "unbound-var"    // expression references a variable no input provides
	CodeUnknownColumn = "unknown-column" // operator names a column its input lacks
	CodeDuplicateCol  = "duplicate-col"  // an operator introduces a column that already exists
	CodeArity         = "arity"          // Union/Intersect inputs with different widths
	CodeSkolemArity   = "skolem-arity"   // one Skolem function used with two arities
	CodePattern       = "pattern"        // filter incompatible with the document's declared type
	CodeCapability    = "capability"     // pushed subplan exceeds the source's interface
	CodeUnknownDoc    = "unknown-doc"    // named document no source or catalog exports
	CodeMalformed     = "malformed"      // an operator form Eval and Columns disagree on
	CodeBatchShape    = "batch-shape"    // DJoin inner plan reads parameters nothing provides

	// Warning codes: emitted only with Config.Warnings, so callers that
	// abort on any diagnostic (the optimizer's CheckInvariants gate) never
	// see them.
	CodeDJoinDegenerate = "djoin-degenerate" // DJoin inner plan has no free variables
	CodeTypeEmpty       = "type-empty"       // operator provably produces no rows (type inference)
	CodeDeadBranch      = "dead-branch"      // one side of a set-combining operator is provably empty
)

// Diagnostic is one invariant violation, located by a plan path: operator
// short names joined by '/', with 'L'/'R' marking which side of a binary
// operator was entered (e.g. "Select/Join/R/Bind").
type Diagnostic struct {
	Code string // one of the Code* constants
	Path string // plan path from the root to the offending operator
	Op   string // the offending operator's Detail() rendering
	Msg  string // human-readable explanation
}

// String renders the diagnostic on one line.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s at %s [%s]: %s", d.Code, d.Path, d.Op, d.Msg)
}

// Config carries the static knowledge the checks consult. Every field is
// optional: a nil map simply disables the checks needing it, so the verifier
// degrades gracefully when a mediator has no capability descriptions.
type Config struct {
	// Interfaces maps source names to capability interfaces; enables the
	// feasibility check of SourceQuery subplans.
	Interfaces map[string]*capability.Interface
	// SourceDocs maps document names to the source exporting them; a pushed
	// Bind over a document owned by a different source is a violation. When
	// non-nil its keys are the complete set of resolvable document names:
	// a Bind or Doc over any other document is a violation too.
	SourceDocs map[string]string
	// Structures holds the declared structural pattern of each document;
	// enables the pattern-compatibility check on document Binds.
	Structures *typecheck.Schemas
	// Params lists variables the environment provides (e.g. when checking a
	// subplan that runs under a DJoin).
	Params map[string]bool
	// Warnings enables advisory diagnostics (the CodeDJoinDegenerate class):
	// plans that will run correctly but suggest a missed rewrite. Off by
	// default so invariant gates that abort on any diagnostic stay strict.
	Warnings bool
}

// Check verifies a plan and returns its violations (nil when clean).
// The plan is not modified.
func Check(plan algebra.Op, cfg *Config) []Diagnostic {
	if cfg == nil {
		cfg = &Config{}
	}
	c := &checker{cfg: cfg, skolems: map[string]skolemUse{}}
	env := map[string]bool{}
	for p := range cfg.Params {
		env[p] = true
	}
	c.check(plan, "", env, false)
	c.checkTypes(plan)
	return c.diags
}

// Error folds diagnostics into a single error (nil when the slice is empty);
// convenient for call sites that abort on the first dirty plan.
func Error(ds []Diagnostic) error {
	if len(ds) == 0 {
		return nil
	}
	lines := make([]string, len(ds))
	for i, d := range ds {
		lines[i] = d.String()
	}
	return fmt.Errorf("planlint: %d violation(s):\n  %s", len(ds), strings.Join(lines, "\n  "))
}

type skolemUse struct {
	arity int
	path  string
}

type checker struct {
	cfg     *Config
	diags   []Diagnostic
	skolems map[string]skolemUse // Skolem function name -> first seen use
}

func (c *checker) report(code, path string, op algebra.Op, format string, args ...any) {
	detail := "<nil>"
	if op != nil {
		detail = op.Detail()
	}
	c.diags = append(c.diags, Diagnostic{
		Code: code, Path: path, Op: detail, Msg: fmt.Sprintf(format, args...),
	})
}

// OpName returns the short operator name used in plan paths.
func OpName(op algebra.Op) string {
	switch op.(type) {
	case *algebra.Doc:
		return "Doc"
	case *algebra.Bind:
		return "Bind"
	case *algebra.Select:
		return "Select"
	case *algebra.Project:
		return "Project"
	case *algebra.MapExpr:
		return "Map"
	case *algebra.Join:
		return "Join"
	case *algebra.DJoin:
		return "DJoin"
	case *algebra.Union:
		return "Union"
	case *algebra.Intersect:
		return "Intersect"
	case *algebra.Distinct:
		return "Distinct"
	case *algebra.Group:
		return "Group"
	case *algebra.Sort:
		return "Sort"
	case *algebra.TreeOp:
		return "Tree"
	case *algebra.SourceQuery:
		return "SourceQuery"
	case *algebra.Literal:
		return "Literal"
	default:
		return fmt.Sprintf("%T", op)
	}
}

// Extend appends a segment to a plan path.
func Extend(path, seg string) string {
	if path == "" {
		return seg
	}
	return path + "/" + seg
}

// check verifies the operator rooted at op. path is the path of op's
// parent; op's own segment is appended here. env is the set of variables the
// surrounding context provides as parameters (DJoin information passing).
// pushed marks subtrees inside a SourceQuery plan.
func (c *checker) check(op algebra.Op, path string, env map[string]bool, pushed bool) {
	if op == nil {
		c.report(CodeNilPlan, Extend(path, "<nil>"), nil, "nil operator")
		return
	}
	path = Extend(path, OpName(op))
	switch x := op.(type) {
	case *algebra.Doc:
		c.checkDoc(x.Name, path, x)
	case *algebra.Literal:
		if x.T == nil {
			c.report(CodeNilPlan, path, x, "Literal with nil Tab")
		}
	case *algebra.Bind:
		c.checkBind(x, path, env, pushed)
	case *algebra.Select:
		c.check(x.From, path, env, pushed)
		if x.Pred == nil {
			c.report(CodeMalformed, path, x, "Select with nil predicate")
		} else {
			c.checkVars(x.Pred.Vars(), childCols(x.From), env, path, x)
		}
	case *algebra.Project:
		c.check(x.From, path, env, pushed)
		from := colSet(childCols(x.From))
		for _, col := range x.Cols {
			src := col
			if i := strings.IndexByte(col, '='); i >= 0 {
				src = col[i+1:]
			}
			if !from[src] {
				c.report(CodeUnknownColumn, path, x,
					"projected column %s is not produced by the input (has %v)", src, childCols(x.From))
			}
		}
	case *algebra.MapExpr:
		c.check(x.From, path, env, pushed)
		if x.E == nil {
			c.report(CodeMalformed, path, x, "Map with nil expression")
		} else {
			c.checkVars(x.E.Vars(), childCols(x.From), env, path, x)
		}
		if colSet(childCols(x.From))[x.Col] {
			c.report(CodeDuplicateCol, path, x,
				"Map introduces column %s which the input already has", x.Col)
		}
	case *algebra.Join:
		c.check(x.L, Extend(path, "L"), env, pushed)
		c.check(x.R, Extend(path, "R"), env, pushed)
		if x.Pred == nil {
			c.report(CodeMalformed, path, x, "Join with nil predicate")
		} else {
			both := append(append([]string{}, childCols(x.L)...), childCols(x.R)...)
			c.checkVars(x.Pred.Vars(), both, env, path, x)
		}
		c.checkDisjoint(childCols(x.L), childCols(x.R), path, x)
	case *algebra.DJoin:
		c.check(x.L, Extend(path, "L"), env, pushed)
		// The right side sees the left columns as parameters.
		renv := union(env, colSet(childCols(x.L)))
		c.check(x.R, Extend(path, "R"), renv, pushed)
		c.checkDisjoint(childCols(x.L), childCols(x.R), path, x)
		c.checkBatchShape(x, renv, path)
	case *algebra.Union:
		c.check(x.L, Extend(path, "L"), env, pushed)
		c.check(x.R, Extend(path, "R"), env, pushed)
		if len(childCols(x.L)) != len(childCols(x.R)) {
			c.report(CodeArity, path, x, "union of incompatible inputs %v / %v",
				childCols(x.L), childCols(x.R))
		}
	case *algebra.Intersect:
		c.check(x.L, Extend(path, "L"), env, pushed)
		c.check(x.R, Extend(path, "R"), env, pushed)
		if len(childCols(x.L)) != len(childCols(x.R)) {
			c.report(CodeArity, path, x, "intersect of incompatible inputs %v / %v",
				childCols(x.L), childCols(x.R))
		}
	case *algebra.Distinct:
		c.check(x.From, path, env, pushed)
	case *algebra.Group:
		c.check(x.From, path, env, pushed)
		from := colSet(childCols(x.From))
		for _, k := range x.Keys {
			if !from[k] {
				c.report(CodeUnknownColumn, path, x,
					"grouping key %s is not produced by the input (has %v)", k, childCols(x.From))
			}
			if k == x.Into {
				c.report(CodeDuplicateCol, path, x,
					"group target %s collides with a grouping key", x.Into)
			}
		}
	case *algebra.Sort:
		c.check(x.From, path, env, pushed)
		from := colSet(childCols(x.From))
		for _, col := range x.Cols {
			if !from[col] {
				c.report(CodeUnknownColumn, path, x,
					"sort column %s is not produced by the input (has %v)", col, childCols(x.From))
			}
		}
	case *algebra.TreeOp:
		c.check(x.From, path, env, pushed)
		c.checkVars(x.C.AllVars(), childCols(x.From), env, path, x)
		c.checkSkolems(x.C, path, x)
	case *algebra.SourceQuery:
		if pushed {
			c.report(CodeCapability, path, x, "nested SourceQuery inside a pushed plan")
		}
		c.checkSourceQuery(x, path, env)
	default:
		// Unknown operator implementations are opaque: verify children only.
		for i, child := range op.Children() {
			c.check(child, Extend(path, fmt.Sprintf("%d", i)), env, pushed)
		}
	}
}

// childCols returns an operator's columns, shielding against nil inputs
// (whose Columns() would panic — the nil is reported separately).
func childCols(op algebra.Op) []string {
	if op == nil {
		return nil
	}
	return op.Columns()
}

func (c *checker) checkDoc(name, path string, op algebra.Op) {
	if _, known := c.cfg.SourceDocs[name]; !known && c.cfg.SourceDocs != nil {
		c.report(CodeUnknownDoc, path, op, "no source or catalog exports document %q", name)
	}
}

// checkBatchShape verifies the invariant set-at-a-time DJoin evaluation
// leans on: the inner plan's free variables (algebra.FreeVars — exactly the
// bindings a batched push ships sideways) must all come from the outer
// columns or the surrounding parameter environment. A violation means the
// deduplicated binding sets would under-determine the inner plan — the same
// condition the unbound-var check reports inside the inner plan, restated
// at the DJoin so the batching impact is visible at the operator that
// ships the bindings.
func (c *checker) checkBatchShape(x *algebra.DJoin, renv map[string]bool, path string) {
	if x.L == nil || x.R == nil {
		return // nil children are reported separately
	}
	free, ok := freeVarsOf(x.R)
	if !ok {
		return // plan too malformed to analyze; nil-plan reports cover it
	}
	for _, v := range free {
		if !renv[v] {
			c.report(CodeBatchShape, path, x,
				"DJoin inner plan reads parameter %s which neither the outer columns nor the environment provide; its binding sets are under-determined", v)
		}
	}
	// Advisory: a DJoin whose inner plan reads nothing from the outer row is
	// a plain Join (or cross product) in disguise. It still evaluates
	// correctly — per-row evaluation repeats the identical inner query once
	// per outer row, and batching collapses the bindings to one — but a Join
	// evaluates the inner side exactly once with no information passing
	// machinery at all.
	if c.cfg.Warnings && len(free) == 0 {
		c.report(CodeDJoinDegenerate, path, x,
			"DJoin inner plan has no free variables; it does not depend on the outer row — a plain Join evaluates it once instead")
	}
}

// freeVarsOf shields FreeVars against malformed plans whose Columns()
// panics on nil children deeper in the tree.
func freeVarsOf(op algebra.Op) (vars []string, ok bool) {
	defer func() {
		if recover() != nil {
			vars, ok = nil, false
		}
	}()
	return algebra.FreeVars(op), true
}

// checkVars verifies that every referenced variable is a column of the input
// or a parameter the environment provides.
func (c *checker) checkVars(vars, cols []string, env map[string]bool, path string, op algebra.Op) {
	set := colSet(cols)
	seen := map[string]bool{}
	for _, v := range vars {
		if set[v] || env[v] || seen[v] {
			continue
		}
		seen[v] = true
		c.report(CodeUnboundVar, path, op,
			"variable %s is not bound upstream (input columns %v)", v, cols)
	}
}

// checkDisjoint flags output columns produced by both sides of a Join/DJoin:
// the concatenated row would carry two columns with one name, and every
// later positional lookup silently reads the left one.
func (c *checker) checkDisjoint(l, r []string, path string, op algebra.Op) {
	ls := colSet(l)
	for _, col := range r {
		if ls[col] {
			c.report(CodeDuplicateCol, path, op,
				"column %s is produced by both join sides", col)
		}
	}
}

func (c *checker) checkBind(b *algebra.Bind, path string, env map[string]bool, pushed bool) {
	if b.F == nil || b.F.Root == nil {
		c.report(CodeNilPlan, path, b, "Bind with nil filter")
		return
	}
	switch {
	case b.Doc != "":
		c.checkDoc(b.Doc, path, b)
		c.checkPattern(b, path)
		if b.From != nil {
			// Eval ignores From when Doc is set, yet Columns() advertises the
			// input columns: rows and headers would disagree.
			c.report(CodeMalformed, path, b,
				"Bind names document %q but also has an input plan", b.Doc)
			c.check(b.From, path, env, pushed)
		}
	case b.From == nil:
		// Bind over a DJoin parameter.
		if b.Col == "" {
			c.report(CodeUnknownColumn, path, b, "Bind with neither document, input nor parameter column")
		} else if !env[b.Col] {
			c.report(CodeUnboundVar, path, b,
				"Bind over parameter %s which no enclosing DJoin provides", b.Col)
		}
	default:
		c.check(b.From, path, env, pushed)
		if !colSet(childCols(b.From))[b.Col] {
			c.report(CodeUnknownColumn, path, b,
				"Bind over column %s which the input does not produce (has %v)", b.Col, childCols(b.From))
		}
	}
	// Filter variables must not collide with input columns: Bind appends
	// them to the row, and a duplicate silently shadows.
	if b.From != nil {
		in := colSet(childCols(b.From))
		for _, v := range b.F.Vars() {
			if in[v] {
				c.report(CodeDuplicateCol, path, b,
					"filter rebinds %s which the input already produces", v)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Skolem arity consistency
// ---------------------------------------------------------------------------

// checkSkolems records every Skolem function use (definition sites and
// reference sites) and flags arity disagreements: Skolem identity is the
// (function, argument values) pair, so two call sites with different arities
// can never fuse and almost certainly indicate a miscompiled construction.
func (c *checker) checkSkolems(cons *algebra.Cons, path string, op algebra.Op) {
	var walk func(n *algebra.Cons)
	record := func(name string, arity int) {
		if name == "" {
			return
		}
		prev, ok := c.skolems[name]
		if !ok {
			c.skolems[name] = skolemUse{arity: arity, path: path}
			return
		}
		if prev.arity != arity {
			c.report(CodeSkolemArity, path, op,
				"Skolem function %s used with %d argument(s) here but %d at %s",
				name, arity, prev.arity, prev.path)
		}
	}
	walk = func(n *algebra.Cons) {
		if n == nil {
			return
		}
		if n.Skolem != "" {
			record(n.Skolem, len(n.SkolemArgs))
		}
		if n.RefTo != "" {
			record(n.RefTo, len(n.RefArgs))
		}
		for _, it := range n.Kids {
			walk(it.C)
		}
	}
	walk(cons)
}

// ---------------------------------------------------------------------------
// Pattern-instantiation compatibility
// ---------------------------------------------------------------------------

// checkPattern verifies a document Bind's filter against the document's
// declared structural pattern. The check is conservative: it only flags
// filters that can NEVER match a conforming document — concretely, a filter
// requiring a label that occurs nowhere in the pattern's closure. (Exact
// positional instantiation checking would reject filters the matcher aligns
// through wrapping levels; label reachability is sound for both.) Collection
// constructor labels (set/bag/list/array) are always allowed: a declared
// pattern describes one instance, while the exported document wraps the
// extent in a collection level the matcher aligns through.
func (c *checker) checkPattern(b *algebra.Bind, path string) {
	st, ok := c.cfg.Structures.Doc(b.Doc)
	if !ok || st.Model == nil {
		return
	}
	root := st.Model.Lookup(st.Pattern)
	if root == nil {
		return
	}
	labels := patternLabels(st.Model, root)
	var bad []string
	var walk func(fn *filter.FNode)
	walk = func(fn *filter.FNode) {
		if fn == nil {
			return
		}
		if fn.Label != "" && !labels[fn.Label] &&
			pattern.ColFromString(fn.Label) == pattern.ColNone {
			bad = append(bad, fn.Label)
		}
		for _, it := range fn.Items {
			walk(it.F)
		}
	}
	walk(b.F.Root)
	if len(bad) > 0 {
		sort.Strings(bad)
		c.report(CodePattern, path, b,
			"filter requires label(s) %v which the declared pattern %s of %q can never produce",
			bad, st.Pattern, b.Doc)
	}
}

// patternLabels returns every node label reachable in the pattern's closure
// (following references through the model, cycle-safe).
func patternLabels(m *pattern.Model, p *pattern.P) map[string]bool {
	labels := map[string]bool{}
	seenRefs := map[string]bool{}
	var walk func(p *pattern.P)
	walk = func(p *pattern.P) {
		if p == nil {
			return
		}
		switch p.Kind {
		case pattern.KRef:
			if seenRefs[p.Name] {
				return
			}
			seenRefs[p.Name] = true
			walk(m.Lookup(p.Name))
		case pattern.KUnion:
			for _, a := range p.Alts {
				walk(a)
			}
		case pattern.KNode:
			if p.Label != "" {
				labels[p.Label] = true
			}
			for _, it := range p.Items {
				walk(it.P)
			}
		}
	}
	walk(p)
	return labels
}

// ---------------------------------------------------------------------------
// Capability feasibility
// ---------------------------------------------------------------------------

// opOperation names the interface operation each pushable operator requires.
func opOperation(op algebra.Op) (string, bool) {
	// yat-lint:ignore intentionally partial: the default is the point — any other operator is not pushable
	switch op.(type) {
	case *algebra.Bind:
		return "bind", true
	case *algebra.Select:
		return "select", true
	case *algebra.Project:
		return "project", true
	case *algebra.Join:
		return "join", true
	default:
		return "", false
	}
}

// checkSourceQuery verifies that a pushed subplan only uses operations,
// filters and predicates the target source declared in its capability
// interface (Figure 6), in addition to the ordinary scoping rules.
func (c *checker) checkSourceQuery(sq *algebra.SourceQuery, path string, env map[string]bool) {
	if sq.Plan == nil {
		c.report(CodeNilPlan, path, sq, "SourceQuery with nil plan")
		return
	}
	var iface *capability.Interface
	if c.cfg.Interfaces != nil {
		iface = c.cfg.Interfaces[sq.Source]
		if iface == nil {
			c.report(CodeCapability, path, sq, "no capability interface imported for source %q", sq.Source)
		}
	}
	// The document set the pushed plan touches; scoped capability
	// declarations must cover all of them with a single entry.
	docs := PushedDocs(sq.Plan)
	// Variables bound by Binds inside the pushed plan evaluate at the
	// source; free variables arrive as DJoin parameters. For scoping inside
	// the pushed plan the surrounding env therefore still applies — a pushed
	// plan referencing a variable nobody provides is as broken as a local
	// one. Beyond scoping, each operator needs its declared operation.
	var walk func(op algebra.Op, p string)
	walk = func(op algebra.Op, p string) {
		if op == nil {
			return
		}
		p = Extend(p, OpName(op))
		if iface != nil {
			opname, pushable := opOperation(op)
			if !pushable {
				c.report(CodeCapability, p, op,
					"operator %s cannot appear in a pushed plan", OpName(op))
			} else if !iface.CoversOperation(opname, docs) {
				c.report(CodeCapability, p, op,
					"source %q does not declare operation %q over %v", sq.Source, opname, docs)
			}
			// yat-lint:ignore intentionally partial: per-operator capability detail for the pushable subset only
			switch x := op.(type) {
			case *algebra.Bind:
				if x.Doc == "" {
					c.report(CodeCapability, p, op, "pushed Bind must name a document")
				} else if owner, ok := c.cfg.SourceDocs[x.Doc]; ok && owner != sq.Source {
					c.report(CodeCapability, p, op,
						"pushed Bind reads %q which source %q does not export (owner: %q)",
						x.Doc, sq.Source, owner)
				} else if x.F != nil && x.F.Root != nil {
					if err := iface.AcceptsFilter(x.Doc, x.F); err != nil {
						c.report(CodeCapability, p, op,
							"source %q rejects the filter: %v", sq.Source, err)
					}
				}
			case *algebra.Select:
				for _, conj := range algebra.SplitConj(x.Pred) {
					if err := PredFeasible(iface, conj, docs); err != nil {
						c.report(CodeCapability, p, op,
							"source %q cannot evaluate %s: %v", sq.Source, conj, err)
					}
				}
			case *algebra.Join:
				for _, conj := range algebra.SplitConj(x.Pred) {
					if err := PredFeasible(iface, conj, docs); err != nil {
						c.report(CodeCapability, p, op,
							"source %q cannot evaluate %s: %v", sq.Source, conj, err)
					}
				}
			}
		}
		for i, child := range op.Children() {
			seg := ""
			// yat-lint:ignore intentionally partial: Join is the only pushable binary operator needing L/R path segments
			switch op.(type) {
			case *algebra.Join:
				seg = []string{"L", "R"}[i]
			}
			if seg != "" {
				walk(child, Extend(p, seg))
			} else {
				walk(child, p)
			}
		}
	}
	walk(sq.Plan, path)
	// Ordinary scoping rules also hold inside the pushed plan.
	c.check(sq.Plan, path, env, true)
}

// cmpOperations maps comparison operators to the boolean operation names a
// capability interface declares.
var cmpOperations = map[algebra.CmpOp]string{
	algebra.OpEq: "eq", algebra.OpNe: "neq",
	algebra.OpLt: "lt", algebra.OpLe: "leq",
	algebra.OpGt: "gt", algebra.OpGe: "geq",
}

// PredFeasible reports why one conjunct of a pushed selection or join
// predicate exceeds a source's declared operations for the documents the
// pushed plan touches (nil when the source can evaluate it). It is the one
// pushdown-feasibility table: the optimizer pushes a conjunct only when this
// returns nil, and the lint holds every pushed plan to the same answer.
// Comparisons need the corresponding declared boolean operation covering
// docs, calls the declared external/method operation; variables are always
// fine — those the pushed Bind binds evaluate at the source, free ones arrive
// as DJoin parameters. A conjunct that is a bare constant (algebra.Conj of
// nothing) is feasible: there is nothing to evaluate.
func PredFeasible(iface *capability.Interface, conj algebra.Expr, docs []string) error {
	if _, ok := conj.(algebra.Const); ok {
		return nil
	}
	return predFeasible(iface, conj, docs)
}

func predFeasible(iface *capability.Interface, e algebra.Expr, docs []string) error {
	switch x := e.(type) {
	case algebra.Cmp:
		name, ok := cmpOperations[x.Op]
		if !ok || !iface.CoversOperation(name, docs) {
			return fmt.Errorf("comparison %q is not declared over %v", x.Op, docs)
		}
		if err := operandFeasible(iface, x.L, docs); err != nil {
			return err
		}
		return operandFeasible(iface, x.R, docs)
	case algebra.Call:
		return operandFeasible(iface, x, docs)
	case algebra.And:
		if err := predFeasible(iface, x.L, docs); err != nil {
			return err
		}
		return predFeasible(iface, x.R, docs)
	case algebra.Or:
		if err := predFeasible(iface, x.L, docs); err != nil {
			return err
		}
		return predFeasible(iface, x.R, docs)
	case algebra.Not:
		return predFeasible(iface, x.E, docs)
	default:
		return fmt.Errorf("predicate form %T is not pushable", e)
	}
}

func operandFeasible(iface *capability.Interface, e algebra.Expr, docs []string) error {
	switch x := e.(type) {
	case algebra.Var, algebra.Const:
		return nil
	case algebra.Arith:
		if err := operandFeasible(iface, x.L, docs); err != nil {
			return err
		}
		return operandFeasible(iface, x.R, docs)
	case algebra.Call:
		op := iface.OperationFor(x.Name, docs)
		if op == nil || (op.Kind != "external" && op.Kind != "method") {
			return fmt.Errorf("function %s is not declared", x.Name)
		}
		for _, a := range x.Args {
			if err := operandFeasible(iface, a, docs); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("operand form %T is not pushable", e)
	}
}

// PushedDocs returns the distinct documents bound inside a (pushed) plan: the
// document set capability scoping is checked against.
func PushedDocs(plan algebra.Op) []string {
	seen := map[string]bool{}
	var docs []string
	algebra.Walk(plan, func(n algebra.Op) bool {
		if b, ok := n.(*algebra.Bind); ok && b.Doc != "" && !seen[b.Doc] {
			seen[b.Doc] = true
			docs = append(docs, b.Doc)
		}
		return true
	})
	return docs
}

func colSet(cols []string) map[string]bool {
	m := make(map[string]bool, len(cols))
	for _, c := range cols {
		m[c] = true
	}
	return m
}

func union(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}
