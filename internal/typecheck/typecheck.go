// Package typecheck is the one static analysis of algebraic plans: a single
// bottom-up walk that assigns every operator an inferred output pattern per
// column and, in the same step, checks the well-formedness invariants every
// plan must satisfy before execution — variable binding and scoping,
// Skolem-function arity consistency, pattern-instantiation compatibility of
// operator inputs, and capability feasibility of pushed subplans — reporting
// violations as diagnostics that carry plan-path locations.
//
// The paper's pattern type system is used "both for data description and for
// optimization". Types are seeded from the structural schemas the sources
// export in their capability descriptions (Section 2's instantiation order:
// the inferred pattern of an operator is a schema any produced data must
// instantiate), and the analysis has three consumers:
//   - the optimizer verifies its input and the output of each round
//     (Options.CheckInvariants in internal/optimizer): a diagnostic is a
//     broken invariant, and a round must keep the plan's root type subsumed
//     by the original's;
//   - the mediator verifies every plan no optimizer verified before
//     executing it, so a miscompiled plan is refused, located by the plan
//     path of the operator at fault, rather than answered wrongly;
//   - the mediator's wire conformance mode (ExecOptions.CheckTypes)
//     validates shipped wrapper rows against the inferred types.
//
// Inference is conservative: a column whose type cannot be derived is
// typed Any (every cell conforms), and RowType.Empty is set only when the
// operator provably produces no rows. Constant patterns are widened to
// their atomic kinds so that rewrites which replace a constructed constant
// by the source column it came from (composition elimination) remain
// type-preserving.
package typecheck

import (
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/data"
	"repro/internal/pattern"
	"repro/internal/tab"
)

// Schemas is the declared structural schema of every typed document together
// with the one model their definitions merge into, so that references inside
// inferred patterns resolve regardless of which source they came from. It is
// immutable: the merge happens once, when the value is built, and the model
// is shared by every inference and by the evaluation context
// (algebra.Context.Model). A nil *Schemas declares nothing.
type Schemas struct {
	docs  map[string]capability.StructureRef
	model *pattern.Model
}

var noSchemas = NewSchemas(nil)

// NewSchemas merges the documents' models (in document-name order, so a
// pattern name two models both define resolves the same way every time). The
// map is kept, not copied: the caller must not write to it afterwards.
func NewSchemas(docs map[string]capability.StructureRef) *Schemas {
	merged := pattern.NewModel("schemas")
	names := make([]string, 0, len(docs))
	for d := range docs {
		names = append(names, d)
	}
	sort.Strings(names)
	for _, d := range names {
		st := docs[d]
		if st.Model == nil {
			continue
		}
		for _, name := range st.Model.Names() {
			merged.Define(name, st.Model.Defs[name])
		}
	}
	return &Schemas{docs: docs, model: merged}
}

// With returns the schemas with doc's structure added or replaced; the
// receiver is unchanged.
func (s *Schemas) With(doc string, st capability.StructureRef) *Schemas {
	docs := make(map[string]capability.StructureRef, s.Len()+1)
	if s != nil {
		for d, have := range s.docs {
			docs[d] = have
		}
	}
	docs[doc] = st
	return NewSchemas(docs)
}

// Doc returns the declared structure of a document.
func (s *Schemas) Doc(doc string) (capability.StructureRef, bool) {
	if s == nil {
		return capability.StructureRef{}, false
	}
	st, ok := s.docs[doc]
	return st, ok
}

// Len reports how many documents have a declared structure.
func (s *Schemas) Len() int {
	if s == nil {
		return 0
	}
	return len(s.docs)
}

// Model returns the merged model (empty, never nil, when nothing is declared).
func (s *Schemas) Model() *pattern.Model {
	if s == nil {
		return noSchemas.model
	}
	return s.model
}

// Config is the static knowledge the analysis consults. Every field is
// optional: a nil field disables the checks that need it.
type Config struct {
	// Interfaces maps source names to capability interfaces; enables the
	// feasibility checks of SourceQuery plans.
	Interfaces map[string]*capability.Interface
	// SourceDocs maps document names to the source exporting them; a pushed
	// Bind over a document owned by a different source is a violation. When
	// non-nil its keys are the complete set of resolvable document names:
	// a Bind over any other document is a violation too.
	SourceDocs map[string]string
	// Structures holds the declared structural schema of each document: it
	// seeds the types and enables the pattern check on document Binds.
	Structures *Schemas
}

// RowType is the inferred output type of one operator: one pattern per
// column, in the operator's column order.
type RowType struct {
	Cols  []string
	Types map[string]*pattern.P
	// Empty marks an operator that provably produces no rows (its filter
	// cannot match the declared schema, a Union of two empty branches, an
	// empty literal, ...). Every per-column claim is then vacuous.
	Empty bool
	// Path locates the operator in the analyzed plan, as a Diagnostic does.
	Path string
}

// Type returns the inferred pattern of a column (nil if unknown).
func (rt *RowType) Type(col string) *pattern.P {
	if rt == nil {
		return nil
	}
	return rt.Types[col]
}

// String renders the row type as "{$a: String, $b: Int}" (column order),
// with an "empty " prefix for provably-dead operators.
func (rt *RowType) String() string {
	if rt == nil {
		return "{}"
	}
	var b strings.Builder
	if rt.Empty {
		b.WriteString("empty ")
	}
	b.WriteByte('{')
	for i, c := range rt.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c)
		b.WriteString(": ")
		if p := rt.Types[c]; p != nil {
			b.WriteString(p.String())
		} else {
			b.WriteString("Any")
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Annotation is the result of inference: a row type for every operator in
// the plan, plus the model under which the inferred patterns' references
// resolve.
type Annotation struct {
	Types map[algebra.Op]*RowType
	Root  *RowType
	Model *pattern.Model
}

// Check analyzes a plan in one bottom-up walk: it infers every operator's
// row type and reports every violation of the well-formedness invariants,
// in walk order (nil when the plan is clean). The annotation covers every
// operator the walk reached, whatever it reports; a column whose type
// cannot be derived is typed Any. The plan is not modified.
func Check(plan algebra.Op, cfg *Config) (*Annotation, []Diagnostic) {
	if cfg == nil {
		cfg = &Config{}
	}
	c := &checker{
		cfg:     cfg,
		ann:     &Annotation{Types: map[algebra.Op]*RowType{}, Model: cfg.Structures.Model()},
		skolems: map[string]skolemUse{},
	}
	c.ann.Root = c.walk(plan, "", map[string]*pattern.P{})
	return c.ann, c.diags
}

type checker struct {
	cfg     *Config
	ann     *Annotation
	diags   []Diagnostic
	skolems map[string]skolemUse // Skolem function name -> first seen use
	// free collects, sorted, the variables reported unbound outside Tree
	// constructions since the innermost DJoin began its inner plan: the
	// parameters its binding sets would leave undetermined.
	free []string
	push *pushed // the innermost SourceQuery whose plan is being walked
}

// docPattern returns the declared pattern of a document, nil if unknown.
func (c *checker) docPattern(doc string) *pattern.P {
	st, ok := c.cfg.Structures.Doc(doc)
	if !ok || st.Model == nil || st.Model.Lookup(st.Pattern) == nil {
		return nil
	}
	return pattern.Ref(st.Pattern)
}

// walk analyzes the operator rooted at op. path is the path of op's parent;
// op's own segment is appended here. env maps the parameters the enclosing
// DJoins provide to their types: a variable in it is bound.
func (c *checker) walk(op algebra.Op, path string, env map[string]*pattern.P) *RowType {
	if op == nil {
		c.report(CodeNilPlan, extend(path, "<nil>"), nil, "nil operator")
		return newRowType(nil)
	}
	path = extend(path, algebra.OpKind(op))
	for p := c.push; p != nil; p = p.outer {
		p.check(c.cfg, op, path)
	}
	rt := c.typeOp(op, path, env)
	rt.Path = path
	c.ann.Types[op] = rt
	return rt
}

func (c *checker) typeOp(op algebra.Op, path string, env map[string]*pattern.P) *RowType {
	switch x := op.(type) {
	case *algebra.Literal:
		if x.T == nil {
			c.report(CodeNilPlan, path, x, "Literal with nil Tab")
			return newRowType(nil)
		}
		rt := newRowType(x.Columns())
		rt.Empty = len(x.T.Rows) == 0
		return rt

	case *algebra.Bind:
		return c.typeBind(x, path, env)

	case *algebra.Select:
		in := c.walk(x.From, path, env)
		if x.Pred == nil {
			c.report(CodeMalformed, path, x, "Select with nil predicate")
		} else {
			c.checkVars(x.Pred.Vars(), in.Cols, env, path, x)
		}
		return in.passed()

	case *algebra.Project:
		in := c.walk(x.From, path, env)
		rt := newRowType(x.Columns())
		rt.Empty = in.Empty
		for _, col := range x.Cols {
			name, src := tab.SplitRename(col)
			if !slices.Contains(in.Cols, src) {
				c.report(CodeUnknownColumn, path, x,
					"projected column %s is not produced by the input (has %v)", src, in.Cols)
			}
			rt.Types[name] = in.Type(src)
		}
		return rt

	case *algebra.MapExpr:
		in := c.walk(x.From, path, env)
		if x.E == nil {
			c.report(CodeMalformed, path, x, "Map with nil expression")
		} else {
			c.checkVars(x.E.Vars(), in.Cols, env, path, x)
		}
		if slices.Contains(in.Cols, x.Col) {
			c.report(CodeDuplicateCol, path, x,
				"Map introduces column %s which the input already has", x.Col)
		}
		rt := in.passed()
		rt.Cols = slices.Concat(in.Cols, []string{x.Col})
		rt.Types[x.Col] = exprType(x.E, in)
		return rt

	case *algebra.Join:
		l := c.walk(x.L, extend(path, "L"), env)
		r := c.walk(x.R, extend(path, "R"), env)
		rt := joined(l, r)
		if x.Pred == nil {
			c.report(CodeMalformed, path, x, "Join with nil predicate")
		} else {
			c.checkVars(x.Pred.Vars(), rt.Cols, env, path, x)
		}
		c.checkDisjoint(l.Cols, r.Cols, path, x)
		return rt

	case *algebra.DJoin:
		l := c.walk(x.L, extend(path, "L"), env)
		// The inner plan sees the outer columns as parameters.
		renv := maps.Clone(env)
		for _, col := range l.Cols {
			renv[col] = l.Type(col)
		}
		outer := c.free
		c.free = nil
		r := c.walk(x.R, extend(path, "R"), renv)
		c.checkDisjoint(l.Cols, r.Cols, path, x)
		// Batched evaluation ships the inner plan's free variables
		// sideways; one neither side of the environment provides leaves
		// the binding sets under-determined. The unbound-var reports
		// inside the inner plan name it too; this one sits at the
		// operator that ships the bindings.
		if x.L != nil && x.R != nil {
			for _, v := range c.free {
				c.report(CodeBatchShape, path, x,
					"DJoin inner plan reads parameter %s which neither the outer columns nor the environment provide; its binding sets are under-determined", v)
			}
		}
		for _, v := range c.free {
			outer = addFree(outer, v)
		}
		c.free = outer
		return joined(l, r)

	case *algebra.Union:
		l := c.walk(x.L, extend(path, "L"), env)
		r := c.walk(x.R, extend(path, "R"), env)
		if len(l.Cols) != len(r.Cols) {
			c.report(CodeArity, path, x, "union of incompatible inputs %v / %v", l.Cols, r.Cols)
		}
		// Union appends rows positionally under the left columns.
		rt := newRowType(l.Cols)
		for i, col := range rt.Cols {
			lp := l.Type(col)
			var rp *pattern.P
			if i < len(r.Cols) {
				rp = r.Type(r.Cols[i])
			}
			switch {
			case l.Empty:
				rt.Types[col] = rp
			case r.Empty:
				rt.Types[col] = lp
			case lp == nil || rp == nil:
				rt.Types[col] = nil
			default:
				rt.Types[col] = unionType(c.ann.Model, lp, rp)
			}
		}
		rt.Empty = l.Empty && r.Empty
		return rt

	case *algebra.Intersect:
		l := c.walk(x.L, extend(path, "L"), env)
		r := c.walk(x.R, extend(path, "R"), env)
		if len(l.Cols) != len(r.Cols) {
			c.report(CodeArity, path, x, "intersect of incompatible inputs %v / %v", l.Cols, r.Cols)
		}
		rt := l.passed()
		rt.Empty = l.Empty || r.Empty
		return rt

	case *algebra.Distinct:
		return c.walk(x.From, path, env).passed()

	case *algebra.Group:
		in := c.walk(x.From, path, env)
		for _, k := range x.Keys {
			if !slices.Contains(in.Cols, k) {
				c.report(CodeUnknownColumn, path, x,
					"grouping key %s is not produced by the input (has %v)", k, in.Cols)
			}
			if k == x.Into {
				c.report(CodeDuplicateCol, path, x,
					"group target %s collides with a grouping key", x.Into)
			}
		}
		rt := newRowType(x.Columns())
		rt.copyFrom(in)
		rt.Types[x.Into] = nil // nested table: untyped
		rt.Empty = in.Empty
		return rt

	case *algebra.Sort:
		in := c.walk(x.From, path, env)
		for _, col := range x.Cols {
			if !slices.Contains(in.Cols, col) {
				c.report(CodeUnknownColumn, path, x,
					"sort column %s is not produced by the input (has %v)", col, in.Cols)
			}
		}
		return in.passed()

	case *algebra.TreeOp:
		in := c.walk(x.From, path, env)
		c.checkVars(x.C.AllVars(), in.Cols, env, path, x)
		c.checkSkolems(x.C, path, x)
		rt := newRowType(x.Columns())
		rt.Types[rt.Cols[0]] = consType(x.C, in)
		rt.Empty = in.Empty
		return rt

	case *algebra.SourceQuery:
		if c.push != nil {
			c.report(CodeCapability, path, x, "nested SourceQuery inside a pushed plan")
		}
		if x.Plan == nil {
			c.report(CodeNilPlan, path, x, "SourceQuery with nil plan")
			return newRowType(nil)
		}
		p := &pushed{sq: x, outer: c.push}
		if c.cfg.Interfaces != nil {
			if p.iface = c.cfg.Interfaces[x.Source]; p.iface == nil {
				c.report(CodeCapability, path, x, "no capability interface imported for source %q", x.Source)
			} else {
				p.docs = algebra.Docs(x.Plan)
			}
		}
		// The pushed plan obeys the ordinary rules too, under the same
		// parameters: its free variables arrive as DJoin bindings. Its
		// capability findings come first, as the source's verdict on the
		// plan as a whole.
		mark := len(c.diags)
		c.push = p
		in := c.walk(x.Plan, path, env)
		c.push = p.outer
		c.diags = slices.Insert(c.diags, mark, p.diags...)
		return in.passed()

	default:
		// Unknown operator implementations are opaque: analyze their
		// children and type their columns Any.
		for i, child := range op.Children() {
			c.walk(child, extend(path, strconv.Itoa(i)), env)
		}
		return newRowType(op.Columns())
	}
}

// typeBind analyzes a Bind: the filter's variables are typed by matching it
// against the pattern of what it binds over — a declared document, an input
// column or a DJoin parameter.
func (c *checker) typeBind(x *algebra.Bind, path string, env map[string]*pattern.P) *RowType {
	if x.F == nil || x.F.Root == nil {
		c.report(CodeNilPlan, path, x, "Bind with nil filter")
		return newRowType(nil)
	}
	var in *RowType
	var bound *pattern.P
	switch {
	case x.Doc != "":
		c.checkDoc(x.Doc, path, x)
		c.checkPattern(x, path)
		bound = c.docPattern(x.Doc)
		if x.From != nil {
			// Eval ignores From when Doc is set, yet Columns() advertises the
			// input columns: rows and headers would disagree.
			c.report(CodeMalformed, path, x,
				"Bind names document %q but also has an input plan", x.Doc)
			in = c.walk(x.From, path, env)
		}
	case x.From == nil:
		var provided bool
		bound, provided = env[x.Col]
		if x.Col == "" {
			c.report(CodeUnknownColumn, path, x, "Bind with neither document, input nor parameter column")
		} else if !provided {
			c.free = addFree(c.free, x.Col)
			c.report(CodeUnboundVar, path, x,
				"Bind over parameter %s which no enclosing DJoin provides", x.Col)
		}
	default:
		in = c.walk(x.From, path, env)
		if !slices.Contains(in.Cols, x.Col) {
			c.report(CodeUnknownColumn, path, x,
				"Bind over column %s which the input does not produce (has %v)", x.Col, in.Cols)
		}
		bound = in.Type(x.Col)
	}
	vars := x.F.Vars()
	rt := newRowType(vars)
	if in != nil {
		// Bind appends the filter's variables to the row: one the input
		// already produces would be silently shadowed.
		for _, v := range vars {
			if slices.Contains(in.Cols, v) {
				c.report(CodeDuplicateCol, path, x,
					"filter rebinds %s which the input already produces", v)
			}
		}
		rt.Cols = slices.Concat(in.Cols, vars)
		rt.copyFrom(in)
		rt.Empty = in.Empty
	}
	types, compatible := c.filterTypes(bound, x.F)
	maps.Copy(rt.Types, types)
	if !compatible {
		rt.Empty = true
	}
	return rt
}

// addFree adds v to a sorted set of variables.
func addFree(free []string, v string) []string {
	if i, found := slices.BinarySearch(free, v); !found {
		return slices.Insert(free, i, v)
	}
	return free
}

func newRowType(cols []string) *RowType {
	return &RowType{Cols: cols, Types: make(map[string]*pattern.P, len(cols))}
}

// passed is the row type of an operator that passes its input's rows on.
func (rt *RowType) passed() *RowType {
	out := newRowType(rt.Cols)
	out.copyFrom(rt)
	out.Empty = rt.Empty
	return out
}

// joined is the row type of a Join or DJoin: both sides' columns, empty
// when either side is.
func joined(l, r *RowType) *RowType {
	rt := newRowType(slices.Concat(l.Cols, r.Cols))
	rt.copyFrom(l)
	rt.copyFrom(r)
	rt.Empty = l.Empty || r.Empty
	return rt
}

// copyFrom copies the other row type's column types for the columns this
// row type declares.
func (rt *RowType) copyFrom(other *RowType) {
	for _, c := range rt.Cols {
		if p := other.Type(c); p != nil {
			rt.Types[c] = p
		}
	}
}

// unionType joins two column types, collapsing subsumed alternatives so
// that unioning a type with itself is the identity.
func unionType(m *pattern.Model, a, b *pattern.P) *pattern.P {
	if a == b {
		return a
	}
	if pattern.Subsumes(m, a, m, b) {
		return a
	}
	if pattern.Subsumes(m, b, m, a) {
		return b
	}
	return pattern.Union(a, b)
}

// exprType types a scalar expression over the input row type.
// yat-lint:ignore intentionally partial: unknown expressions degrade to Any via the default case
func exprType(e algebra.Expr, in *RowType) *pattern.P {
	switch x := e.(type) {
	case algebra.Var:
		return in.Type(x.Name)
	case algebra.Const:
		return widenAtomKind(x.Atom.Kind)
	case algebra.Cmp, algebra.And, algebra.Or, algebra.Not:
		return pattern.Bool()
	case algebra.Arith:
		// Int <: Float, so Float covers both integer and mixed arithmetic.
		return pattern.Float()
	default:
		return nil
	}
}

// widenAtomKind maps an atom kind to its atomic pattern (constants are
// deliberately widened: see the package comment).
func widenAtomKind(k data.AtomKind) *pattern.P {
	switch k {
	case data.KindInt:
		return pattern.Int()
	case data.KindFloat:
		return pattern.Float()
	case data.KindBool:
		return pattern.Bool()
	case data.KindString:
		return pattern.Str()
	default:
		return nil
	}
}

// widen replaces constant patterns by their atomic kind; other patterns
// pass through.
func widen(p *pattern.P) *pattern.P {
	if p != nil && p.Kind == pattern.KConst && p.Const != nil {
		if w := widenAtomKind(p.Const.Kind); w != nil {
			return w
		}
	}
	return p
}

// consType derives the pattern of the tree a construction builds from rows
// typed by the input row type.
func consType(c *algebra.Cons, inRT *RowType) *pattern.P {
	if c == nil {
		return nil
	}
	// Pure variable splice: the constructed value is the variable's value.
	if c.Label == "" && c.LabelVar == "" && c.Var != "" && c.Const == nil && len(c.Kids) == 0 {
		return widen(inRT.Type(c.Var))
	}
	p := &pattern.P{Kind: pattern.KNode, Label: c.Label}
	if c.Label == "" {
		p.AnyLabel = true // label from a variable (~$l) or unnamed
	}
	if c.RefTo != "" {
		// A constructed reference node: its target's structure is checked
		// where the target is defined, so any child shape is admissible.
		p.Items = []pattern.Item{pattern.Starred(pattern.Any())}
		return p
	}
	switch {
	case c.Const != nil:
		if w := widenAtomKind(c.Const.Kind); w != nil {
			p.Items = []pattern.Item{pattern.One(w)}
		} else {
			p.Items = []pattern.Item{pattern.Starred(pattern.Any())}
		}
	case c.Var != "" && len(c.Kids) == 0:
		// label[ $v ]: content spliced from the variable. An untyped
		// variable may splice a whole sequence, so fall back to *Any.
		if vp := widen(inRT.Type(c.Var)); vp != nil {
			p.Items = []pattern.Item{pattern.One(vp)}
		} else {
			p.Items = []pattern.Item{pattern.Starred(pattern.Any())}
		}
	case c.Var != "":
		// Spliced content mixed with explicit children: child order is
		// construction-dependent, so claim nothing about the content.
		p.Items = []pattern.Item{pattern.Starred(pattern.Any())}
	default:
		for _, kid := range c.Kids {
			kp := consType(kid.C, inRT)
			if kp == nil {
				kp = pattern.Any()
			}
			// A starred child repeats per row group; an unstarred child
			// whose pattern is unknown (Any) may splice a sequence, so
			// only typed unstarred children keep exact arity.
			star := kid.Star || kp.Kind == pattern.KAny
			p.Items = append(p.Items, pattern.Item{P: kp, Star: star})
		}
	}
	return p
}
