// Package typecheck implements schema-aware plan typing: a bottom-up type
// inference pass that assigns every algebra operator an inferred output
// pattern per column, seeded from the structural schemas the sources
// export in their capability descriptions (Section 2's instantiation
// order: the inferred pattern of an operator is a schema any produced data
// must instantiate).
//
// The inferred types feed two consumers:
//   - the optimizer's typed rewrite verification (each round must keep
//     the plan's root type subsumed by the original's),
//   - the mediator's wire conformance mode (ExecOptions.CheckTypes), which
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
	"fmt"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/pattern"
	"repro/internal/tab"
)

// Structure pairs a structural model with the name of the pattern (within
// that model) governing a document — what the type-driven rewritings of
// Section 5.1, planlint's pattern-compatibility check and the inference
// below all consult.
type Structure struct {
	Model   *pattern.Model
	Pattern string
}

// Schemas is the declared structural schema of every typed document together
// with the one model their definitions merge into, so that references inside
// inferred patterns resolve regardless of which source they came from. It is
// immutable: the merge happens once, when the value is built, and the model
// is shared by every inference and by the evaluation context
// (algebra.Context.Model). A nil *Schemas declares nothing.
type Schemas struct {
	docs  map[string]Structure
	model *pattern.Model
}

var noSchemas = NewSchemas(nil)

// NewSchemas merges the documents' models (in document-name order, so a
// pattern name two models both define resolves the same way every time). The
// map is kept, not copied: the caller must not write to it afterwards.
func NewSchemas(docs map[string]Structure) *Schemas {
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
func (s *Schemas) With(doc string, st Structure) *Schemas {
	docs := make(map[string]Structure, s.Len()+1)
	if s != nil {
		for d, have := range s.docs {
			docs[d] = have
		}
	}
	docs[doc] = st
	return NewSchemas(docs)
}

// Doc returns the declared structure of a document.
func (s *Schemas) Doc(doc string) (Structure, bool) {
	if s == nil {
		return Structure{}, false
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

// Config seeds inference with the declared document schemas and the types
// of externally supplied parameters.
type Config struct {
	// Structures holds the declared structural schema of each document.
	Structures *Schemas
	// Params types externally supplied parameters (Context.Params);
	// untyped parameters default to Any.
	Params map[string]*pattern.P
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

// Infer runs bottom-up type inference over the plan. It errors only on
// malformed plans (nil operators); everything else degrades to Any.
func Infer(plan algebra.Op, cfg *Config) (*Annotation, error) {
	if cfg == nil {
		cfg = &Config{}
	}
	in := &inferrer{
		cfg:   cfg,
		model: cfg.Structures.Model(),
		ann:   &Annotation{Types: map[algebra.Op]*RowType{}},
	}
	in.ann.Model = in.model
	env := map[string]*pattern.P{}
	for v, p := range cfg.Params {
		env[v] = p
	}
	rt, err := in.infer(plan, env)
	if err != nil {
		return nil, err
	}
	in.ann.Root = rt
	return in.ann, nil
}

type inferrer struct {
	cfg   *Config
	model *pattern.Model
	ann   *Annotation
}

// docPattern returns the declared pattern of a document, nil if unknown.
func (in *inferrer) docPattern(doc string) *pattern.P {
	st, ok := in.cfg.Structures.Doc(doc)
	if !ok || st.Model == nil || st.Model.Lookup(st.Pattern) == nil {
		return nil
	}
	return pattern.Ref(st.Pattern)
}

func (in *inferrer) infer(op algebra.Op, env map[string]*pattern.P) (*RowType, error) {
	if op == nil {
		return nil, fmt.Errorf("typecheck: nil operator")
	}
	rt, err := in.inferOp(op, env)
	if err != nil {
		return nil, err
	}
	in.ann.Types[op] = rt
	return rt, nil
}

// yat-lint:ignore intentionally partial: unknown operators degrade to Any via the default case
func (in *inferrer) inferOp(op algebra.Op, env map[string]*pattern.P) (*RowType, error) {
	switch x := op.(type) {
	case *algebra.Doc:
		rt := newRowType(x.Columns())
		rt.Types[rt.Cols[0]] = in.docPattern(x.Name)
		return rt, nil

	case *algebra.Bind:
		var inRT *RowType
		var bound *pattern.P
		switch {
		case x.Doc != "":
			bound = in.docPattern(x.Doc)
		case x.From != nil:
			var err error
			inRT, err = in.infer(x.From, env)
			if err != nil {
				return nil, err
			}
			bound = inRT.Type(x.Col)
		default:
			// Parameter bind inside a DJoin inner plan: the column's type
			// comes from the outer plan via env.
			bound = env[x.Col]
		}
		rt := newRowType(x.Columns())
		if inRT != nil {
			rt.copyFrom(inRT)
			rt.Empty = inRT.Empty
		}
		if x.F != nil {
			vars, compatible := in.filterTypes(bound, x.F)
			for v, p := range vars {
				rt.Types[v] = p
			}
			if !compatible {
				rt.Empty = true
			}
		}
		return rt, nil

	case *algebra.Select:
		inRT, err := in.infer(x.From, env)
		if err != nil {
			return nil, err
		}
		rt := newRowType(x.Columns())
		rt.copyFrom(inRT)
		rt.Empty = inRT.Empty
		return rt, nil

	case *algebra.Project:
		inRT, err := in.infer(x.From, env)
		if err != nil {
			return nil, err
		}
		rt := newRowType(x.Columns())
		rt.Empty = inRT.Empty
		for _, c := range x.Cols {
			name, src := tab.SplitRename(c)
			rt.Types[name] = inRT.Type(src)
		}
		return rt, nil

	case *algebra.MapExpr:
		inRT, err := in.infer(x.From, env)
		if err != nil {
			return nil, err
		}
		rt := newRowType(x.Columns())
		rt.copyFrom(inRT)
		rt.Empty = inRT.Empty
		rt.Types[x.Col] = exprType(x.E, inRT)
		return rt, nil

	case *algebra.Join:
		l, err := in.infer(x.L, env)
		if err != nil {
			return nil, err
		}
		r, err := in.infer(x.R, env)
		if err != nil {
			return nil, err
		}
		rt := newRowType(x.Columns())
		rt.copyFrom(l)
		rt.copyFrom(r)
		rt.Empty = l.Empty || r.Empty
		return rt, nil

	case *algebra.DJoin:
		l, err := in.infer(x.L, env)
		if err != nil {
			return nil, err
		}
		// The inner plan sees the outer columns as parameters.
		renv := make(map[string]*pattern.P, len(env)+len(l.Cols))
		for v, p := range env {
			renv[v] = p
		}
		for _, c := range l.Cols {
			renv[c] = l.Type(c)
		}
		r, err := in.infer(x.R, renv)
		if err != nil {
			return nil, err
		}
		rt := newRowType(x.Columns())
		rt.copyFrom(l)
		rt.copyFrom(r)
		rt.Empty = l.Empty || r.Empty
		return rt, nil

	case *algebra.Union:
		l, err := in.infer(x.L, env)
		if err != nil {
			return nil, err
		}
		r, err := in.infer(x.R, env)
		if err != nil {
			return nil, err
		}
		// Union appends rows positionally under the left columns.
		rt := newRowType(x.Columns())
		for i, c := range rt.Cols {
			lp := l.Type(c)
			var rp *pattern.P
			if i < len(r.Cols) {
				rp = r.Type(r.Cols[i])
			}
			switch {
			case l.Empty:
				rt.Types[c] = rp
			case r.Empty:
				rt.Types[c] = lp
			case lp == nil || rp == nil:
				rt.Types[c] = nil
			default:
				rt.Types[c] = unionType(in.model, lp, rp)
			}
		}
		rt.Empty = l.Empty && r.Empty
		return rt, nil

	case *algebra.Intersect:
		l, err := in.infer(x.L, env)
		if err != nil {
			return nil, err
		}
		r, err := in.infer(x.R, env)
		if err != nil {
			return nil, err
		}
		rt := newRowType(x.Columns())
		rt.copyFrom(l)
		rt.Empty = l.Empty || r.Empty
		return rt, nil

	case *algebra.Distinct:
		inRT, err := in.infer(x.From, env)
		if err != nil {
			return nil, err
		}
		rt := newRowType(x.Columns())
		rt.copyFrom(inRT)
		rt.Empty = inRT.Empty
		return rt, nil

	case *algebra.Sort:
		inRT, err := in.infer(x.From, env)
		if err != nil {
			return nil, err
		}
		rt := newRowType(x.Columns())
		rt.copyFrom(inRT)
		rt.Empty = inRT.Empty
		return rt, nil

	case *algebra.Group:
		inRT, err := in.infer(x.From, env)
		if err != nil {
			return nil, err
		}
		rt := newRowType(x.Columns())
		rt.copyFrom(inRT)
		rt.Types[x.Into] = nil // nested table: untyped
		rt.Empty = inRT.Empty
		return rt, nil

	case *algebra.TreeOp:
		inRT, err := in.infer(x.From, env)
		if err != nil {
			return nil, err
		}
		rt := newRowType(x.Columns())
		rt.Types[rt.Cols[0]] = in.consType(x.C, inRT)
		rt.Empty = inRT.Empty
		return rt, nil

	case *algebra.SourceQuery:
		inner, err := in.infer(x.Plan, env)
		if err != nil {
			return nil, err
		}
		rt := newRowType(x.Columns())
		rt.copyFrom(inner)
		rt.Empty = inner.Empty
		return rt, nil

	case *algebra.Literal:
		rt := newRowType(x.Columns())
		if x.T != nil && len(x.T.Rows) == 0 {
			rt.Empty = true
		}
		return rt, nil

	default:
		// Unknown operator: recurse for annotation coverage, type Any.
		for _, c := range op.Children() {
			if _, err := in.infer(c, env); err != nil {
				return nil, err
			}
		}
		return newRowType(op.Columns()), nil
	}
}

func newRowType(cols []string) *RowType {
	return &RowType{Cols: cols, Types: make(map[string]*pattern.P, len(cols))}
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
func (in *inferrer) consType(c *algebra.Cons, inRT *RowType) *pattern.P {
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
			kp := in.consType(kid.C, inRT)
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
