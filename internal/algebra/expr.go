// Package algebra implements the YAT XML algebra of Section 3: the Bind and
// Tree operators newly introduced for tree structures, the classical
// operators inherited from the object algebra (Select, Project, Join, DJoin,
// Union, Intersect, Group, Sort, Map), Skolem functions, and SourceQuery
// nodes that push subplans to wrapped sources. The package is the plan
// representation plus what one operator computes from one chunk of rows: each
// operator contributes a kernel (Apply: input chunk(s) to output chunk, no
// recursion, no I/O) or, for a leaf, a cursor over a source (Stream). Walking
// a plan, scheduling and the state that spans chunks belong to internal/exec,
// the one evaluator. Kernels run against a Context holding the catalog of
// named inputs, the identifier store, the Skolem registry and external
// functions.
package algebra

import (
	"fmt"
	"strings"

	"repro/internal/data"
	"repro/internal/tab"
)

// Expr is a side-effect-free expression evaluated against one row.
type Expr interface {
	// Eval computes the expression value for a row; cols maps column names
	// to row positions. Free variables not bound by the row are looked up
	// in the context parameters (information passing through DJoin).
	Eval(ctx *Context, cols map[string]int, row tab.Row) (tab.Cell, error)
	// Vars returns the column names the expression reads.
	Vars() []string
	// String renders the expression in the textual syntax accepted by
	// ParseExpr.
	String() string
}

// Var reads a column (or a DJoin parameter when the column is absent).
type Var struct{ Name string }

// Eval implements Expr.
func (v Var) Eval(ctx *Context, cols map[string]int, row tab.Row) (tab.Cell, error) {
	if i, ok := cols[v.Name]; ok && i < len(row) {
		return row[i], nil
	}
	if ctx != nil {
		if c, ok := ctx.Params[v.Name]; ok {
			return c, nil
		}
	}
	return tab.Null(), fmt.Errorf("algebra: unbound variable %s", v.Name)
}

// Vars implements Expr.
func (v Var) Vars() []string { return []string{v.Name} }

// String implements Expr.
func (v Var) String() string { return v.Name }

// Const is a literal atom.
type Const struct{ Atom data.Atom }

// Eval implements Expr.
func (c Const) Eval(*Context, map[string]int, tab.Row) (tab.Cell, error) {
	return tab.AtomCell(c.Atom), nil
}

// Vars implements Expr.
func (c Const) Vars() []string { return nil }

// String implements Expr.
func (c Const) String() string {
	if c.Atom.Kind == data.KindString {
		return fmt.Sprintf("%q", c.Atom.S)
	}
	return c.Atom.Text()
}

// CmpOp enumerates comparison operators.
type CmpOp string

// Comparison operators.
const (
	OpEq CmpOp = "="
	OpNe CmpOp = "!="
	OpLt CmpOp = "<"
	OpLe CmpOp = "<="
	OpGt CmpOp = ">"
	OpGe CmpOp = ">="
)

// Cmp compares two sub-expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr.
func (c Cmp) Eval(ctx *Context, cols map[string]int, row tab.Row) (tab.Cell, error) {
	l, err := c.L.Eval(ctx, cols, row)
	if err != nil {
		return tab.Null(), err
	}
	r, err := c.R.Eval(ctx, cols, row)
	if err != nil {
		return tab.Null(), err
	}
	if l.IsNull() || r.IsNull() {
		// Comparisons against absent optional fields are false, never errors:
		// semistructured data routinely misses fields.
		return tab.AtomCell(data.Bool(false)), nil
	}
	var res bool
	switch c.Op {
	case OpEq:
		res = l.Equal(r)
	case OpNe:
		res = !l.Equal(r)
	default:
		la, lok := l.AsAtom()
		ra, rok := r.AsAtom()
		if !lok || !rok {
			return tab.Null(), fmt.Errorf("algebra: ordered comparison %s on non-atomic cells", c.Op)
		}
		cmp := la.Compare(ra)
		switch c.Op {
		case OpLt:
			res = cmp < 0
		case OpLe:
			res = cmp <= 0
		case OpGt:
			res = cmp > 0
		case OpGe:
			res = cmp >= 0
		default:
			return tab.Null(), fmt.Errorf("algebra: unknown comparison %q", c.Op)
		}
	}
	return tab.AtomCell(data.Bool(res)), nil
}

// Vars implements Expr.
func (c Cmp) Vars() []string { return append(c.L.Vars(), c.R.Vars()...) }

// String implements Expr.
func (c Cmp) String() string {
	return fmt.Sprintf("%s %s %s", operand(c.L), c.Op, operand(c.R))
}

// operand prints an operand of a comparison or an arithmetic operator,
// parenthesized when it is itself a comparison or a negation, which would
// otherwise re-parse as the outer expression's parent.
func operand(e Expr) string {
	switch e.(type) {
	case Cmp, Not:
		return "(" + e.String() + ")"
	}
	return e.String()
}

// And is conjunction.
type And struct{ L, R Expr }

// Eval implements Expr.
func (a And) Eval(ctx *Context, cols map[string]int, row tab.Row) (tab.Cell, error) {
	l, err := truth(a.L, ctx, cols, row)
	if err != nil {
		return tab.Null(), err
	}
	if !l {
		return tab.AtomCell(data.Bool(false)), nil
	}
	r, err := truth(a.R, ctx, cols, row)
	if err != nil {
		return tab.Null(), err
	}
	return tab.AtomCell(data.Bool(r)), nil
}

// Vars implements Expr.
func (a And) Vars() []string { return append(a.L.Vars(), a.R.Vars()...) }

// String implements Expr.
func (a And) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }

// Or is disjunction.
type Or struct{ L, R Expr }

// Eval implements Expr.
func (o Or) Eval(ctx *Context, cols map[string]int, row tab.Row) (tab.Cell, error) {
	l, err := truth(o.L, ctx, cols, row)
	if err != nil {
		return tab.Null(), err
	}
	if l {
		return tab.AtomCell(data.Bool(true)), nil
	}
	r, err := truth(o.R, ctx, cols, row)
	if err != nil {
		return tab.Null(), err
	}
	return tab.AtomCell(data.Bool(r)), nil
}

// Vars implements Expr.
func (o Or) Vars() []string { return append(o.L.Vars(), o.R.Vars()...) }

// String implements Expr.
func (o Or) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }

// Not is negation.
type Not struct{ E Expr }

// Eval implements Expr.
func (n Not) Eval(ctx *Context, cols map[string]int, row tab.Row) (tab.Cell, error) {
	v, err := truth(n.E, ctx, cols, row)
	if err != nil {
		return tab.Null(), err
	}
	return tab.AtomCell(data.Bool(!v)), nil
}

// Vars implements Expr.
func (n Not) Vars() []string { return n.E.Vars() }

// String implements Expr.
func (n Not) String() string { return fmt.Sprintf("NOT (%s)", n.E) }

// Call invokes an external function registered in the context, e.g. the
// Wais contains predicate or the O₂ current_price method (Section 4).
type Call struct {
	Name string
	Args []Expr
}

// Eval implements Expr.
func (c Call) Eval(ctx *Context, cols map[string]int, row tab.Row) (tab.Cell, error) {
	if ctx == nil || ctx.Funcs == nil {
		return tab.Null(), fmt.Errorf("algebra: no function registry for %s", c.Name)
	}
	fn, ok := ctx.Funcs[c.Name]
	if !ok {
		return tab.Null(), fmt.Errorf("algebra: unknown function %s", c.Name)
	}
	args := make([]tab.Cell, len(c.Args))
	for i, a := range c.Args {
		v, err := a.Eval(ctx, cols, row)
		if err != nil {
			return tab.Null(), err
		}
		args[i] = v
	}
	ctx.count(Stats{FuncCalls: 1})
	return fn(args)
}

// Vars implements Expr.
func (c Call) Vars() []string {
	var out []string
	for _, a := range c.Args {
		out = append(out, a.Vars()...)
	}
	return out
}

// String implements Expr.
func (c Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Name, strings.Join(parts, ", "))
}

// ArithOp enumerates arithmetic operators.
type ArithOp string

// Arithmetic operators.
const (
	OpAdd ArithOp = "+"
	OpSub ArithOp = "-"
	OpMul ArithOp = "×"
	OpDiv ArithOp = "/"
)

// Arith computes numeric arithmetic over two sub-expressions.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval implements Expr.
func (a Arith) Eval(ctx *Context, cols map[string]int, row tab.Row) (tab.Cell, error) {
	l, err := a.L.Eval(ctx, cols, row)
	if err != nil {
		return tab.Null(), err
	}
	r, err := a.R.Eval(ctx, cols, row)
	if err != nil {
		return tab.Null(), err
	}
	la, lok := l.AsAtom()
	ra, rok := r.AsAtom()
	if !lok || !rok || !la.IsNumeric() || !ra.IsNumeric() {
		return tab.Null(), fmt.Errorf("algebra: arithmetic %s on non-numeric cells", a.Op)
	}
	if la.Kind == data.KindInt && ra.Kind == data.KindInt && a.Op != OpDiv {
		var v int64
		switch a.Op {
		case OpAdd:
			v = la.I + ra.I
		case OpSub:
			v = la.I - ra.I
		case OpMul:
			v = la.I * ra.I
		}
		return tab.AtomCell(data.Int(v)), nil
	}
	x, y := la.AsFloat(), ra.AsFloat()
	var v float64
	switch a.Op {
	case OpAdd:
		v = x + y
	case OpSub:
		v = x - y
	case OpMul:
		v = x * y
	case OpDiv:
		if y == 0 {
			return tab.Null(), fmt.Errorf("algebra: division by zero")
		}
		v = x / y
	default:
		return tab.Null(), fmt.Errorf("algebra: unknown arithmetic %q", a.Op)
	}
	return tab.AtomCell(data.Float(v)), nil
}

// Vars implements Expr.
func (a Arith) Vars() []string { return append(a.L.Vars(), a.R.Vars()...) }

// String implements Expr.
func (a Arith) String() string {
	op := string(a.Op)
	if a.Op == OpMul {
		op = "*"
	}
	return fmt.Sprintf("(%s %s %s)", operand(a.L), op, operand(a.R))
}

// truth evaluates e and coerces to boolean.
func truth(e Expr, ctx *Context, cols map[string]int, row tab.Row) (bool, error) {
	v, err := e.Eval(ctx, cols, row)
	if err != nil {
		return false, err
	}
	a, ok := v.AsAtom()
	if !ok || a.Kind != data.KindBool {
		return false, fmt.Errorf("algebra: predicate %s did not evaluate to a boolean", e)
	}
	return a.B, nil
}

// Func is an external function callable from expressions.
type Func func(args []tab.Cell) (tab.Cell, error)

// TrueExpr returns a constant-true predicate.
func TrueExpr() Expr { return Const{Atom: data.Bool(true)} }

// Eq builds L = R.
func Eq(l, r Expr) Expr { return Cmp{Op: OpEq, L: l, R: r} }

// VarEq builds $l = $r over two columns.
func VarEq(l, r string) Expr { return Eq(Var{l}, Var{r}) }

// Conj folds a list of predicates into a conjunction (true when empty).
func Conj(es ...Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = And{out, e}
		}
	}
	if out == nil {
		return TrueExpr()
	}
	return out
}

// SplitConj flattens nested conjunctions into a list of conjuncts.
func SplitConj(e Expr) []Expr {
	if a, ok := e.(And); ok {
		return append(SplitConj(a.L), SplitConj(a.R)...)
	}
	if c, ok := e.(Const); ok && c.Atom.Kind == data.KindBool && c.Atom.B {
		return nil
	}
	return []Expr{e}
}

// EqColumns recognises an equality between two columns, returning the pair;
// used by the Join operator to choose a hash strategy and by the optimizer
// for Join/DJoin reasoning.
func EqColumns(e Expr) (string, string, bool) {
	c, ok := e.(Cmp)
	if !ok || c.Op != OpEq {
		return "", "", false
	}
	l, lok := c.L.(Var)
	r, rok := c.R.(Var)
	if !lok || !rok {
		return "", "", false
	}
	return l.Name, r.Name, true
}
