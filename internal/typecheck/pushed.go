package typecheck

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/capability"
)

// pushed is a SourceQuery whose plan the walk is inside: every operator of
// that plan must be one the source declared in its capability interface
// (Figure 6), over the documents the plan touches.
type pushed struct {
	sq    *algebra.SourceQuery
	iface *capability.Interface // nil: no interface to hold the plan to
	docs  []string              // the documents the pushed plan touches
	diags []Diagnostic          // the capability findings, in walk order
	outer *pushed               // the SourceQuery this one is nested in
}

// check holds one operator of the pushed plan to the source's interface.
func (p *pushed) check(cfg *Config, op algebra.Op, path string) {
	if p.iface == nil {
		return
	}
	report := func(format string, args ...any) {
		p.diags = append(p.diags, diagnostic(CodeCapability, path, op, format, args...))
	}
	var name string
	var preds []algebra.Expr
	// yat-lint:ignore intentionally partial: the default is the point — any other operator is not pushable
	switch x := op.(type) {
	case *algebra.Bind:
		name = "bind"
	case *algebra.Select:
		name, preds = "select", algebra.SplitConj(x.Pred)
	case *algebra.Project:
		name = "project"
	case *algebra.Join:
		name, preds = "join", algebra.SplitConj(x.Pred)
	}
	if name == "" {
		report("operator %s cannot appear in a pushed plan", algebra.OpKind(op))
	} else if !p.iface.CoversOperation(name, p.docs) {
		report("source %q does not declare operation %q over %v", p.sq.Source, name, p.docs)
	}
	if b, ok := op.(*algebra.Bind); ok {
		if b.Doc == "" {
			report("pushed Bind must name a document")
		} else if owner, ok := cfg.SourceDocs[b.Doc]; ok && owner != p.sq.Source {
			report("pushed Bind reads %q which source %q does not export (owner: %q)", b.Doc, p.sq.Source, owner)
		} else if b.F != nil && b.F.Root != nil {
			if err := p.iface.AcceptsFilter(b.Doc, b.F); err != nil {
				report("source %q rejects the filter: %v", p.sq.Source, err)
			}
		}
	}
	for _, conj := range preds {
		if err := PredFeasible(p.iface, conj, p.docs); err != nil {
			report("source %q cannot evaluate %s: %v", p.sq.Source, conj, err)
		}
	}
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
// returns nil, and Check holds every pushed plan to the same answer.
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
