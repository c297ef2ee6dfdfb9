package o2wrap

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/filter"
	"repro/internal/o2"
	"repro/internal/tab"
)

// Push implements algebra.Source: it translates a pushed algebraic subplan
// (Project* / Select* over a Bind on one extent, exactly the shapes admitted
// by the capability interface) into a single OQL query, executes it, and
// converts the result back into a Tab. It is pushSet with a batch of one:
// the free variables of the plan are resolved against params — the
// "information passing" of Section 5.3, where a DJoin feeds left-hand
// bindings into the query pushed to O₂.
func (w *Wrapper) Push(plan algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	out, _, err := w.pushSet(context.Background(), plan, []map[string]tab.Cell{params})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// varBinding records how an algebra variable maps to OQL: the path that
// computes it and the shape of the cell the mediator-side Bind would have
// produced (so pushed and unpushed plans are indistinguishable).
type varBinding struct {
	path  *o2.OPath
	kind  bindKind
	field string // for kField / kColl: the element label to reconstruct
}

type bindKind int

const (
	kAtom   bindKind = iota // content variable: an atomic cell
	kField                  // variable on a leaf field node: <field>v</field>
	kObject                 // variable on a class node: the whole object tree
	kColl                   // variable on a collection field: <field><list>..</list></field>
)

type translator struct {
	w *Wrapper
	// free lists the plan's free variables in the order the predicates
	// mention them: variable k is field p<k> of the binding tuples.
	free    []string
	ranges  []o2.Range
	where   []o2.OExpr
	varInfo map[string]varBinding
	nextVar int
}

func (tr *translator) freshVar() string {
	tr.nextVar++
	return fmt.Sprintf("R%d", tr.nextVar)
}

func (tr *translator) build(op algebra.Op) error {
	// yat-lint:ignore intentionally partial: translates exactly the operations the OQL interface declares; the default refuses the push
	switch x := op.(type) {
	case *algebra.Project:
		if err := tr.build(x.From); err != nil {
			return err
		}
		// Apply renames new=old.
		for _, c := range x.Cols {
			if i := strings.IndexByte(c, '='); i >= 0 {
				if vb, ok := tr.varInfo[c[i+1:]]; ok {
					tr.varInfo[c[:i]] = vb
				}
			}
		}
		return nil
	case *algebra.Select:
		if err := tr.build(x.From); err != nil {
			return err
		}
		for _, conj := range algebra.SplitConj(x.Pred) {
			oe, err := tr.expr(conj)
			if err != nil {
				return err
			}
			tr.where = append(tr.where, oe)
		}
		return nil
	case *algebra.Bind:
		if x.Doc == "" {
			return fmt.Errorf("o2wrap: only binds over extents can be pushed")
		}
		cls := tr.w.DB.Schema.ClassByExtent(x.Doc)
		if cls == nil {
			return fmt.Errorf("o2wrap: unknown extent %q", x.Doc)
		}
		return tr.bindFilter(x.Doc, cls, x.F.Root)
	case *algebra.Join:
		// OQL is a full query language: a join of two extents of this
		// database becomes additional from-ranges plus where-conjuncts.
		if err := tr.build(x.L); err != nil {
			return err
		}
		if err := tr.build(x.R); err != nil {
			return err
		}
		for _, conj := range algebra.SplitConj(x.Pred) {
			oe, err := tr.expr(conj)
			if err != nil {
				return err
			}
			tr.where = append(tr.where, oe)
		}
		return nil
	default:
		return fmt.Errorf("o2wrap: operator %T cannot be pushed to OQL", op)
	}
}

// bindFilter handles the extent-level filter: set[ *class[ ... ] ].
func (tr *translator) bindFilter(extent string, cls *o2.Class, root *filter.FNode) error {
	if root.Label != "set" && root.Label != extent {
		return fmt.Errorf("o2wrap: extent filter must match the set, got %q", root.Label)
	}
	if len(root.Items) != 1 || !root.Items[0].Star {
		return fmt.Errorf("o2wrap: extent filter must iterate members (*class[...])")
	}
	v := tr.freshVar()
	tr.ranges = append(tr.ranges, o2.Range{Var: v, Path: &o2.OPath{Root: extent}})
	return tr.classFilter(v, cls, root.Items[0].F)
}

// classFilter handles class[ classname[ tuple[...] ] ].
func (tr *translator) classFilter(rangeVar string, cls *o2.Class, cn *filter.FNode) error {
	if cn.Label != "class" {
		return fmt.Errorf("o2wrap: expected class filter, got %q", cn.Label)
	}
	if cn.Var != "" {
		tr.varInfo[cn.Var] = varBinding{path: &o2.OPath{Root: rangeVar}, kind: kObject}
	}
	if len(cn.Items) == 0 {
		return nil
	}
	if len(cn.Items) != 1 || cn.Items[0].Star {
		return fmt.Errorf("o2wrap: class filter must name the class once")
	}
	nameNode := cn.Items[0].F
	if nameNode.Label == "" {
		return fmt.Errorf("o2wrap: class name must be ground (inst=ground)")
	}
	if len(nameNode.Items) == 0 {
		return nil
	}
	if len(nameNode.Items) != 1 {
		return fmt.Errorf("o2wrap: class body must be a single type filter")
	}
	body := nameNode.Items[0].F
	if body.Label == "tuple" {
		return tr.tupleFilter(rangeVar, cls.Type, body)
	}
	return fmt.Errorf("o2wrap: unsupported class body filter %q", body.Label)
}

// tupleFilter handles tuple[ field: ..., ... ] over a tuple type.
func (tr *translator) tupleFilter(rangeVar string, ty *o2.Type, tn *filter.FNode) error {
	for _, it := range tn.Items {
		if it.Star || it.CollectVar != "" || it.Descend {
			return fmt.Errorf("o2wrap: tuple attributes must be enumerated (inst=ground)")
		}
		fn := it.F
		if fn.Label == "" || fn.AnyLabel || fn.LabelVar != "" {
			return fmt.Errorf("o2wrap: attribute names must be ground")
		}
		fty := ty.Field(fn.Label)
		if fty == nil {
			return fmt.Errorf("o2wrap: unknown attribute %q", fn.Label)
		}
		path := &o2.OPath{Root: rangeVar, Steps: []o2.OStep{{Name: fn.Label}}}
		if fn.Var != "" {
			kind := kField
			if fty.Kind == o2.TColl {
				kind = kColl
			}
			tr.varInfo[fn.Var] = varBinding{path: path, kind: kind, field: fn.Label}
		}
		if fn.Const != nil {
			tr.where = append(tr.where, o2.OCmp{Op: "=", L: path, R: o2.OLit{V: atomToVal(*fn.Const)}})
		}
		if len(fn.Items) == 0 {
			continue
		}
		if len(fn.Items) != 1 {
			return fmt.Errorf("o2wrap: attribute %q has multiple content filters", fn.Label)
		}
		content := fn.Items[0]
		switch {
		case content.F != nil && content.F.Label == "" && !content.F.AnyLabel && content.F.Var != "":
			// atomic content variable: title: $t
			tr.varInfo[content.F.Var] = varBinding{path: path, kind: kAtom}
			if content.F.Const != nil {
				tr.where = append(tr.where, o2.OCmp{Op: "=", L: path, R: o2.OLit{V: atomToVal(*content.F.Const)}})
			}
		case content.F != nil && content.F.Label == "" && content.F.Const != nil:
			tr.where = append(tr.where, o2.OCmp{Op: "=", L: path, R: o2.OLit{V: atomToVal(*content.F.Const)}})
		case content.F != nil && fty.Kind == o2.TColl:
			// nested collection: owners.list[ *class[...] ] or list[ *$o ]
			if err := tr.collectionFilter(path, fty, content.F); err != nil {
				return err
			}
		default:
			return fmt.Errorf("o2wrap: unsupported content filter under %q", fn.Label)
		}
	}
	return nil
}

// collectionFilter handles field.list[ *member ] content: a dependent range.
func (tr *translator) collectionFilter(path *o2.OPath, fty *o2.Type, coll *filter.FNode) error {
	if coll.Label != fty.Col.String() {
		return fmt.Errorf("o2wrap: expected %s filter, got %q", fty.Col, coll.Label)
	}
	if len(coll.Items) != 1 || !coll.Items[0].Star {
		return fmt.Errorf("o2wrap: collection members must be iterated with a star")
	}
	member := coll.Items[0].F
	v := tr.freshVar()
	tr.ranges = append(tr.ranges, o2.Range{Var: v, Path: path})
	switch {
	case member.Label == "class":
		if fty.Elem.Kind != o2.TClass {
			return fmt.Errorf("o2wrap: class filter over non-reference collection")
		}
		return tr.classFilter(v, tr.w.DB.Schema.Classes[fty.Elem.Class], member)
	case member.Label == "" && member.Var != "":
		tr.varInfo[member.Var] = varBinding{path: &o2.OPath{Root: v}, kind: kAtom}
		return nil
	default:
		return fmt.Errorf("o2wrap: unsupported collection member filter")
	}
}

// param is the OQL path of a free variable: a field of the binding range.
func (tr *translator) param(name string) *o2.OPath {
	k := 0
	for k < len(tr.free) && tr.free[k] != name {
		k++
	}
	if k == len(tr.free) {
		tr.free = append(tr.free, name)
	}
	return &o2.OPath{Root: bindVar, Steps: []o2.OStep{{Name: paramField(k)}}}
}

func paramField(k int) string { return fmt.Sprintf("p%d", k) }

// expr converts an algebra predicate to OQL; a variable the plan does not
// bind is a parameter.
func (tr *translator) expr(e algebra.Expr) (o2.OExpr, error) {
	switch x := e.(type) {
	case algebra.Var:
		if vb, ok := tr.varInfo[x.Name]; ok {
			return vb.path, nil
		}
		return tr.param(x.Name), nil
	case algebra.Const:
		return o2.OLit{V: atomToVal(x.Atom)}, nil
	case algebra.Cmp:
		l, err := tr.expr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := tr.expr(x.R)
		if err != nil {
			return nil, err
		}
		op := string(x.Op)
		return o2.OCmp{Op: op, L: l, R: r}, nil
	case algebra.And:
		l, err := tr.expr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := tr.expr(x.R)
		if err != nil {
			return nil, err
		}
		return o2.OBool{Op: "and", L: l, R: r}, nil
	case algebra.Or:
		l, err := tr.expr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := tr.expr(x.R)
		if err != nil {
			return nil, err
		}
		return o2.OBool{Op: "or", L: l, R: r}, nil
	case algebra.Not:
		r, err := tr.expr(x.E)
		if err != nil {
			return nil, err
		}
		return o2.OBool{Op: "not", R: r}, nil
	case algebra.Arith:
		l, err := tr.expr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := tr.expr(x.R)
		if err != nil {
			return nil, err
		}
		op := string(x.Op)
		if x.Op == algebra.OpMul {
			op = "*"
		}
		return o2.OArith{Op: op, L: l, R: r}, nil
	case algebra.Call:
		// Method call on an object variable: current_price($c).
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("o2wrap: method %s expects one object argument", x.Name)
		}
		v, ok := x.Args[0].(algebra.Var)
		if !ok {
			return nil, fmt.Errorf("o2wrap: method %s must apply to a variable", x.Name)
		}
		vb, ok := tr.varInfo[v.Name]
		if !ok || vb.kind != kObject {
			return nil, fmt.Errorf("o2wrap: method %s must apply to an object variable", x.Name)
		}
		p := &o2.OPath{Root: vb.path.Root, Steps: append(append([]o2.OStep{}, vb.path.Steps...),
			o2.OStep{Name: x.Name, Method: true})}
		return p, nil
	default:
		return nil, fmt.Errorf("o2wrap: unsupported expression %T in pushed plan", e)
	}
}

func conjOQL(es []o2.OExpr) o2.OExpr {
	out := es[0]
	for _, e := range es[1:] {
		out = o2.OBool{Op: "and", L: out, R: e}
	}
	return out
}

func atomToVal(a data.Atom) o2.Val {
	switch a.Kind {
	case data.KindInt:
		return o2.Int(a.I)
	case data.KindFloat:
		return o2.Float(a.F)
	case data.KindBool:
		return o2.Bool(a.B)
	default:
		return o2.Str(a.S)
	}
}

func cellToVal(c tab.Cell) (o2.Val, error) {
	a, ok := c.AsAtom()
	if !ok {
		return o2.Nil(), fmt.Errorf("non-atomic cell cannot cross into OQL")
	}
	return atomToVal(a), nil
}

// valToCell converts an OQL result value to the cell the mediator-side Bind
// would have produced for the same variable.
func (w *Wrapper) valToCell(vb varBinding, v o2.Val) (tab.Cell, error) {
	switch vb.kind {
	case kAtom:
		switch v.Kind {
		case o2.VInt:
			return tab.AtomCell(data.Int(v.I)), nil
		case o2.VFloat:
			return tab.AtomCell(data.Float(v.F)), nil
		case o2.VBool:
			return tab.AtomCell(data.Bool(v.B)), nil
		case o2.VStr:
			return tab.AtomCell(data.String(v.S)), nil
		case o2.VOid:
			return tab.TreeCell(w.ExportObject(w.DB.Get(v.S))), nil
		default:
			return tab.TreeCell(w.ExportVal(v)), nil
		}
	case kObject:
		if v.Kind != o2.VOid {
			return tab.Null(), fmt.Errorf("o2wrap: expected an object, got %s", v)
		}
		return tab.TreeCell(w.ExportObject(w.DB.Get(v.S))), nil
	case kField:
		inner := w.ExportVal(v)
		field := data.Elem(vb.field)
		if inner.Label == "" && inner.Atom != nil {
			field.Atom = inner.Atom
		} else {
			field.Add(inner)
		}
		return tab.TreeCell(field), nil
	case kColl:
		field := data.Elem(vb.field, w.ExportVal(v))
		return tab.TreeCell(field), nil
	default:
		return tab.Null(), fmt.Errorf("o2wrap: unknown binding kind")
	}
}
