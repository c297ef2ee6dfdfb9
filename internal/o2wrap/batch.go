package o2wrap

import (
	"context"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/nodetab"
	"repro/internal/o2"
	"repro/internal/tab"
)

// The wrapper evaluates batched pushes natively (algebra.BatchSource): the
// plan is translated once and O₂ answers the whole batch with one query, a
// semi-join of the extents with the bindings.
var _ algebra.BatchSource = (*Wrapper)(nil)

// PushBatch implements algebra.BatchSource. All-or-error: a failing binding
// aborts the batch and no partial results are returned.
func (w *Wrapper) PushBatch(plan algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	return w.PushBatchContext(context.Background(), plan, bindings)
}

// PushBatchContext implements algebra.BatchSource: PushBatch under a
// cancellation context. ctx is checked once, before the one query runs; the
// grain of cancellation is therefore a batch, which the engine keeps to at
// most BatchChunk bindings. An error that one binding causes (a non-atomic
// cell, a variable it leaves unbound) names it: "binding i: …".
func (w *Wrapper) PushBatchContext(ctx context.Context, plan algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	out, at, err := w.pushSet(ctx, plan, bindings)
	if err != nil && at >= 0 {
		err = fmt.Errorf("binding %d: %w", at, err)
	}
	return out, err
}

// bindVar names the range over the bindings and bindIndex the projected
// field that says which binding a result row answers.
const (
	bindVar   = "B"
	bindIndex = "bi"
)

// pushSet answers plan once per binding set with one OQL query:
//
//	select bi: B.i, c0: R1.title, …
//	from B in bag(tuple(i: 0, p0: "Mary Cassatt", p1: "Painting 7"), …),
//	     R1 in artifacts, R2 in R1.owners
//	where … and R1.creator = B.p0 and R1.title = B.p1
//
// B is the outermost range, so the rows arrive grouped by binding, in
// binding order and in extent order within one binding, and are dealt into
// the per-binding Tabs as they come. A single binding set of a plan without
// free variables needs no B. The int names the binding an error belongs to,
// -1 when it belongs to none.
func (w *Wrapper) pushSet(ctx context.Context, plan algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, int, error) {
	out := make([]*tab.Tab, len(bindings))
	if nodetab.TouchesPlan(plan) {
		// Node-table plans bypass OQL: they evaluate against the cached
		// pre/post numbering of the extent (axis predicates are ordinary
		// comparisons there, including the range joins of descendant
		// steps), binding by binding.
		for i, b := range bindings {
			if err := ctx.Err(); err != nil {
				return nil, -1, err
			}
			t, err := nodetab.Eval(plan, b, w.nodeTable)
			if err != nil {
				return nil, i, err
			}
			out[i] = t
		}
		return out, -1, nil
	}
	if len(bindings) == 0 {
		return out, -1, nil
	}
	tr := &translator{w: w, varInfo: map[string]varBinding{}}
	if err := tr.build(plan); err != nil {
		return nil, -1, err
	}
	q := &o2.Query{Ranges: tr.ranges}
	if len(tr.where) > 0 {
		q.Where = conjOQL(tr.where)
	}
	if len(tr.free) > 0 || len(bindings) > 1 {
		bag, at, err := bindingBag(tr.free, bindings)
		if err != nil {
			return nil, at, err
		}
		q.Ranges = append([]o2.Range{{Var: bindVar, Lit: &bag}}, tr.ranges...)
		q.Proj = append(q.Proj, o2.ProjItem{Name: bindIndex,
			E: &o2.OPath{Root: bindVar, Steps: []o2.OStep{{Name: "i"}}}})
	}
	outCols := plan.Columns()
	vbs := make([]varBinding, len(outCols))
	aliases := make([]string, len(outCols))
	for i, col := range outCols {
		vb, ok := tr.varInfo[col]
		if !ok {
			return nil, -1, fmt.Errorf("o2wrap: output column %s is not bound by the pushed plan", col)
		}
		vbs[i], aliases[i] = vb, fmt.Sprintf("c%d", i)
		q.Proj = append(q.Proj, o2.ProjItem{Name: aliases[i], E: vb.path})
	}
	w.setLastOQL(q.String())
	if err := ctx.Err(); err != nil {
		return nil, -1, err
	}
	res, err := w.DB.Run(q)
	if err != nil {
		return nil, -1, fmt.Errorf("o2wrap: %w", err)
	}
	for i := range out {
		out[i] = tab.New(outCols...)
	}
	for _, rv := range res.Elems {
		row := make(tab.Row, len(outCols))
		for i := range outCols {
			if row[i], err = w.valToCell(vbs[i], rv.Fields[aliases[i]]); err != nil {
				return nil, -1, err
			}
		}
		// Without a binding range there is no bi field, and its zero value
		// is the one binding's index.
		out[rv.Fields[bindIndex].I].AddRow(row)
	}
	return out, -1, nil
}

// bindingBag is the collection literal the binding range iterates: per
// binding set, its index and the values of the plan's free variables.
func bindingBag(free []string, bindings []map[string]tab.Cell) (o2.Val, int, error) {
	fields := make([]string, len(free))
	for k := range free {
		fields[k] = paramField(k)
	}
	elems := make([]o2.Val, len(bindings))
	for i, b := range bindings {
		pairs := append(make([]any, 0, 2+2*len(free)), "i", o2.Int(int64(i)))
		for k, name := range free {
			c, ok := b[name]
			if !ok {
				return o2.Nil(), i, fmt.Errorf("o2wrap: unbound variable %s in pushed predicate", name)
			}
			v, err := cellToVal(c)
			if err != nil {
				return o2.Nil(), i, fmt.Errorf("o2wrap: parameter %s: %w", name, err)
			}
			pairs = append(pairs, fields[k], v)
		}
		elems[i] = o2.Tuple(pairs...)
	}
	return o2.Coll(o2.CBag, elems...), -1, nil
}
