package feed

import (
	"context"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/tab"
)

// The wrapper evaluates batched pushes natively (algebra.BatchSource): a
// mediator ships a parameterized fetch-by-id or filter plan once per batch
// instead of once per binding row.
var _ algebra.BatchSource = (*Wrapper)(nil)

// PushBatch implements algebra.BatchSource: the plan is evaluated once per
// binding set. All-or-error: a failing binding aborts the batch and no
// partial results are returned.
func (w *Wrapper) PushBatch(plan algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	return w.PushBatchContext(context.Background(), plan, bindings)
}

// PushBatchContext implements algebra.BatchSource: PushBatch under a
// cancellation context, checked between bindings. Each binding compiles the
// plan again (compilePush resolves the parameters into the lookup keys), then
// does its index lookups and row verification; what a batch saves is the
// round trip per binding.
func (w *Wrapper) PushBatchContext(ctx context.Context, plan algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	out := make([]*tab.Tab, len(bindings))
	for i, b := range bindings {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		q, err := w.compilePush(plan, b)
		if err != nil {
			return nil, fmt.Errorf("binding %d: %w", i, err)
		}
		t, err := w.evalRows(q, w.candidates(q), b)
		if err != nil {
			return nil, fmt.Errorf("binding %d: %w", i, err)
		}
		out[i] = t
	}
	return out, nil
}
