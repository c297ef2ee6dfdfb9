package waiswrap

import (
	"context"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/nodetab"
	"repro/internal/tab"
)

// The Wais wrapper streams pushed queries natively: the search phase is
// cheap (id lists), only document retrieval is O(result), and
// exec.Candidates paces retrieval by the consumer.
var _ algebra.PushStreamSource = (*Wrapper)(nil)

// Push implements algebra.Source: PushStream drained. The only supported
// shapes — exactly the declared capabilities — are Project*/Select* over
// Bind(works) with the Fworks filter; selections may only carry contains
// predicates over the bound document variable (possibly with parameters
// inlined from a DJoin).
func (w *Wrapper) Push(plan algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	cur, err := w.PushStream(context.Background(), plan, params)
	if err != nil {
		return nil, err
	}
	return tab.Drain(cur)
}

// PushStream implements algebra.PushStreamSource, and is the wrapper's one
// answer to a push: the capability check and the full-text search run at
// open, and the algebra answers what the search leaves of the plan — the
// bind and its projections — over the matched documents, retrieved in
// bounded chunks as the consumer pulls. Node-table plans are answered by
// nodetab.Eval over the built table and served as a chunked slice.
func (w *Wrapper) PushStream(ctx context.Context, plan algebra.Op, params map[string]tab.Cell) (tab.Cursor, error) {
	if nodetab.TouchesPlan(plan) {
		t, err := nodetab.Eval(plan, params, w.nodeTable)
		if err != nil {
			return nil, err
		}
		return tab.NewSliceCursor(t, tab.DefaultStreamChunk), nil
	}
	rest, ids, err := w.compilePush(plan, params)
	if err != nil {
		return nil, err
	}
	return exec.Candidates(ctx, rest, params, nil, "works", ids, w.E.Retrieve)
}
