package waiswrap

import (
	"context"
	"fmt"
	"io"

	"repro/internal/algebra"
	"repro/internal/nodetab"
	"repro/internal/tab"
)

// The Wais wrapper streams pushed queries natively: the search phase is
// cheap (id lists), only document retrieval is O(result), and retrieval is
// paced by the consumer below.
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
// evaluation of a push: the capability check and full-text search run at
// open, and the matched documents are retrieved lazily in bounded chunks as
// the consumer pulls — a large result never materializes wrapper-side.
// Node-table plans keep the materialized evaluation (their results are joins
// over the whole numbering anyway) and are served as a chunked slice.
func (w *Wrapper) PushStream(ctx context.Context, plan algebra.Op, params map[string]tab.Cell) (tab.Cursor, error) {
	if nodetab.TouchesPlan(plan) {
		t, err := nodetab.Eval(plan, params, w.nodeTable)
		if err != nil {
			return nil, err
		}
		return tab.NewSliceCursor(t, tab.DefaultStreamChunk), nil
	}
	docVar, ids, err := w.compilePush(plan, params)
	if err != nil {
		return nil, err
	}
	outCols := plan.Columns()
	// Validate the whole column set at open time, so a bad plan fails
	// before any chunk is shipped.
	for _, c := range outCols {
		if c != docVar && renamedFrom(plan, c) != docVar {
			return nil, fmt.Errorf("waiswrap: output column %s is not bound", c)
		}
	}
	pos := 0
	return &tab.FuncCursor{
		Columns: outCols,
		NextFn: func() (*tab.Tab, error) {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if pos >= len(ids) {
				return nil, io.EOF
			}
			hi := pos + tab.DefaultStreamChunk
			if hi > len(ids) {
				hi = len(ids)
			}
			out := tab.New(outCols...)
			for _, id := range ids[pos:hi] {
				doc := w.E.Retrieve(id)
				row := make(tab.Row, len(outCols))
				for i := range outCols {
					row[i] = tab.TreeCell(doc)
				}
				out.AddRow(row)
			}
			pos = hi
			return out, nil
		},
	}, nil
}
