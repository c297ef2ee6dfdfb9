package feed

import (
	"context"
	"fmt"
	"io"

	"repro/internal/algebra"
	"repro/internal/tab"
)

// The feed wrapper streams pushed queries natively: the index lookups are
// cheap (ascending id lists), only record matching and predicate
// verification are O(result), and both are paced by the consumer below. A
// native FetchStream is deliberately absent — the records document is
// single-rooted, and re-chunking it under synthetic roots would change the
// semantics of a mediator-side bind over the whole root; the wire layer
// already adapts Fetch into bounded stream frames.
var _ algebra.PushStreamSource = (*Wrapper)(nil)

// Push implements algebra.Source: PushStream drained — compile, check the
// column lineup, narrow through the indexes, match, verify, project.
func (w *Wrapper) Push(plan algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	cur, err := w.PushStream(context.Background(), plan, params)
	if err != nil {
		return nil, err
	}
	return tab.Drain(cur)
}

// PushStream implements algebra.PushStreamSource, and is the wrapper's one
// evaluation of a push: compilation and index narrowing run at open, and
// candidate records are matched, verified and projected lazily in bounded
// chunks as the consumer pulls — a large result never materializes
// wrapper-side.
func (w *Wrapper) PushStream(ctx context.Context, plan algebra.Op, params map[string]tab.Cell) (tab.Cursor, error) {
	q, err := w.compilePush(plan, params)
	if err != nil {
		return nil, err
	}
	// Validate the output column lineup at open time, so a bad plan fails
	// before any chunk is shipped. The filter's binding columns are
	// deterministic (pre-order variables), so the projected shape is known
	// without evaluating a row.
	cols := q.f.Vars()
	for _, p := range q.projects {
		cols = p
	}
	if len(cols) != len(q.outCols) {
		return nil, fmt.Errorf("feed: pushed plan columns %v do not line up with %v", cols, q.outCols)
	}
	for i, c := range cols {
		if c != q.outCols[i] {
			return nil, fmt.Errorf("feed: pushed plan columns %v do not line up with %v", cols, q.outCols)
		}
	}
	ids := w.candidates(q)
	pos := 0
	return &tab.FuncCursor{
		Columns: q.outCols,
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
			out, err := w.evalRows(q, ids[pos:hi], params)
			if err != nil {
				return nil, err
			}
			pos = hi
			return out, nil
		},
	}, nil
}
