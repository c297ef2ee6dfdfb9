// The one way to call a source. A Source must implement four methods and may
// implement up to three optional interfaces on top (StreamSource,
// PushStreamSource, BatchSource); the three functions below are the only
// code that asks which of them a source has, and a wrapper implements one
// only when it answers that call better than the rung beneath: streaming
// where it can pace its own evaluation, a batch only where its language has
// a set-at-a-time form. Every caller — the engine's leaves, the replica
// router, the wire server — goes through them and sees one shape: a context
// and a document name or a plan with bindings go in, a cursor or one result
// per binding comes out. yat-lint refuses a type assertion to an optional
// call interface anywhere but this file.
package algebra

import (
	"context"
	"fmt"
	"io"

	"repro/internal/data"
	"repro/internal/tab"
)

// FetchStream opens doc at src as a tree stream: natively when the source
// streams, else one whole fetch served in DefaultStreamChunk batches, like
// any other cursor. A nil ctx means context.Background().
func FetchStream(ctx context.Context, src Source, doc string) (ForestCursor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ss, ok := src.(StreamSource); ok {
		return ss.FetchStream(ctx, doc)
	}
	f, err := src.Fetch(doc)
	if err != nil {
		return nil, err
	}
	return NewSliceForestCursor(f, tab.DefaultStreamChunk), nil
}

// PushStream evaluates plan under params at src and streams the rows:
// natively when the source streams pushes, else one whole push served in
// bounded chunks. A nil ctx means context.Background().
func PushStream(ctx context.Context, src Source, plan Op, params map[string]tab.Cell) (tab.Cursor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ps, ok := src.(PushStreamSource); ok {
		return ps.PushStream(ctx, plan, params)
	}
	t, err := src.Push(plan, params)
	if err != nil {
		return nil, err
	}
	return tab.NewSliceCursor(t, tab.DefaultStreamChunk), nil
}

// PushBatch evaluates plan once per binding set at src and returns exactly
// one result per binding, in binding order, all or error: in one call when
// the source takes batches, else binding by binding — ctx is checked before
// each, and a failing binding is named in the error ("binding i: ..."), as a
// native batch names it. A nil ctx means context.Background().
func PushBatch(ctx context.Context, src Source, plan Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	bs, ok := src.(BatchSource)
	if !ok {
		out := make([]*tab.Tab, len(bindings))
		for i, params := range bindings {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			t, err := src.Push(plan, params)
			if err != nil {
				return nil, fmt.Errorf("binding %d: %w", i, err)
			}
			out[i] = t
		}
		return out, nil
	}
	out, err := bs.PushBatchContext(ctx, plan, bindings)
	if err == nil && len(out) != len(bindings) {
		err = fmt.Errorf("batch returned %d results for %d bindings", len(out), len(bindings))
	}
	return out, err
}

// DrainForest reads a tree stream to its end and closes it.
func DrainForest(cur ForestCursor) (data.Forest, error) {
	defer cur.Close()
	var out data.Forest
	for {
		f, err := cur.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, f...)
	}
}
