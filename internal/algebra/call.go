// The one way to call a source. A Source must implement four methods and may
// implement up to four optional interfaces on top (ContextSource,
// StreamSource, PushStreamSource, BatchSource); the three functions below
// are the only code that asks which of them a source has. Every caller — the
// engine's leaves, the replica router, the wire server — goes through them
// and sees one shape: a context and a document name or a plan with bindings
// go in, a cursor or one result per binding comes out. yat-lint refuses a
// type assertion to an optional call interface anywhere else.
package algebra

import (
	"context"
	"fmt"
	"io"

	"repro/internal/data"
	"repro/internal/tab"
)

// FetchStream opens doc at src as a tree stream: natively when the source
// streams, else one whole fetch (under ctx when the source takes one) served
// as a single batch — the forest is in memory anyway, and in one piece the
// objects a document's references point at arrive with the trees that
// mention them. A nil ctx means context.Background().
func FetchStream(ctx context.Context, src Source, doc string) (ForestCursor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ss, ok := src.(StreamSource); ok {
		return ss.FetchStream(ctx, doc)
	}
	var f data.Forest
	var err error
	if cs, ok := src.(ContextSource); ok {
		f, err = cs.FetchContext(ctx, doc)
	} else {
		f, err = src.Fetch(doc)
	}
	if err != nil {
		return nil, err
	}
	return NewSliceForestCursor(f, len(f)), nil
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
	t, err := pushWhole(ctx, src, plan, params)
	if err != nil {
		return nil, err
	}
	return tab.NewSliceCursor(t, tab.DefaultStreamChunk), nil
}

// PushBatch evaluates plan once per binding set at src and returns exactly
// one result per binding, in binding order, all or error: in one call when
// the source takes batches, else binding by binding. A nil ctx means
// context.Background().
func PushBatch(ctx context.Context, src Source, plan Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	bs, ok := src.(BatchSource)
	if !ok {
		out := make([]*tab.Tab, len(bindings))
		for i, params := range bindings {
			t, err := pushWhole(ctx, src, plan, params)
			if err != nil {
				return nil, err
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

// pushWhole is one push answered in one piece.
func pushWhole(ctx context.Context, src Source, plan Op, params map[string]tab.Cell) (*tab.Tab, error) {
	if cs, ok := src.(ContextSource); ok {
		return cs.PushContext(ctx, plan, params)
	}
	return src.Push(plan, params)
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
