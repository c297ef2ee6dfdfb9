// Leaf cursors. Every plan leaf — a bound document, a DJoin parameter, a
// pushed subplan — opens as a cursor. The base Source interface ships a whole
// document (Fetch) or a whole pushed result (Push) in one piece, which
// FetchStream and PushStream (call.go) lift into a cursor; sources that
// additionally implement the interfaces below deliver bounded chunks as they
// are produced, which is what lets the engine in internal/exec keep peak
// memory independent of result size and surface first rows before the
// wrapper has finished.
package algebra

import (
	"context"
	"fmt"
	"io"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/tab"
)

// ForestCursor is a pull iterator over a document's trees: Next returns the
// next non-empty batch of trees, io.EOF at the end, any other error is
// terminal. Close is idempotent and cancels the underlying transfer.
type ForestCursor interface {
	Next() (data.Forest, error)
	Close() error
}

// StreamSource is a source that can ship a bound document incrementally
// instead of as one forest. Sources without it are read through FetchContext
// / Fetch and served as a one-batch stream.
type StreamSource interface {
	Source
	// FetchStream opens a tree stream over doc. The cursor honours ctx:
	// cancelling it aborts the transfer.
	FetchStream(ctx context.Context, doc string) (ForestCursor, error)
}

// PushStreamSource is a source that can evaluate a pushed plan and return
// its rows incrementally. Sources without it are read through PushContext /
// Push (one-shot result, chunked mediator-side).
type PushStreamSource interface {
	Source
	// PushStream evaluates plan under params at the source and streams the
	// result rows. The cursor honours ctx: cancelling it aborts the
	// evaluation and the transfer.
	PushStream(ctx context.Context, plan Op, params map[string]tab.Cell) (tab.Cursor, error)
}

// sliceForestCursor streams an already-materialized forest in batches.
type sliceForestCursor struct {
	f     data.Forest
	chunk int
	pos   int
}

// NewSliceForestCursor chunks a materialized forest (batch trees per Next,
// DefaultStreamChunk trees when batch < 1). It is the adapter used when a
// source cannot stream natively.
func NewSliceForestCursor(f data.Forest, batch int) ForestCursor {
	if batch < 1 {
		batch = tab.DefaultStreamChunk
	}
	return &sliceForestCursor{f: f, chunk: batch}
}

func (c *sliceForestCursor) Next() (data.Forest, error) {
	if c.pos >= len(c.f) {
		return nil, io.EOF
	}
	end := c.pos + c.chunk
	if end > len(c.f) {
		end = len(c.f)
	}
	out := c.f[c.pos:end:end]
	c.pos = end
	return out, nil
}

func (c *sliceForestCursor) Close() error {
	c.pos = len(c.f)
	return nil
}

// funcForestCursor adapts closures to ForestCursor.
type funcForestCursor struct {
	next   func() (data.Forest, error)
	close  func() error
	closed bool
}

func (c *funcForestCursor) Next() (data.Forest, error) {
	if c.closed {
		return nil, io.EOF
	}
	return c.next()
}

func (c *funcForestCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.close != nil {
		return c.close()
	}
	return nil
}

// InputStream resolves a named document as a tree stream: catalog first (one
// batch), then the connected source exporting it, opened through
// FetchStream. Accounting: one SourceFetches per opened stream, BytesShipped
// and Store registration per tree as batches arrive, retry counters drained
// when the stream opens and again when it ends.
func (c *Context) InputStream(name string) (ForestCursor, error) {
	if f, ok := c.Catalog[name]; ok {
		return NewSliceForestCursor(f, len(f)), nil
	}
	s, err := c.exporter(name)
	if err != nil {
		return nil, err
	}
	fc, err := FetchStream(c.Ctx, s, name)
	drainRetryStats(c, s)
	if err != nil {
		return nil, err
	}
	c.Stats.SourceFetches++
	traceCounts(c, obs.Counts{Fetches: 1})
	done := false
	fin := func() {
		if !done {
			done = true
			drainRetryStats(c, s)
		}
	}
	return &funcForestCursor{
		next: func() (data.Forest, error) {
			f, err := fc.Next()
			if err != nil {
				fin()
				return nil, err
			}
			c.register(f)
			return f, nil
		},
		close: func() error {
			fin()
			return fc.Close()
		},
	}, nil
}

// StreamLeaf opens the two leaf forms of a Bind (From == nil). Over a named
// document, trees arrive in batches through InputStream and are matched
// against the filter as they land, so neither the document nor the binding
// table need ever be whole in memory — up to the first tree whose match
// chases a reference the store cannot resolve yet. The objects a document's
// references point at ship after the trees that mention them (an O₂ extent
// is one tree, followed by its referenced closure), and rows leave in
// document order, so that tree and every tree after it are held and matched
// once the stream has ended; a reference that never resolves holds them just
// as long. The bound for such a Bind is therefore the rest of the document —
// for identified objects no more than Context.Store already pins for the
// query's lifetime. Over a DJoin parameter, the bound value is matched in
// one piece.
func (b *Bind) StreamLeaf(ctx *Context) (tab.Cursor, error) {
	f := b.filter(ctx)
	if b.Doc == "" {
		cell, ok := ctx.Params[b.Col]
		if !ok {
			return nil, fmt.Errorf("algebra: Bind over unbound parameter %s", b.Col)
		}
		t := f.MatchForest(ctx.Store, cell.AsForest())
		ctx.Stats.BindRows += t.Len()
		return tab.NewSliceCursor(t, 0), nil
	}
	fc, err := ctx.InputStream(b.Doc)
	if err != nil {
		return nil, err
	}
	var held data.Forest // trees waiting for the objects they reference
	eof := false
	// One tree can bind many rows (a single-rooted document binds them
	// all): Rechunk restores the bounded-chunk invariant downstream.
	return tab.Rechunk(&tab.FuncCursor{
		Columns: b.Columns(),
		NextFn: func() (*tab.Tab, error) {
			for !eof {
				forest, err := fc.Next()
				var t *tab.Tab
				switch {
				case err == io.EOF:
					eof = true
					if held == nil {
						return nil, io.EOF
					}
					t = f.MatchForest(ctx.Store, held)
					held = nil
				case err != nil:
					return nil, err
				case held != nil:
					held = append(held, forest...)
					continue
				default:
					var n int
					t, n = f.MatchResolvedPrefix(ctx.Store, forest)
					if n < len(forest) {
						held = append(held, forest[n:]...)
					}
				}
				ctx.Stats.BindRows += t.Len()
				return t, nil
			}
			return nil, io.EOF
		},
		CloseFn: fc.Close,
	}, tab.DefaultStreamChunk), nil
}

// Stream opens the evaluation of a pushed subplan. The wrapper-result cache
// is probed first under (source, canonical plan encoding, free-variable
// bindings) — only the plan's free variables influence what the source
// computes, so a hit stands in for any parameter environment agreeing on
// them — and a hit is answered locally. On a miss the rows come through
// PushStream and are written back to the cache only once the stream has
// been consumed to its end (a partially consumed stream must not poison
// it). Accounting: one SourcePushes per push, TuplesShipped/BytesShipped
// per chunk as it arrives, CheckWire applied to every chunk before it is
// cached or released downstream.
func (q *SourceQuery) Stream(ctx *Context) (tab.Cursor, error) {
	src, ok := ctx.Sources[q.Source]
	if !ok {
		return nil, fmt.Errorf("algebra: unknown source %q", q.Source)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var key string
	if ctx.Cache != nil {
		if p := q.Prepared(); p.Enc != "" {
			key = CacheKey(q.Source, p.Enc, ParamsKey(p.Vars, ctx.Params))
			if t, ok := ctx.Cache.Get(key); ok {
				ctx.Stats.CacheHits++
				traceCounts(ctx, obs.Counts{CacheHits: 1})
				traceAnnotate(ctx, "cache", "hit")
				return tab.NewSliceCursor(t, 0), nil
			}
			ctx.Stats.CacheMisses++
			traceCounts(ctx, obs.Counts{CacheMisses: 1})
		}
	}
	if sr, ok := src.(StateReporter); ok {
		traceAnnotate(ctx, "breaker", sr.SourceState())
	}
	cur, err := PushStream(ctx.Ctx, src, q.Plan, ctx.Params)
	drainRetryStats(ctx, src)
	if err != nil {
		return nil, fmt.Errorf("source %s: %w", q.Source, err)
	}
	ctx.Stats.SourcePushes++
	traceCounts(ctx, obs.Counts{Pushes: 1})
	done := false
	fin := func() {
		if !done {
			done = true
			drainRetryStats(ctx, src)
		}
	}
	var whole *tab.Tab // the rows so far, kept only to fill the cache at EOF
	if key != "" {
		whole = tab.New(cur.Cols()...)
	}
	return &tab.FuncCursor{
		Columns: cur.Cols(),
		NextFn: func() (*tab.Tab, error) {
			t, err := cur.Next()
			if err != nil {
				if err != io.EOF {
					err = fmt.Errorf("source %s: %w", q.Source, err)
				} else if whole != nil && !done && ctx.Cache.Put(key, whole) {
					ctx.Stats.CacheEvictions++
				}
				fin()
				return nil, err
			}
			countShipped(ctx, t)
			if ctx.CheckWire != nil {
				if cerr := ctx.CheckWire(q, t); cerr != nil {
					cur.Close()
					whole = nil
					return nil, cerr
				}
			}
			if whole != nil {
				whole.Rows = append(whole.Rows, t.Rows...)
			}
			return t, nil
		},
		CloseFn: func() error {
			fin()
			return cur.Close()
		},
	}, nil
}
