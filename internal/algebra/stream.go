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
	"slices"

	"repro/internal/data"
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
// instead of as one forest. Sources without it are read through Fetch and
// served in DefaultStreamChunk batches.
type StreamSource interface {
	Source
	// FetchStream opens a tree stream over doc. The cursor honours ctx:
	// cancelling it aborts the transfer.
	FetchStream(ctx context.Context, doc string) (ForestCursor, error)
}

// PushStreamSource is a source that can evaluate a pushed plan and return
// its rows incrementally. Sources without it are read through Push (one-shot
// result, chunked mediator-side).
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

// NewSliceForestCursor chunks a materialized forest, batch trees per Next.
// It is the adapter used when a source cannot stream natively.
func NewSliceForestCursor(f data.Forest, batch int) ForestCursor {
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

// InputStream resolves a named document as a tree stream: catalog first (one
// batch), then the connected source exporting it, opened through
// FetchStream. It is the one door through which a source document enters a
// plan, and it owns the one rule for late references: a tree leaves only
// once every reference in it resolves in Context.Store. As batches arrive,
// their trees are registered in the store, and the longest prefix of the
// arrived trees whose references all resolve is released, in document
// order; the rest is held until later batches register the targets or the
// stream ends, which releases everything still held. The objects a
// document's references point at ship after the trees that mention them (an
// O₂ extent is one tree, followed by its referenced closure), so what is
// held is bounded by the rest of the document — for identified objects no
// more than the store pins for the query's lifetime. The rule is kept per
// stream: a reference left dangling in one document holds none of another
// document's trees. A catalog document is whole, one batch followed by the
// end, so it leaves at once. Accounting: one SourceFetches per opened
// stream, BytesShipped per tree as batches arrive, retry counters drained
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
	c.count(Stats{SourceFetches: 1})
	return &resolvedPrefix{ctx: c, src: s, fc: fc}, nil
}

// resolvedPrefix is the cursor InputStream returns: it releases a
// document's trees as their references resolve.
type resolvedPrefix struct {
	ctx  *Context
	src  Source
	fc   ForestCursor
	held data.Forest // arrived trees not yet released, in document order
	refs []string    // the references in the held trees, in document order
	ends []int       // per held tree, the end of its references in refs
	ok   int         // refs[:ok] resolve
	eof  bool        // fc has ended: the retry counters are drained
}

func (p *resolvedPrefix) Next() (data.Forest, error) {
	for !p.eof {
		f, err := p.fc.Next()
		if err != nil {
			if p.end(); err != io.EOF {
				return nil, err
			}
		} else if out := p.arrive(f); len(out) > 0 {
			return out, nil
		}
	}
	out := p.held
	if p.held = nil; len(out) == 0 {
		return nil, io.EOF
	}
	return out, nil
}

// arrive registers a batch and returns the trees it releases.
func (p *resolvedPrefix) arrive(f data.Forest) data.Forest {
	var bytes int64
	for _, n := range f {
		bytes += int64(n.Size()) * 16
		p.refs = p.ctx.Store.Register(n, p.refs)
		p.ends = append(p.ends, len(p.refs))
	}
	p.ctx.count(Stats{BytesShipped: bytes})
	for p.ok < len(p.refs) && p.ctx.Store.Lookup(p.refs[p.ok]) != nil {
		p.ok++
	}
	held := f
	if len(p.held) > 0 {
		held = append(p.held, f...)
	}
	i := 0
	for i < len(p.ends) && p.ends[i] <= p.ok {
		i++
	}
	switch {
	case i == len(held):
		p.held, p.refs, p.ends, p.ok = nil, p.refs[:0], p.ends[:0], 0
	case len(p.held) > 0:
		p.held, p.ends = held[i:], p.ends[i:]
	default: // the source's batch is not ours to append to
		p.held, p.ends = slices.Clone(held[i:]), p.ends[i:]
	}
	return held[:i:i]
}

// end drains the source's retry counters once the transfer is over.
func (p *resolvedPrefix) end() {
	if !p.eof {
		p.eof = true
		drainRetryStats(p.ctx, p.src)
	}
}

func (p *resolvedPrefix) Close() error {
	p.end()
	p.held = nil
	return p.fc.Close()
}

// StreamLeaf opens the two leaf forms of a Bind (From == nil): over a named
// document, the batches InputStream releases, and over a DJoin parameter,
// the bound value as one batch. Each batch is matched as it arrives, so
// neither the document nor the binding table need ever be whole in memory,
// and every reference in a document's released trees resolves, whichever
// Bind downstream chases it.
func (b *Bind) StreamLeaf(ctx *Context) (tab.Cursor, error) {
	var fc ForestCursor
	if b.Doc != "" {
		var err error
		if fc, err = ctx.InputStream(b.Doc); err != nil {
			return nil, err
		}
	} else if cell, ok := ctx.Params[b.Col]; ok {
		f := cell.AsForest()
		fc = NewSliceForestCursor(f, len(f))
	} else {
		return nil, fmt.Errorf("algebra: Bind over unbound parameter %s", b.Col)
	}
	m := b.filter(ctx).Matcher(ctx.Store)
	cols := b.Columns()
	// One tree can bind many rows (a single-rooted document binds them
	// all): Rechunk restores the bounded-chunk invariant downstream.
	return tab.Rechunk(&tab.FuncCursor{
		Columns: cols,
		NextFn: func() (*tab.Tab, error) {
			forest, err := fc.Next()
			if err != nil {
				return nil, err
			}
			t := tab.New(cols...)
			for _, n := range forest {
				t.Rows = m.Append(t.Rows, nil, n)
			}
			ctx.count(Stats{BindRows: t.Len()})
			return t, nil
		},
		CloseFn: fc.Close,
	}, tab.DefaultStreamChunk), nil
}

// Stream opens the evaluation of a pushed subplan under one binding of its
// free variables. The wrapper-result cache is probed first — only the plan's
// free variables influence what the source computes, so a hit stands in for
// any parameter environment agreeing on them — and a hit is answered
// locally. On a miss the rows come through PushStream, every chunk passing
// arrived before it is released, and are written back to the cache only
// once the stream has been consumed to its end (a partially consumed stream
// must not poison it). DJoinSet.EvalChunk is the same bookkeeping for a
// batch of bindings.
func (q *SourceQuery) Stream(ctx *Context) (tab.Cursor, error) {
	key := q.cacheKey(ctx, ctx.Params)
	if t, ok := ctx.cached(key); ok {
		traceAnnotate(ctx, "cache", "hit")
		return tab.NewSliceCursor(t, 0), nil
	}
	var cur tab.Cursor
	src, err := q.call(ctx, func(src Source) (err error) {
		cur, err = PushStream(ctx.Ctx, src, q.Plan, ctx.Params)
		return err
	})
	if err != nil {
		return nil, err
	}
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
				} else if whole != nil && !done {
					ctx.fill(key, whole)
				}
				fin()
				return nil, err
			}
			if err := q.arrived(ctx, t); err != nil {
				cur.Close()
				whole = nil
				return nil, err
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

// cacheKey is the result-cache key of a push of q under params: source,
// canonical plan encoding and the bindings of the plan's free variables,
// the encoding and the variables computed once per node. It is "" — nothing
// is probed or filled — when the context has no cache or the plan has no
// canonical encoding.
func (q *SourceQuery) cacheKey(ctx *Context, params map[string]tab.Cell) string {
	if ctx.Cache == nil {
		return ""
	}
	q.keyOnce.Do(func() {
		q.vars = FreeVars(q.Plan)
		if enc, err := MarshalPlan(q.Plan); err == nil {
			q.enc = enc
		}
	})
	if q.enc == "" {
		return ""
	}
	return CacheKey(q.Source, q.enc, ParamsKey(q.vars, params))
}

// call is the one way a pushed plan reaches its source, whether for one
// binding (Stream) or a batch of them (DJoinSet): it resolves the source,
// annotates the ambient span with the source's breaker state, runs push,
// drains the source's retry counters and, when the call succeeded, counts
// one push.
func (q *SourceQuery) call(ctx *Context, push func(Source) error) (Source, error) {
	src, ok := ctx.Sources[q.Source]
	if !ok {
		return nil, fmt.Errorf("algebra: unknown source %q", q.Source)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if sr, ok := src.(StateReporter); ok {
		traceAnnotate(ctx, "breaker", sr.SourceState())
	}
	err := push(src)
	drainRetryStats(ctx, src)
	if err != nil {
		return nil, fmt.Errorf("source %s: %w", q.Source, err)
	}
	ctx.count(Stats{SourcePushes: 1})
	return src, nil
}

// arrived is the one step every row a source ships for q passes: the rows
// and their approximate volume are counted, then checked against the
// context's wire conformance validator, if any. An error means the rows
// must be neither cached nor released.
func (q *SourceQuery) arrived(ctx *Context, t *tab.Tab) error {
	var bytes int64
	for _, r := range t.Rows {
		for _, c := range r {
			bytes += int64(c.KeyLen())
		}
	}
	ctx.count(Stats{TuplesShipped: t.Len(), BytesShipped: bytes})
	if ctx.CheckWire == nil {
		return nil
	}
	return ctx.CheckWire(q, t)
}
