// The walker: one recursive function opens a cursor per plan node, and a
// handful of cursors carry the state that spans chunks (DJoin bites, the two
// Union schedules, duplicate elimination). Everything an operator computes
// from a chunk is a kernel call into internal/algebra.
package exec

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/algebra"
	"repro/internal/obs"
	"repro/internal/tab"
)

// stream opens a cursor over one plan node, wrapping it in a span when
// tracing: the span finishes when the cursor ends, carries the produced row
// count, and records the instant the first chunk left the operator — the
// per-operator time-to-first-row shown by EXPLAIN ANALYZE. Literals are
// never spanned: they are constants, not work.
func (e *Engine) stream(ctx context.Context, op algebra.Op, actx *algebra.Context) (tab.Cursor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if actx.Trace == nil {
		return e.streamNode(ctx, op, actx)
	}
	if _, ok := op.(*algebra.Literal); ok {
		return e.streamNode(ctx, op, actx)
	}
	sp := actx.Trace.NewChild(algebra.OpKind(op), op.Detail())
	cc := *actx
	cc.Trace = sp
	tctx := obs.WithSpan(ctx, sp)
	cc.Ctx = tctx
	cur, err := e.streamNode(tctx, op, &cc)
	if err != nil {
		sp.Finish(-1, err)
		return nil, err
	}
	return &spanCursor{cur: cur, sp: sp}, nil
}

// spanCursor ties a span's lifetime to a cursor's: rows are counted as they
// pass, the first non-empty chunk stamps the first-row time, and the span
// finishes when the stream ends (or is abandoned).
type spanCursor struct {
	cur  tab.Cursor
	sp   *obs.Span
	rows int
	fin  bool
}

func (c *spanCursor) Cols() []string { return c.cur.Cols() }

func (c *spanCursor) finish(err error) {
	if c.fin {
		return
	}
	c.fin = true
	c.sp.Finish(c.rows, err)
}

func (c *spanCursor) Next() (*tab.Tab, error) {
	t, err := c.cur.Next()
	if err != nil {
		if err == io.EOF {
			c.finish(nil)
		} else {
			c.finish(err)
		}
		return nil, err
	}
	if t.Len() > 0 {
		c.sp.MarkFirstRow()
		c.rows += t.Len()
	}
	return t, nil
}

func (c *spanCursor) Close() error {
	err := c.cur.Close()
	c.finish(nil)
	return err
}

// drain evaluates a subplan to a table — what an operator does with an
// input it needs whole: the build side of a Join, a blocking operator's
// input, the inner plan of a DJoin under one binding set.
func (e *Engine) drain(ctx context.Context, op algebra.Op, actx *algebra.Context) (*tab.Tab, error) {
	cur, err := e.stream(ctx, op, actx)
	if err != nil {
		return nil, err
	}
	return tab.Drain(cur)
}

// blocking is the shape of an operator that cannot emit before it has seen
// its whole input (Group, Sort, a grouping Tree): drain, apply the kernel
// once, serve the result in chunks.
func (e *Engine) blocking(ctx context.Context, from algebra.Op, actx *algebra.Context, kernel func(*tab.Tab) (*tab.Tab, error)) (tab.Cursor, error) {
	in, err := e.drain(ctx, from, actx)
	if err != nil {
		return nil, err
	}
	out, err := kernel(in)
	if err != nil {
		return nil, err
	}
	return tab.NewSliceCursor(out, 0), nil
}

// pipe is the shape of an operator that transforms its input chunk by chunk
// (Bind, Select, Project, Map, Distinct, a row-local Tree, the probe side of
// a Join): open the input, run every chunk through the kernel.
func (e *Engine) pipe(ctx context.Context, x, from algebra.Op, actx *algebra.Context, kernel func(*tab.Tab) (*tab.Tab, error)) (tab.Cursor, error) {
	in, err := e.stream(ctx, from, actx)
	if err != nil {
		return nil, err
	}
	return mapCursor(in, x.Columns(), kernel), nil
}

func mapCursor(in tab.Cursor, cols []string, f func(*tab.Tab) (*tab.Tab, error)) tab.Cursor {
	return &tab.FuncCursor{
		Columns: cols,
		NextFn: func() (*tab.Tab, error) {
			t, err := in.Next()
			if err != nil {
				return nil, err
			}
			out, err := f(t)
			if err != nil {
				in.Close()
				return nil, err
			}
			return out, nil
		},
		CloseFn: in.Close,
	}
}

// streamNode opens a cursor for one plan node. The switch is exhaustive
// over the algebra (yat-lint enforces it) and is the only place operators
// are evaluated.
func (e *Engine) streamNode(ctx context.Context, op algebra.Op, actx *algebra.Context) (tab.Cursor, error) {
	switch x := op.(type) {
	case *algebra.Literal:
		return tab.NewSliceCursor(x.T, 0), nil
	case *algebra.Doc:
		return x.Stream(actx)
	case *algebra.SourceQuery:
		// The subplan is evaluated by the source, not here; cancellation
		// reaches it through actx.Ctx.
		return x.Stream(actx)
	case *algebra.Bind:
		if x.From == nil {
			return x.StreamLeaf(actx)
		}
		return e.pipe(ctx, x, x.From, actx, func(t *tab.Tab) (*tab.Tab, error) { return x.Apply(actx, t) })
	case *algebra.Select:
		return e.pipe(ctx, x, x.From, actx, func(t *tab.Tab) (*tab.Tab, error) { return x.Apply(actx, t) })
	case *algebra.Project:
		return e.pipe(ctx, x, x.From, actx, func(t *tab.Tab) (*tab.Tab, error) { return x.Apply(t), nil })
	case *algebra.MapExpr:
		return e.pipe(ctx, x, x.From, actx, func(t *tab.Tab) (*tab.Tab, error) { return x.Apply(actx, t) })
	case *algebra.Distinct:
		seen := map[string]bool{}
		return e.pipe(ctx, x, x.From, actx, func(t *tab.Tab) (*tab.Tab, error) { return x.Apply(t, seen), nil })
	case *algebra.TreeOp:
		if !x.C.RowLocal() {
			return e.blocking(ctx, x.From, actx, func(t *tab.Tab) (*tab.Tab, error) { return x.Apply(actx, t, nil) })
		}
		// Skolem minting follows chunk consumption order, which is row order.
		seen := map[string]bool{}
		return e.pipe(ctx, x, x.From, actx, func(t *tab.Tab) (*tab.Tab, error) { return x.Apply(actx, t, seen) })
	case *algebra.Group:
		return e.blocking(ctx, x.From, actx, func(t *tab.Tab) (*tab.Tab, error) { return x.Apply(t), nil })
	case *algebra.Sort:
		return e.blocking(ctx, x.From, actx, func(t *tab.Tab) (*tab.Tab, error) { return x.Apply(t), nil })
	case *algebra.Intersect:
		return e.blocking(ctx, x.L, actx, func(l *tab.Tab) (*tab.Tab, error) {
			r, err := e.drain(ctx, x.R, actx)
			if err != nil {
				return nil, err
			}
			return x.Apply(l, r)
		})
	case *algebra.Join:
		// The build side (R) is drained and hashed once; the probe side
		// streams, and probe order is input order.
		rt, err := e.drain(ctx, x.R, actx)
		if err != nil {
			return nil, err
		}
		build := x.Build(x.L.Columns(), rt)
		return e.pipe(ctx, x, x.L, actx, func(t *tab.Tab) (*tab.Tab, error) { return build.Apply(actx, t) })
	case *algebra.Union:
		return e.streamUnion(ctx, x, actx)
	case *algebra.DJoin:
		return e.streamDJoin(ctx, x, actx)
	default:
		return nil, fmt.Errorf("exec: unknown operator %T", op)
	}
}

// streamDJoin consumes outer chunks and resolves each with batched pushes
// (or per-set inner evaluations) as it arrives, instead of waiting for the
// whole outer table. The outer is re-bitten to one push batch per chunk
// (times the worker count under parallelism, so fan-out still has work), so
// time-to-first-row is one outer bite plus a single push round trip rather
// than however many batches a larger chunk would need. Deduplication is per
// outer bite; the shared result cache (when installed) restores cross-bite
// deduplication. Results re-expand in outer order per bite, so the output is
// row for row what one inner evaluation per outer row would produce.
func (e *Engine) streamDJoin(ctx context.Context, x *algebra.DJoin, actx *algebra.Context) (tab.Cursor, error) {
	outer, err := e.stream(ctx, x.L, actx)
	if err != nil {
		return nil, err
	}
	bite := actx.BatchChunk
	if bite <= 0 {
		bite = algebra.DefaultBatchChunk
	}
	if p := e.opts.Parallelism; p > 1 {
		bite *= p
	}
	outer = tab.Rechunk(outer, bite)
	cols := x.Columns()
	return &tab.FuncCursor{
		Columns: cols,
		NextFn: func() (*tab.Tab, error) {
			l, err := outer.Next()
			if err != nil {
				return nil, err
			}
			if l.Len() == 0 {
				return tab.New(cols...), nil
			}
			set := algebra.NewDJoinSet(actx, x, l)
			if set.Batchable() {
				chunks, err := set.PendingChunks(actx)
				if err != nil {
					outer.Close()
					return nil, err
				}
				err = e.fanOut(ctx, actx, len(chunks), false, func(u *algebra.Context, i int) error {
					return set.EvalChunk(u, chunks[i])
				})
				if err != nil {
					outer.Close()
					return nil, err
				}
			} else {
				err := e.fanOut(ctx, actx, len(set.Bindings.Sets), mintsSkolems(x.R), func(u *algebra.Context, i int) error {
					return set.EvalSet(u, i, x.R, func(c *algebra.Context, op algebra.Op) (*tab.Tab, error) {
						return e.drain(ctx, op, c)
					})
				})
				if err != nil {
					outer.Close()
					return nil, err
				}
			}
			return set.Expand(l, cols), nil
		},
		CloseFn: outer.Close,
	}, nil
}

// streamUnion streams a Union. Serially (and when both branches mint Skolem
// identifiers, whose order is observable) the branches play in plan order —
// left exhausted, then right, opened lazily. Under parallelism the branches
// produce into a bounded channel concurrently and chunks interleave in
// arrival order: bag-identical rows, first row from whichever source answers
// first. Under graceful degradation both branches always play out (a failure
// on one must not suppress the live rows of the other): an unavailable
// branch is recorded and contributes what it managed to stream — the
// set-oriented counterpart of the paper's §2 observation that partial
// results still compose. Any other failure aborts as usual.
func (e *Engine) streamUnion(ctx context.Context, x *algebra.Union, actx *algebra.Context) (tab.Cursor, error) {
	if err := x.Check(); err != nil {
		return nil, err
	}
	if e.opts.Parallelism <= 1 || (mintsSkolems(x.L) && mintsSkolems(x.R)) {
		return &seqUnionCursor{e: e, ctx: ctx, actx: actx, cols: x.Columns(), branches: []algebra.Op{x.L, x.R}}, nil
	}
	return e.streamUnionInterleaved(ctx, x, actx)
}

// seqUnionCursor plays its branches in order, opening each lazily.
type seqUnionCursor struct {
	e        *Engine
	ctx      context.Context
	actx     *algebra.Context
	cols     []string
	branches []algebra.Op
	cur      tab.Cursor
	i        int
}

func (c *seqUnionCursor) Cols() []string { return c.cols }

func (c *seqUnionCursor) Next() (*tab.Tab, error) {
	for {
		if c.cur == nil {
			if c.i >= len(c.branches) {
				return nil, io.EOF
			}
			cur, err := c.e.stream(c.ctx, c.branches[c.i], c.actx)
			c.i++
			if err != nil {
				if c.e.degrade(c.actx, err) {
					continue
				}
				return nil, err
			}
			c.cur = cur
		}
		t, err := c.cur.Next()
		if err == io.EOF {
			c.cur.Close()
			c.cur = nil
			continue
		}
		if err != nil {
			c.cur.Close()
			c.cur = nil
			if c.e.degrade(c.actx, err) {
				continue
			}
			return nil, err
		}
		return t, nil
	}
}

func (c *seqUnionCursor) Close() error {
	c.i = len(c.branches)
	if c.cur != nil {
		err := c.cur.Close()
		c.cur = nil
		return err
	}
	return nil
}

// streamUnionInterleaved runs both branches concurrently, each under a
// Stats fork (merged exactly once when the stream ends), and yields chunks
// in arrival order through a bounded channel — the backpressure bound: a
// branch stalls once the consumer falls two chunks behind.
func (e *Engine) streamUnionInterleaved(ctx context.Context, x *algebra.Union, actx *algebra.Context) (tab.Cursor, error) {
	type item struct {
		t   *tab.Tab
		err error
	}
	cctx, cancel := context.WithCancel(ctx)
	ch := make(chan item, 2)
	var wg sync.WaitGroup
	forks := make([]*algebra.Context, 2)
	for i, br := range []algebra.Op{x.L, x.R} {
		fctx := actx.Fork() // Partial and Cache are shared; Stats is forked
		forks[i] = fctx
		wg.Add(1)
		go func(br algebra.Op, fctx *algebra.Context) {
			defer wg.Done()
			cur, err := e.stream(cctx, br, fctx)
			if err != nil {
				if !e.degrade(fctx, err) {
					select {
					case ch <- item{err: err}:
					case <-cctx.Done():
					}
				}
				return
			}
			defer cur.Close()
			for {
				t, err := cur.Next()
				if err == io.EOF {
					return
				}
				if err != nil {
					if !e.degrade(fctx, err) {
						select {
						case ch <- item{err: err}:
						case <-cctx.Done():
						}
					}
					return
				}
				select {
				case ch <- item{t: t}:
				case <-cctx.Done():
					return
				}
			}
		}(br, fctx)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var mergeOnce sync.Once
	merge := func() {
		mergeOnce.Do(func() {
			for _, f := range forks {
				actx.Stats.Add(*f.Stats)
			}
		})
	}
	finished := false
	return &tab.FuncCursor{
		Columns: x.Columns(),
		NextFn: func() (*tab.Tab, error) {
			if finished {
				return nil, io.EOF
			}
			for {
				select {
				case it := <-ch:
					if it.err != nil {
						finished = true
						cancel()
						<-done
						merge()
						return nil, it.err
					}
					return it.t, nil
				case <-done:
					// Producers are gone; drain what they buffered.
					select {
					case it := <-ch:
						if it.err != nil {
							finished = true
							cancel()
							merge()
							return nil, it.err
						}
						return it.t, nil
					default:
						finished = true
						cancel()
						merge()
						// A producer that stopped because the query was
						// cancelled reports nothing; the stream must not
						// pass for complete.
						if err := ctx.Err(); err != nil {
							return nil, err
						}
						return nil, io.EOF
					}
				}
			}
		},
		CloseFn: func() error {
			finished = true
			cancel()
			<-done
			merge()
			return nil
		},
	}, nil
}
