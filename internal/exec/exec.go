// Package exec is the mediator's execution engine: the one way a plan is
// evaluated. Engine.Stream opens a plan as a tab.Cursor — operators pull
// chunks of ~tab.DefaultStreamChunk rows from their inputs, transform them
// with the per-chunk kernels of internal/algebra and hand them on — and
// Engine.Run is that cursor drained into a table. Materializing is what a
// consumer does with the stream, not a second evaluator.
//
//   - Peak memory is bounded by chunk size × pipeline depth rather than by
//     result size, and the first rows surface before the sources have
//     finished answering. Operators that need their whole input (Group, Sort,
//     Intersect, a Tree that groups, the build side of a Join) drain it and
//     emit from there.
//   - A bounded worker pool serves the plan: DJoin fans the batched pushes
//     (or inner evaluations) of each outer bite out over it, and a Union
//     plays its branches concurrently.
//     Parallelism 1 is the same walker with no workers to fork to, not a
//     separate path.
//   - A context.Context threads from Stream through algebra.Context into the
//     wire client, so a per-query timeout, a cancellation or an abandoned
//     cursor aborts in-flight source I/O instead of hanging the query on a
//     dead wrapper.
//
// Row order: everything except a parallel Union delivers its rows in the
// order serial evaluation does — concurrent units are collected and combined
// in plan order (DJoin re-expands per-set results in outer order). A Union
// under Parallelism > 1 interleaves its branches' chunks as they arrive:
// the same bag of rows, first row from whichever source answers first.
// Serially, and whenever both branches mint Skolem identifiers (mint order is
// observable in the output, see mintsSkolems), the branches play in plan
// order.
//
// Counters: every worker accumulates into a forked algebra.Stats that the
// parent merges (per-worker merge instead of shared atomics), so accounting
// is exact. A DJoin deduplicates binding sets per outer bite, not over the
// whole outer table — that is what bounds its memory — so duplicates
// spanning bites cost extra pushes unless the shared result cache absorbs
// them. Rows are unaffected.
package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/obs"
	"repro/internal/tab"
)

// Options configure one engine.
type Options struct {
	// Parallelism bounds the number of concurrently evaluating workers.
	// 1 is serial evaluation; values below 1 default to GOMAXPROCS.
	Parallelism int
	// Timeout is the per-query deadline; zero disables it.
	Timeout time.Duration
	// BatchChunk bounds the binding sets per batched DJoin push; zero means
	// "use the evaluation context's default" (algebra.DefaultBatchChunk).
	// Negative values are configuration errors, rejected by Validate —
	// never silently replaced downstream. Deliberately independent of
	// Parallelism so push counts stay identical between serial and
	// parallel runs of the same query.
	BatchChunk int
	// AllowPartial enables graceful per-source degradation: when a plan
	// branch fails because a source is unreachable
	// (algebra.UnavailableError — transport failure after retries, or an
	// open circuit breaker), the failure is recorded in the context's
	// PartialReport and the branch contributes no rows, instead of the
	// whole query failing. Degradation happens at Union branches and at
	// the plan root, so a union across sources returns the live sources'
	// rows; a plan rooted entirely in a dead source returns zero rows.
	// Every returned row is still correct — the result is a lower bound.
	AllowPartial bool
	// Trace enables per-operator span collection (see internal/obs): every
	// plan node gets a span under the root the caller attaches to
	// algebra.Context.Trace (the mediator mints one and returns it in
	// Result.Trace), fan-out workers get spans parented to the operator
	// that forked them, and the trace id rides the wire frames so
	// wrapper-side work is attributed to its cause. Off by default;
	// when off the engine's only extra work is a nil check per node.
	Trace bool
	// StreamBuffer bounds the row buffer between the engine and the
	// consumer of Mediator.StreamContext (backpressure: producers
	// stall once the buffer is full). Zero means 2×tab.DefaultStreamChunk;
	// negative values are rejected by Validate.
	StreamBuffer int
	// CheckTypes enables wire conformance checking: the mediator infers a
	// pattern type for every operator (internal/typecheck) and installs a
	// validator on the evaluation context that checks each shipped
	// wrapper row against the SourceQuery's inferred type, turning a
	// schema-violating response into a structured error (and a
	// type_violations_total metric) instead of a silently wrong answer.
	// Off by default; the engine itself does not consume it.
	CheckTypes bool
}

// Validate rejects option values that cannot mean anything before they sink
// into an evaluation: chunk and buffer sizes must not be negative (zero is
// the documented "use the default" sentinel; explicit non-positive values
// arriving from flags are rejected at flag-parse time by the consoles).
// Mediator entry points call it on every query, so a bad configuration
// fails loudly at the edge instead of silently running with a substituted
// default deep in the batch evaluator.
func (o Options) Validate() error {
	if o.BatchChunk < 0 {
		return fmt.Errorf("exec: BatchChunk must be positive (or 0 for the default %d), got %d", algebra.DefaultBatchChunk, o.BatchChunk)
	}
	if o.StreamBuffer < 0 {
		return fmt.Errorf("exec: StreamBuffer must be positive (or 0 for the default %d), got %d", 2*tab.DefaultStreamChunk, o.StreamBuffer)
	}
	return nil
}

// Engine evaluates algebra plans with a bounded worker pool. It is safe for
// concurrent use; all queries run through one engine share its pool.
type Engine struct {
	opts Options
	// tokens is the pool of *extra* workers: the goroutine pulling the
	// cursor counts as one worker, so capacity is Parallelism-1. A unit of work
	// forks only when a token is free, otherwise it runs inline — this
	// never deadlocks, however deep the plan.
	tokens chan struct{}
}

// New returns an engine over the given options.
func New(opts Options) *Engine {
	if opts.Parallelism < 1 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	return &Engine{opts: opts, tokens: make(chan struct{}, opts.Parallelism-1)}
}

// Options reports the engine's effective configuration.
func (e *Engine) Options() Options { return e.opts }

// Run evaluates a plan to a table: Stream, drained.
func (e *Engine) Run(ctx context.Context, plan algebra.Op, actx *algebra.Context) (*tab.Tab, error) {
	cur, err := e.Stream(ctx, plan, actx)
	if err != nil {
		return nil, err
	}
	return tab.Drain(cur)
}

// RunSerial evaluates a plan on a serial engine without a deadline — what a
// caller holding just a plan and a context needs (a wrapper answering a
// pushed plan locally, a test evaluating a hand-built plan).
func RunSerial(plan algebra.Op, actx *algebra.Context) (*tab.Tab, error) {
	return New(Options{Parallelism: 1}).Run(context.Background(), plan, actx)
}

// Stream evaluates a plan as a chunk stream, applying the engine's timeout
// and threading the context through the evaluation context into the
// sources. The cursor must be drained or closed: Close cancels the query
// context, which aborts in-flight source I/O (client-abandon propagates to
// wrappers). Under AllowPartial a source failure ends the stream instead of
// erroring — the rows already delivered stand, and the failure is recorded
// in actx.Partial.
func (e *Engine) Stream(ctx context.Context, plan algebra.Op, actx *algebra.Context) (tab.Cursor, error) {
	var cancel context.CancelFunc
	if e.opts.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, e.opts.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	ectx := actx.WithContext(ctx)
	if e.opts.BatchChunk > 0 {
		ectx.BatchChunk = e.opts.BatchChunk
	}
	if e.opts.AllowPartial && ectx.Partial == nil {
		// The caller usually pre-attaches a report (to read it back after
		// the run); degrade into a private one otherwise.
		ectx.Partial = algebra.NewPartialReport()
	}
	cur, err := e.stream(ctx, plan, ectx)
	if err != nil {
		cancel()
		if e.degrade(ectx, err) {
			// The whole plan roots in unreachable sources: the rows
			// derivable from live sources are exactly none.
			return tab.NewSliceCursor(tab.New(plan.Columns()...), 0), nil
		}
		return nil, err
	}
	return &rootCursor{e: e, ectx: ectx, cur: cur, cancel: cancel}, nil
}

// rootCursor is the top of an evaluation: it owns the query context
// (cancelled at end-of-stream, on error, and on Close) and applies
// root-level graceful degradation.
type rootCursor struct {
	e      *Engine
	ectx   *algebra.Context
	cur    tab.Cursor
	cancel context.CancelFunc
	done   bool
}

func (c *rootCursor) Cols() []string { return c.cur.Cols() }

func (c *rootCursor) Next() (*tab.Tab, error) {
	if c.done {
		return nil, io.EOF
	}
	t, err := c.cur.Next()
	if err == nil {
		return t, nil
	}
	c.done = true
	c.cur.Close()
	c.cancel()
	if err != io.EOF && c.e.degrade(c.ectx, err) {
		// The rows already streamed stand; the failed source is on record.
		err = io.EOF
	}
	return nil, err
}

func (c *rootCursor) Close() error {
	if c.done {
		return nil
	}
	c.done = true
	err := c.cur.Close()
	c.cancel()
	return err
}

// degrade reports whether err is a source-availability failure that
// AllowPartial absorbs; if so it is recorded in the partial report.
func (e *Engine) degrade(actx *algebra.Context, err error) bool {
	if !e.opts.AllowPartial || actx.Partial == nil {
		return false
	}
	var ue *algebra.UnavailableError
	if !errors.As(err, &ue) {
		return false
	}
	actx.Partial.Record(ue.Source, err)
	return true
}

// fanOut runs n independent units with at most Parallelism in flight (forked
// units come from the shared worker pool; the dispatching goroutine runs
// the overflow inline, so it is never idle and never deadlocks). Each unit
// receives the context to evaluate under — a Stats fork when running
// concurrently — and its index. Units must only write disjoint state.
// Serial execution (Parallelism 1, a single unit, or serialOnly) calls the
// units in order on actx itself.
func (e *Engine) fanOut(ctx context.Context, actx *algebra.Context, n int, serialOnly bool, unit func(*algebra.Context, int) error) error {
	run := func(u *algebra.Context, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return unit(u, i)
	}
	if e.opts.Parallelism <= 1 || n <= 1 || serialOnly {
		for i := 0; i < n; i++ {
			if err := run(actx, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var forked algebra.Stats
	for i := 0; i < n; i++ {
		i := i
		select {
		case e.tokens <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-e.tokens }()
				rctx := actx.Fork()
				if actx.Trace != nil {
					// Parent the forked unit's work to a worker span
					// under the fanned-out operator, so a profile shows
					// which units actually ran concurrently.
					ws := actx.Trace.NewChild("worker", fmt.Sprintf("unit %d", i))
					rctx.Trace = ws
					if rctx.Ctx != nil {
						rctx.Ctx = obs.WithSpan(rctx.Ctx, ws)
					}
					defer func() { ws.Finish(-1, errs[i]) }()
				}
				errs[i] = run(rctx, i)
				mu.Lock()
				forked.Add(*rctx.Stats)
				mu.Unlock()
			}()
		default:
			// No free worker: run this unit inline. This both bounds the
			// fan-out and keeps the dispatching goroutine productive.
			errs[i] = run(actx, i)
		}
	}
	wg.Wait()
	actx.Stats.Add(forked)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mintsSkolems reports whether evaluating the plan can mint Skolem
// identifiers (only the Tree operator does). Minting draws numbers from the
// context's shared registry in evaluation order, and those numbers appear
// in the constructed trees — so two units that both mint must not run
// concurrently if a parallel engine is to reproduce serial output exactly. The
// check descends into SourceQuery subplans too; that is conservative
// (pushed plans evaluate at the source), never wrong.
func mintsSkolems(op algebra.Op) bool {
	found := false
	algebra.Walk(op, func(o algebra.Op) bool {
		if _, ok := o.(*algebra.TreeOp); ok {
			found = true
			return false
		}
		return true
	})
	return found
}
