package mediator

import (
	"context"
	"fmt"
	"time"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/tab"
	"repro/internal/typecheck"
)

// Stream is one live query — the one way the mediator executes a plan: a
// pump of one producer (exec.Pump) that pulls the pipeline and hands its
// chunks over a channel two chunks deep, so the consumer's pace
// backpressures the whole plan down to the wrappers and the mediator never
// holds more than those two chunks. The consumer ranges over Chunks() and
// then reads the terminal outcome from Result, or calls Drain for both at
// once; abandoning early via Close cancels the producing pipeline, which
// propagates to in-flight wrapper streams.
type Stream struct {
	cols   []string
	pump   *exec.Pump
	cancel context.CancelFunc // releases the query context the engine cursor was opened under
	res    *Result            // settled by the producer before Chunks closes
}

// Cols reports the result column set, known before the first chunk.
func (s *Stream) Cols() []string { return append([]string(nil), s.cols...) }

// Chunks is the bounded result channel. It is closed after the last chunk
// (or after a failure — check Result then).
func (s *Stream) Chunks() <-chan *tab.Tab { return s.pump.C }

// Result blocks until the stream terminates and returns the query outcome:
// plan, statistics, trace and partial-failure report. Result.Tab is nil —
// the rows went through Chunks and were never retained. An AllowPartial
// stream that degraded reports the unreachable sources in SourceErrors; the
// rows already streamed stand as a lower bound of the complete answer.
func (s *Stream) Result() (*Result, error) {
	if err := s.pump.Err(); err != nil {
		return nil, err
	}
	return s.res, nil
}

// Drain consumes the stream to completion and returns its outcome with the
// rows collected in Result.Tab — the materialized form of a query.
func (s *Stream) Drain() (*Result, error) {
	out := tab.New(s.cols...)
	for t := range s.pump.C {
		out.Rows = append(out.Rows, t.Rows...)
	}
	res, err := s.Result()
	if err != nil {
		return nil, err
	}
	res.Tab = out
	return res, nil
}

// Close abandons the stream: the producing pipeline is cancelled, in-flight
// wrapper streams are torn down, and the chunk channel closes. Closing a
// finished stream is a no-op. Safe to call concurrently with a consumer
// blocked on Chunks.
func (s *Stream) Close() {
	s.cancel()
	s.pump.Close()
}

// StreamContext composes, optimizes and executes a query, returning the
// result as a Stream: chunks surface as the engine produces them, peak
// memory is bounded by the two chunks the stream buffers, and the first row
// arrives long before the last wrapper finishes. Option validation, the
// verification gate, retries, circuit breakers, AllowPartial degradation, wire conformance checking,
// tracing, metrics and the result cache apply to every execution, because
// every execution comes through here.
func (m *Mediator) StreamContext(ctx context.Context, querySrc string, opts ExecOptions) (*Stream, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	cat := m.cat.Load()
	p, cached, err := m.plan(cat, querySrc)
	if err != nil {
		return nil, err
	}
	stage := "planned"
	if cached {
		stage = "cached"
	}
	return m.streamPlan(ctx, cat, cat.newContext(), p, stage, opts)
}

// StreamPlan is StreamContext for an already-built plan: the naive
// composition, an ablated optimization, a hand-assembled shape.
func (m *Mediator) StreamPlan(ctx context.Context, plan algebra.Op, opts ExecOptions) (*Stream, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	cat := m.cat.Load()
	return m.streamPlan(ctx, cat, cat.newContext(), &planned{plan: plan}, "custom", opts)
}

// streamPlan runs one plan under one catalog and one evaluation context (a
// fresh one per query; MaterializeProgram's views share one Store, Skolems
// and Catalog so Skolem identifiers fuse), with options already validated.
// stage says where the plan came from ("planned", "cached", "custom" or
// "view") and labels the trace. With CheckInvariants set, a plan the
// optimizer did not verify is analyzed first and, if it fails, refused,
// named by its stage, instead of evaluated; its annotation is kept for
// CheckTypes.
func (m *Mediator) streamPlan(ctx context.Context, cat *catalog, actx *algebra.Context, p *planned, stage string, opts ExecOptions) (*Stream, error) {
	plan := p.plan
	if m.CheckInvariants && !p.verified {
		ann, ds := cat.check(plan)
		if len(ds) > 0 {
			return nil, fmt.Errorf("mediator: refusing to execute %s plan: %w", stage, typecheck.Error(ds))
		}
		p.annOnce.Do(func() { p.ann = ann })
	}
	if opts.AllowPartial {
		// Pre-attach the report: the engine works on a shallow copy of the
		// context, so a report it creates itself would be unreadable here.
		actx.Partial = algebra.NewPartialReport()
	}
	cat.installWireChecker(actx, p, opts)
	root := m.attachTrace(actx, opts, stage)
	// The cancel lever covers the whole pipeline: Close (abandon) cancels
	// it, which unblocks any in-flight pull down to the wrapper reads.
	sctx, cancel := context.WithCancel(ctx)
	start := time.Now()
	cur, err := exec.New(opts).Stream(sctx, plan, actx)
	if err != nil {
		cancel()
		if root != nil {
			root.Finish(-1, err)
		}
		cat.recordQuery(time.Since(start), *actx.Stats, err)
		return nil, err
	}
	s := &Stream{cols: cur.Cols(), cancel: cancel,
		res: &Result{Plan: algebra.Describe(plan), Trace: root}}
	s.pump = exec.NewPump(ctx, func(_ context.Context, send func(*tab.Tab) error) error {
		return s.produce(cur, send, cat, actx, root, start)
	})
	return s, nil
}

// produce forwards the pipeline's chunks to send until EOF, failure or
// abandon, then settles the stream's outcome before Chunks closes: query
// context released, trace root closed with the row count, metrics recorded,
// statistics and the partial report snapshotted into the Result.
func (s *Stream) produce(cur tab.Cursor, send func(*tab.Tab) error, cat *catalog, actx *algebra.Context, root *obs.Span, start time.Time) error {
	rows := 0
	err := exec.Forward(cur, func(t *tab.Tab) error {
		if err := send(t); err != nil {
			return err
		}
		rows += t.Len()
		return nil
	})
	// However the stream ends, release the query context, or it stays
	// registered on its parent for the parent's lifetime.
	s.cancel()
	if root != nil {
		if err != nil {
			root.Finish(-1, err)
		} else {
			root.Finish(rows, nil)
		}
	}
	cat.recordQuery(time.Since(start), *actx.Stats, err)
	s.res.Stats = *actx.Stats
	if actx.Partial != nil {
		s.res.SourceErrors = actx.Partial.Failures()
	}
	return err
}
