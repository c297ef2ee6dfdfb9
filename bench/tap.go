package main

import (
	"context"
	"strconv"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/tab"
)

// tap is the timing decorator interposed on an algebra.Source: handed to
// mediator.Connect it records one source.call span per call the mediator
// makes, handed to wire.Exported it records one wrapper.call span per call
// the wire server makes into the wrapped source. A streamed call records its
// open and every pull as separate spans (verbs "fetchstream" /
// "fetchstream.next"), so the time the consumer spends between pulls is not
// charged to the source.
//
// The mediator's guard, the replica router and the wire server each choose a
// code path by type-asserting the optional source interfaces, so a decorator
// must expose exactly the optional interfaces its inner source has: decorate
// returns a view narrowed to that set.
type tap struct {
	inner algebra.Source
	rec   *recorder
	span  string // spanSource or spanWrapper
}

func (t *tap) done(p pending, verb string, rows int, err error) {
	attrs := map[string]string{"source": t.inner.Name(), "verb": verb, "rows": strconv.Itoa(rows)}
	if err != nil {
		attrs["error"] = err.Error()
	}
	t.rec.finish(p, t.span, t.span == spanWrapper, attrs)
}

func (t *tap) Name() string        { return t.inner.Name() }
func (t *tap) Documents() []string { return t.inner.Documents() }

func (t *tap) Fetch(doc string) (data.Forest, error) {
	p := t.rec.start()
	f, err := t.inner.Fetch(doc)
	t.done(p, "fetch", len(f), err)
	return f, err
}

func (t *tap) Push(plan algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	p := t.rec.start()
	res, err := t.inner.Push(plan, params)
	t.done(p, "push", tabLen(res), err)
	return res, err
}

// FetchContext and PushContext fall back to the plain calls exactly as every
// caller of algebra.ContextSource does for a source without it.
func (t *tap) FetchContext(ctx context.Context, doc string) (data.Forest, error) {
	cs, ok := t.inner.(algebra.ContextSource)
	if !ok {
		return t.Fetch(doc)
	}
	p := t.rec.start()
	f, err := cs.FetchContext(ctx, doc)
	t.done(p, "fetch", len(f), err)
	return f, err
}

func (t *tap) PushContext(ctx context.Context, plan algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	cs, ok := t.inner.(algebra.ContextSource)
	if !ok {
		return t.Push(plan, params)
	}
	p := t.rec.start()
	res, err := cs.PushContext(ctx, plan, params)
	t.done(p, "push", tabLen(res), err)
	return res, err
}

// TakeRetryStats implements algebra.RetryReporter (not timed: it is a
// counter drain, not a source call).
func (t *tap) TakeRetryStats() (retries, redials int) {
	if rr, ok := t.inner.(algebra.RetryReporter); ok {
		return rr.TakeRetryStats()
	}
	return 0, 0
}

// SourceState implements algebra.StateReporter.
func (t *tap) SourceState() string {
	if sr, ok := t.inner.(algebra.StateReporter); ok {
		return sr.SourceState()
	}
	return ""
}

func tabLen(t *tab.Tab) int {
	if t == nil {
		return 0
	}
	return t.Len()
}

type tapBatch struct{ t *tap }

func (b tapBatch) PushBatch(plan algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	p := b.t.rec.start()
	res, err := b.t.inner.(algebra.BatchSource).PushBatch(plan, bindings)
	b.t.done(p, "pushbatch", batchLen(res), err)
	return res, err
}

func (b tapBatch) PushBatchContext(ctx context.Context, plan algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	p := b.t.rec.start()
	res, err := b.t.inner.(algebra.BatchSource).PushBatchContext(ctx, plan, bindings)
	b.t.done(p, "pushbatch", batchLen(res), err)
	return res, err
}

func batchLen(ts []*tab.Tab) int {
	n := 0
	for _, t := range ts {
		n += tabLen(t)
	}
	return n
}

type tapFetchStream struct{ t *tap }

func (s tapFetchStream) FetchStream(ctx context.Context, doc string) (algebra.ForestCursor, error) {
	p := s.t.rec.start()
	cur, err := s.t.inner.(algebra.StreamSource).FetchStream(ctx, doc)
	s.t.done(p, "fetchstream", 0, err)
	if err != nil {
		return nil, err
	}
	return &tapForestCursor{t: s.t, cur: cur}, nil
}

type tapPushStream struct{ t *tap }

func (s tapPushStream) PushStream(ctx context.Context, plan algebra.Op, params map[string]tab.Cell) (tab.Cursor, error) {
	p := s.t.rec.start()
	cur, err := s.t.inner.(algebra.PushStreamSource).PushStream(ctx, plan, params)
	s.t.done(p, "pushstream", 0, err)
	if err != nil {
		return nil, err
	}
	return &tapTabCursor{t: s.t, cur: cur}, nil
}

type tapForestCursor struct {
	t   *tap
	cur algebra.ForestCursor
}

func (c *tapForestCursor) Next() (data.Forest, error) {
	p := c.t.rec.start()
	f, err := c.cur.Next()
	c.t.done(p, "fetchstream.next", len(f), nil) // io.EOF ends a stream, it is not a failure
	return f, err
}

func (c *tapForestCursor) Close() error { return c.cur.Close() }

type tapTabCursor struct {
	t   *tap
	cur tab.Cursor
}

func (c *tapTabCursor) Cols() []string { return c.cur.Cols() }

func (c *tapTabCursor) Next() (*tab.Tab, error) {
	p := c.t.rec.start()
	res, err := c.cur.Next()
	c.t.done(p, "pushstream.next", tabLen(res), nil)
	return res, err
}

func (c *tapTabCursor) Close() error { return c.cur.Close() }

// decorate wraps inner in a tap exposing Source, ContextSource,
// RetryReporter and StateReporter (whose callers all fall back the way the
// tap itself does) plus exactly those of BatchSource, StreamSource and
// PushStreamSource that inner implements.
func decorate(inner algebra.Source, rec *recorder, span string) algebra.Source {
	t := &tap{inner: inner, rec: rec, span: span}
	_, b := inner.(algebra.BatchSource)
	_, f := inner.(algebra.StreamSource)
	_, p := inner.(algebra.PushStreamSource)
	switch {
	case b && f && p:
		return struct {
			*tap
			tapBatch
			tapFetchStream
			tapPushStream
		}{t, tapBatch{t}, tapFetchStream{t}, tapPushStream{t}}
	case b && f:
		return struct {
			*tap
			tapBatch
			tapFetchStream
		}{t, tapBatch{t}, tapFetchStream{t}}
	case b && p:
		return struct {
			*tap
			tapBatch
			tapPushStream
		}{t, tapBatch{t}, tapPushStream{t}}
	case f && p:
		return struct {
			*tap
			tapFetchStream
			tapPushStream
		}{t, tapFetchStream{t}, tapPushStream{t}}
	case b:
		return struct {
			*tap
			tapBatch
		}{t, tapBatch{t}}
	case f:
		return struct {
			*tap
			tapFetchStream
		}{t, tapFetchStream{t}}
	case p:
		return struct {
			*tap
			tapPushStream
		}{t, tapPushStream{t}}
	default:
		return t
	}
}
