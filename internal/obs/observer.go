package obs

import (
	"sync"
	"time"
)

// maxObserverSpans bounds the observer's span ring so a long-lived wrapper
// server cannot grow memory without bound.
const maxObserverSpans = 256

// Observer is the server-side observability hook handed to a wire.Server:
// it records one span per handled request (query, hello, ...), first frame
// to last, carrying the caller's trace id when the request was tagged, and
// feeds per-request counters and latency histograms into its Registry.
type Observer struct {
	Reg *Registry

	mu    sync.Mutex
	spans []*Span // ring of recent request spans, newest last
}

// NewObserver returns an observer feeding the given registry (which may be
// shared with the rest of the process).
func NewObserver(reg *Registry) *Observer {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Observer{Reg: reg}
}

// StartRequest opens a span for one wire request. kind is the request's
// label ("query" for data, "hello", ...); traceID is the caller's trace id
// from the frame tag ("" when the caller was not tracing).
func (o *Observer) StartRequest(kind, traceID string) *Span {
	s := &Span{ID: traceID, Name: kind, Start: time.Now(), Rows: -1}
	o.mu.Lock()
	o.spans = append(o.spans, s)
	if len(o.spans) > maxObserverSpans {
		o.spans = o.spans[len(o.spans)-maxObserverSpans:]
	}
	o.mu.Unlock()
	return s
}

// EndRequest closes the span and feeds the registry.
func (o *Observer) EndRequest(s *Span, rows int, err error) {
	s.Finish(rows, err)
	o.Reg.Counter("wire_requests_total").Add(1)
	o.Reg.Counter("wire_requests_" + s.Name).Add(1)
	if err != nil {
		o.Reg.Counter("wire_request_errors_total").Add(1)
	}
	if rows > 0 {
		o.Reg.Counter("wire_rows_returned_total").Add(int64(rows))
	}
	o.Reg.Histogram("wire_request_ms").Observe(float64(s.Duration()) / float64(time.Millisecond))
}

// Spans returns a copy of the recent request spans, oldest first.
func (o *Observer) Spans() []*Span {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]*Span(nil), o.spans...)
}
