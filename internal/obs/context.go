package obs

import "context"

type spanKey struct{}

// WithSpan returns a context carrying the span. The wire client reads it to
// tag outgoing query requests with the trace id, so
// wrapper-side work is attributed to the mediator operator that caused it.
func WithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the span carried by the context, or nil.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// TraceID returns the trace id carried by the context, or "".
func TraceID(ctx context.Context) string {
	if s := SpanFrom(ctx); s != nil {
		return s.ID
	}
	return ""
}
