// Package obs is the mediator's observability subsystem: per-operator
// tracing (span trees shaped like the executed plan), a lightweight metrics
// registry (counters, gauges, histograms — stdlib only) and an HTTP plane
// serving the registry as JSON next to net/http/pprof.
//
// The paper's whole argument (§5–§6, Figure 9) is quantitative — pushes
// saved, tuples shipped, rounds of rewriting — but global counters cannot
// say *where* a query spends its time or issues its pushes. A span tree
// attributes both to individual algebra operators: every operator
// evaluation opens a span carrying wall time, output rows and the Counts of
// the work performed inside it (fetches, pushes, shipped tuples and bytes,
// Bind rows, function calls, cache traffic, retries), with annotations for
// cache probes, batch chunks, retry recovery and breaker state. Counts is
// also the type of the query's global counters (algebra.Stats), so a span
// tree sums to them field for field. Under parallel execution, per-worker
// spans parent to the operator that fanned them out, and the trace id
// travels over the wire so wrapper-side request spans correlate with the
// mediator operator that caused them.
//
// Tracing is strictly opt-in and designed to cost one nil pointer check per
// operator evaluation when off (pinned by BenchmarkTraceOverhead).
package obs

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counts are the execution counters of a query: the externally observable
// work of a plan (the counters EXPERIMENTS.md reports) and the mediator-side
// work that explains it. One type serves both the query's global totals
// (algebra.Stats is an alias) and a span's share of them — the work done
// directly inside the span, not inside its children — and the evaluator
// writes both through one call, so summing Counts over a whole trace
// reproduces the global counters exactly (TestProfileSumsMatchStats).
type Counts struct {
	SourceFetches int   `json:"fetches,omitempty"`       // whole documents shipped to the mediator
	SourcePushes  int   `json:"pushes,omitempty"`        // push requests issued to sources (a batched push counts once)
	TuplesShipped int   `json:"tuples,omitempty"`        // rows returned by sources
	BytesShipped  int64 `json:"bytes_shipped,omitempty"` // approximate serialized volume received from sources
	FuncCalls     int   `json:"func_calls,omitempty"`    // external predicate/method invocations
	BindRows      int   `json:"bind_rows,omitempty"`     // rows produced by mediator-side Bind operations

	CacheHits      int `json:"cache_hits,omitempty"`      // pushes answered by the wrapper-result cache
	CacheMisses    int `json:"cache_misses,omitempty"`    // cache probes that went to the source
	CacheEvictions int `json:"cache_evictions,omitempty"` // entries displaced by the cache's LRU bound

	Retries int `json:"retries,omitempty"` // transport exchanges retried after a transient failure
	Redials int `json:"redials,omitempty"` // stale pooled connections transparently redialed
}

// Add accumulates c2 into c.
func (c *Counts) Add(c2 Counts) {
	c.SourceFetches += c2.SourceFetches
	c.SourcePushes += c2.SourcePushes
	c.TuplesShipped += c2.TuplesShipped
	c.BytesShipped += c2.BytesShipped
	c.FuncCalls += c2.FuncCalls
	c.BindRows += c2.BindRows
	c.CacheHits += c2.CacheHits
	c.CacheMisses += c2.CacheMisses
	c.CacheEvictions += c2.CacheEvictions
	c.Retries += c2.Retries
	c.Redials += c2.Redials
}

// CounterValue is one counter under the name the metrics registry gives it.
type CounterValue struct {
	Name  string
	Value int64
}

// Totals lists every counter under its registry name, one "*_total" per
// field: the one list /metrics is fed from, kept beside Add so a new field
// is named in both.
func (c Counts) Totals() []CounterValue {
	return []CounterValue{
		{"source_fetches_total", int64(c.SourceFetches)},
		{"source_pushes_total", int64(c.SourcePushes)},
		{"tuples_shipped_total", int64(c.TuplesShipped)},
		{"bytes_shipped_total", c.BytesShipped},
		{"func_calls_total", int64(c.FuncCalls)},
		{"bind_rows_total", int64(c.BindRows)},
		{"cache_hits_total", int64(c.CacheHits)},
		{"cache_misses_total", int64(c.CacheMisses)},
		{"cache_evictions_total", int64(c.CacheEvictions)},
		{"retries_total", int64(c.Retries)},
		{"redials_total", int64(c.Redials)},
	}
}

// Attr is one span annotation (cache probe outcome, batch chunk size,
// breaker state, wrapper-side timing, ...).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed unit of work: an operator evaluation, a fan-out worker,
// a batched push chunk, or a wrapper-side request. Spans form a tree shaped
// like the executed plan. A span is written by the goroutine evaluating it;
// concurrent children attach through the parent's lock, so span trees
// compose correctly under parallel execution.
type Span struct {
	ID     string // trace id; shared by every span of one trace
	Name   string // kind: operator name ("DJoin"), "worker", "chunk", "push", ...
	Detail string // operator Detail() or free-form description
	Start  time.Time
	End    time.Time
	Rows   int    // output rows; -1 when the span has no tabular output
	Err    string // non-empty when the unit failed

	mu     sync.Mutex
	counts Counts
	attrs  []Attr
	kids   []*Span
	first  time.Time // time the first output chunk left the operator (streaming)
}

// MarkFirstRow records the instant the span produced its first output row.
// Only the first call sticks; safe to call from the consumer goroutine of a
// streaming cursor. Materialized evaluation never calls it, so a zero First
// means "not streamed" in renderings.
func (s *Span) MarkFirstRow() {
	s.mu.Lock()
	if s.first.IsZero() {
		s.first = time.Now()
	}
	s.mu.Unlock()
}

// FirstRow returns the latency from span start to its first output row, and
// whether a first row was ever marked.
func (s *Span) FirstRow() (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.first.IsZero() {
		return 0, false
	}
	return s.first.Sub(s.Start), true
}

// traceSeq disambiguates traces minted in the same nanosecond (and process).
var traceSeq atomic.Int64

// NewTrace starts a new root span with a fresh trace id.
func NewTrace(name string) *Span {
	return &Span{
		ID:    fmt.Sprintf("t%x-%x-%x", os.Getpid(), time.Now().UnixNano(), traceSeq.Add(1)),
		Name:  name,
		Start: time.Now(),
		Rows:  -1,
	}
}

// NewChild opens a child span; safe to call from concurrent workers.
func (s *Span) NewChild(name, detail string) *Span {
	k := &Span{ID: s.ID, Name: name, Detail: detail, Start: time.Now(), Rows: -1}
	s.mu.Lock()
	s.kids = append(s.kids, k)
	s.mu.Unlock()
	return k
}

// Finish closes the span with its output row count (-1: no tabular output)
// and failure, if any.
func (s *Span) Finish(rows int, err error) {
	s.End = time.Now()
	s.Rows = rows
	if err != nil {
		s.Err = err.Error()
	}
}

// Annotate attaches a key/value annotation.
func (s *Span) Annotate(key, value string) {
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// AddCounts folds source-work counts into the span.
func (s *Span) AddCounts(c Counts) {
	s.mu.Lock()
	s.counts.Add(c)
	s.mu.Unlock()
}

// Counts returns the span's own counts (excluding children).
func (s *Span) Counts() Counts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts
}

// Attrs returns a copy of the span's annotations.
func (s *Span) Attrs() []Attr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Children returns a copy of the span's child list.
func (s *Span) Children() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.kids...)
}

// Duration is the span's wall time (0 until finished).
func (s *Span) Duration() time.Duration {
	if s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Walk visits the span tree in pre-order.
func (s *Span) Walk(fn func(*Span)) {
	fn(s)
	for _, k := range s.Children() {
		k.Walk(fn)
	}
}

// TreeCounts sums Counts over the whole subtree; for a root span this
// equals the query's Stats.
func (s *Span) TreeCounts() Counts {
	var total Counts
	s.Walk(func(sp *Span) { total.Add(sp.Counts()) })
	return total
}

// SpanCount reports the number of spans in the subtree.
func (s *Span) SpanCount() int {
	n := 0
	s.Walk(func(*Span) { n++ })
	return n
}

// Render draws the span tree as an indented, annotated plan profile — the
// EXPLAIN ANALYZE rendering of the `profile` console command:
//
//	DJoin                                   12.3ms rows=148 pushes=3
//	  Bind(works, ...)                       1.2ms rows=148
//	  worker 0
//	    chunk [64 bindings]                  4.0ms pushes=1 tuples=64
func Render(s *Span) string {
	var b strings.Builder
	renderSpan(&b, s, 0)
	return b.String()
}

func renderSpan(b *strings.Builder, s *Span, depth int) {
	head := strings.Repeat("  ", depth)
	if s.Detail != "" {
		head += s.Detail
	} else {
		head += s.Name
	}
	b.WriteString(head)
	pad := 44 - len(head)
	if pad < 1 {
		pad = 1
	}
	b.WriteString(strings.Repeat(" ", pad))
	fmt.Fprintf(b, "%8s", s.Duration().Round(time.Microsecond))
	if s.Rows >= 0 {
		fmt.Fprintf(b, " rows=%d", s.Rows)
	}
	if first, ok := s.FirstRow(); ok {
		fmt.Fprintf(b, " first=%s", first.Round(time.Microsecond))
	}
	c := s.Counts()
	if c.SourceFetches > 0 {
		fmt.Fprintf(b, " fetches=%d", c.SourceFetches)
	}
	if c.SourcePushes > 0 {
		fmt.Fprintf(b, " pushes=%d", c.SourcePushes)
	}
	if c.TuplesShipped > 0 {
		fmt.Fprintf(b, " tuples=%d", c.TuplesShipped)
	}
	if c.CacheHits > 0 || c.CacheMisses > 0 {
		fmt.Fprintf(b, " cache=%d/%d", c.CacheHits, c.CacheHits+c.CacheMisses)
	}
	if c.Retries > 0 || c.Redials > 0 {
		fmt.Fprintf(b, " recovered=%d+%d", c.Retries, c.Redials)
	}
	for _, a := range s.Attrs() {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
	}
	if s.Err != "" {
		fmt.Fprintf(b, " ERROR=%q", s.Err)
	}
	b.WriteByte('\n')
	kids := s.Children()
	// Concurrent children attach in completion order; render in start order
	// so the profile reads like the plan.
	sort.SliceStable(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	for _, k := range kids {
		renderSpan(b, k, depth+1)
	}
}
