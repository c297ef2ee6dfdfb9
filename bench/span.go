package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Every span is recorded by bench/ code around a call into a
// layer's public surface; nothing inside the program under test is touched.
const (
	spanClientOp = "client.op"          // one client-observed operation
	spanReplayOp = "replay.op"          // the same query text replayed stage by stage
	spanAdmit    = "frontdoor.admit"    // Door.Admit + release
	spanCompose  = "mediator.compose"   // Mediator.Compose
	spanOptimize = "optimizer.optimize" // Mediator.Optimize (verification included)
	spanLint     = "planlint.lint"      // Mediator.Lint
	spanInfer    = "typecheck.infer"    // Mediator.TypecheckPlan
	spanStream   = "exec.stream"        // StreamPlan -> last chunk drained
	spanSource   = "source.call"        // mediator-side decorator around a source call
	spanWrapper  = "wrapper.call"       // server-side decorator around the wrapped source
	spanO2       = "o2.execute"         // o2.DB.Execute replay of the wrapper's last OQL
	spanIngest   = "feed.ingest"        // Store.Ingest of the rendered dump
)

// span is one recorded interval. Parent is the id of the span that caused
// it (0 for a root), Op the id of the root it belongs to.
type span struct {
	ID      int64             `json:"id"`
	Parent  int64             `json:"parent"`
	Op      int64             `json:"op"`
	Name    string            `json:"name"`
	StartNS int64             `json:"start_ns"`
	EndNS   int64             `json:"end_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory until the workload ends. The traced phase
// runs one client, so the client side is a strict stack of open spans: cur
// is the innermost open one and root the operation it belongs to. Decorators
// running on the mediator's and the wrapper servers' goroutines read both
// atomically to attribute their calls.
type recorder struct {
	epoch time.Time
	next  atomic.Int64
	cur   atomic.Int64
	root  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// openSpan is a client-side span between begin and end.
type openSpan struct {
	r      *recorder
	s      span
	isRoot bool
}

// begin opens a client-side span under the innermost open one; with none
// open it starts a new operation. Only the single client goroutine calls it.
func (r *recorder) begin(name string, attrs map[string]string) *openSpan {
	id := r.next.Add(1)
	parent := r.cur.Load()
	o := &openSpan{r: r, isRoot: parent == 0}
	if o.isRoot {
		r.root.Store(id)
	}
	o.s = span{ID: id, Parent: parent, Op: r.root.Load(), Name: name, Attrs: attrs,
		StartNS: r.since(time.Now())}
	r.cur.Store(id)
	return o
}

// end closes the span.
func (o *openSpan) end() {
	o.s.EndNS = o.r.since(time.Now())
	o.r.cur.Store(o.s.Parent)
	if o.isRoot {
		o.r.root.Store(0)
	}
	o.r.add(o.s)
}

func (o *openSpan) attr(k, v string) {
	if o.s.Attrs == nil {
		o.s.Attrs = map[string]string{}
	}
	o.s.Attrs[k] = v
}

// pending is a decorator-side span: its parent is whatever client-side span
// was innermost when the call started.
type pending struct {
	parent, op int64
	start      time.Time
}

func (r *recorder) start() pending {
	return pending{parent: r.cur.Load(), op: r.root.Load(), start: time.Now()}
}

// finish records the call. unresolved leaves the parent to link (server-side
// calls cannot know which mediator-side call caused them).
func (r *recorder) finish(p pending, name string, unresolved bool, attrs map[string]string) {
	end := time.Now()
	s := span{ID: r.next.Add(1), Parent: p.parent, Op: p.op, Name: name, Attrs: attrs,
		StartNS: r.since(p.start), EndNS: r.since(end)}
	if unresolved {
		s.Parent = -1
	}
	r.add(s)
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the recorded spans with every parent resolved.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	link(out)
	return out
}

// link resolves the parent of every wrapper.call: the source.call on the
// same source, in the same operation, that contains it in time — the
// tightest one when several do (parallel pushes to one source overlap). A
// wrapper call that no source call contains keeps its operation as parent.
func link(spans []span) {
	bySource := map[string][]int{}
	for i := range spans {
		if spans[i].Name == spanSource {
			k := spans[i].Attrs["source"]
			bySource[k] = append(bySource[k], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != -1 {
			continue
		}
		s.Parent = s.Op
		var best time.Duration = -1
		for _, j := range bySource[s.Attrs["source"]] {
			c := &spans[j]
			if c.Op == s.Op && c.StartNS <= s.StartNS && s.EndNS <= c.EndNS && (best < 0 || c.dur() < best) {
				best, s.Parent = c.dur(), c.ID
			}
		}
	}
}

// selfTimes returns, per span id, the span's duration minus the union of its
// children's intervals clipped to the span — not their sum: parallel
// children overlap and must not be subtracted twice.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][][2]int64{}
	for i := range spans {
		if p := spans[i].Parent; p > 0 {
			kids[p] = append(kids[p], [2]int64{spans[i].StartNS, spans[i].EndNS})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		out[s.ID] = s.dur() - covered(kids[s.ID], s.StartNS, s.EndNS)
	}
	return out
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	at := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return time.Duration(total)
}

// writeTrace writes the spans of one workload as JSON.
func writeTrace(path string, workload string, spans []span) error {
	b, err := json.Marshal(map[string]any{"workload": workload, "clock": "ns since recorder start", "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
