package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeAndCounts(t *testing.T) {
	root := NewTrace("query")
	if root.ID == "" {
		t.Fatal("empty trace id")
	}
	a := root.NewChild("DJoin", "DJoin(...)")
	a.AddCounts(Counts{SourcePushes: 2, TuplesShipped: 10})
	b := a.NewChild("chunk", "chunk [5 bindings]")
	b.AddCounts(Counts{SourcePushes: 1, TuplesShipped: 5, CacheMisses: 1})
	b.Finish(5, nil)
	a.Finish(10, nil)
	c := root.NewChild("Project", "Project(x)")
	c.AddCounts(Counts{SourceFetches: 1})
	c.Finish(10, errors.New("boom"))
	root.Finish(10, nil)

	if b.ID != root.ID || c.ID != root.ID {
		t.Fatal("children must inherit the trace id")
	}
	total := root.TreeCounts()
	want := Counts{SourceFetches: 1, SourcePushes: 3, TuplesShipped: 15, CacheMisses: 1}
	if total != want {
		t.Fatalf("TreeCounts = %+v, want %+v", total, want)
	}
	if n := root.SpanCount(); n != 4 {
		t.Fatalf("SpanCount = %d, want 4", n)
	}
	if c.Err != "boom" {
		t.Fatalf("Err = %q", c.Err)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	root := NewTrace("q")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := root.NewChild("worker", fmt.Sprintf("unit %d", i))
			s.AddCounts(Counts{TuplesShipped: 1})
			s.Annotate("i", fmt.Sprint(i))
			s.Finish(-1, nil)
		}(i)
	}
	wg.Wait()
	root.Finish(-1, nil)
	if got := len(root.Children()); got != 32 {
		t.Fatalf("children = %d, want 32", got)
	}
	if tc := root.TreeCounts(); tc.TuplesShipped != 32 {
		t.Fatalf("tuples = %d, want 32", tc.TuplesShipped)
	}
}

func TestRender(t *testing.T) {
	root := NewTrace("query")
	d := root.NewChild("DJoin", "DJoin(free=x)")
	d.AddCounts(Counts{SourcePushes: 3, TuplesShipped: 148, CacheHits: 2, CacheMisses: 1})
	d.Annotate("chunks", "3")
	d.Finish(148, nil)
	root.Finish(148, nil)
	out := Render(root)
	for _, want := range []string{"DJoin(free=x)", "rows=148", "pushes=3", "tuples=148", "cache=2/3", "chunks=3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
	// children indent below the root
	if !strings.Contains(out, "\n  DJoin") {
		t.Fatalf("child not indented:\n%s", out)
	}
}

func TestContextPropagation(t *testing.T) {
	if SpanFrom(context.Background()) != nil || SpanFrom(nil) != nil {
		t.Fatal("SpanFrom on empty/nil context must be nil")
	}
	if TraceID(context.Background()) != "" {
		t.Fatal("TraceID on empty context must be empty")
	}
	s := NewTrace("q")
	ctx := WithSpan(context.Background(), s)
	if SpanFrom(ctx) != s {
		t.Fatal("SpanFrom did not round-trip")
	}
	if TraceID(ctx) != s.ID {
		t.Fatal("TraceID mismatch")
	}
}

func TestChromeTrace(t *testing.T) {
	root := NewTrace("query")
	a := root.NewChild("Bind", "Bind(w)")
	time.Sleep(time.Millisecond)
	a.Finish(10, nil)
	// two overlapping "parallel" children: force distinct lanes
	b := root.NewChild("worker", "unit 0")
	c := root.NewChild("worker", "unit 1")
	time.Sleep(time.Millisecond)
	c.Finish(-1, nil)
	b.Finish(-1, nil)
	root.Finish(10, nil)

	raw, err := ChromeTrace(root)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v", err)
	}
	if len(f.TraceEvents) != 4 {
		t.Fatalf("events = %d, want 4", len(f.TraceEvents))
	}
	tids := map[string]int{}
	for _, e := range f.TraceEvents {
		if e.Ph != "X" {
			t.Fatalf("ph = %q, want X", e.Ph)
		}
		if e.Args["trace_id"] != root.ID {
			t.Fatalf("trace_id missing on %s", e.Name)
		}
		tids[fmt.Sprint(e.Args["detail"])] = e.TID
	}
	if tids["unit 0"] == tids["unit 1"] {
		t.Fatal("overlapping workers must get distinct lanes")
	}
}

func TestRegistryAndPlane(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("queries_total").Add(3)
	if reg.Counter("queries_total").Value() != 3 {
		t.Fatal("counter get-or-create must return the same instrument")
	}
	reg.Gauge("breaker_o2").Set(1)
	h := reg.Histogram("query_ms")
	h.Observe(0.2)
	h.Observe(12)
	h.Observe(9999) // overflow bucket
	if h.Count() != 3 {
		t.Fatalf("hist count = %d", h.Count())
	}

	p, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	resp, err := http.Get("http://" + p.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]int64 `json:"gauges"`
		Histograms map[string]struct {
			Count   int64            `json:"count"`
			Sum     float64          `json:"sum"`
			Buckets map[string]int64 `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if snap.Counters["queries_total"] != 3 || snap.Gauges["breaker_o2"] != 1 {
		t.Fatalf("snapshot wrong: %s", body)
	}
	qh := snap.Histograms["query_ms"]
	if qh.Count != 3 || qh.Buckets["+Inf"] != 3 {
		t.Fatalf("histogram snapshot wrong: %s", body)
	}

	// pprof index must answer on the same plane
	resp2, err := http.Get("http://" + p.Addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %d", resp2.StatusCode)
	}
}

func TestObserver(t *testing.T) {
	o := NewObserver(nil)
	s := o.StartRequest("push", "t123")
	o.EndRequest(s, 7, nil)
	s2 := o.StartRequest("fetch", "")
	o.EndRequest(s2, -1, errors.New("nope"))

	spans := o.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].ID != "t123" || spans[0].Name != "push" || spans[0].Rows != 7 {
		t.Fatalf("span 0 wrong: %+v", spans[0])
	}
	if o.Reg.Counter("wire_requests_total").Value() != 2 ||
		o.Reg.Counter("wire_request_errors_total").Value() != 1 ||
		o.Reg.Counter("wire_rows_returned_total").Value() != 7 {
		t.Fatal("registry not fed")
	}
	// ring bound
	for i := 0; i < maxObserverSpans+10; i++ {
		o.EndRequest(o.StartRequest("push", ""), 0, nil)
	}
	if len(o.Spans()) != maxObserverSpans {
		t.Fatalf("ring = %d, want %d", len(o.Spans()), maxObserverSpans)
	}
}
