package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/filter"
	"repro/internal/tab"
)

func batchPlan() algebra.Op {
	// Free variable $lo parameterizes the predicate: each binding selects a
	// different year range.
	return &algebra.Select{
		From: &algebra.Bind{Doc: "artifacts",
			F: filter.MustParse(`set[ *class[ artifact.tuple[ title: $t, year: $y ] ] ]`)},
		Pred: algebra.MustParseExpr(`$y > $lo`),
	}
}

func TestPushBatchRoundTrip(t *testing.T) {
	srv, ow := serveO2(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	plan := batchPlan()
	lo := func(y int64) map[string]tab.Cell {
		return map[string]tab.Cell{"$lo": tab.AtomCell(data.Int(y))}
	}
	// Three bindings, the third a duplicate of the first: the protocol makes
	// no dedup promises — three bindings in, three results out, in order.
	bindings := []map[string]tab.Cell{lo(1800), lo(3000), lo(1800)}
	res, err := c.PushBatch(plan, bindings)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %d, want 3", len(res))
	}
	for i, b := range bindings {
		local, err := ow.Push(plan, b)
		if err != nil {
			t.Fatal(err)
		}
		if !res[i].EqualUnordered(local) {
			t.Errorf("binding %d: remote\n%s\nlocal\n%s", i, res[i], local)
		}
	}
	if res[1].Len() != 0 {
		t.Errorf("year > 3000 should be empty: %s", res[1])
	}
	if !res[0].EqualUnordered(res[2]) {
		t.Error("duplicate bindings must yield equal results")
	}

	// An empty binding list short-circuits client-side: no round trip.
	if out, err := c.PushBatch(plan, nil); err != nil || out != nil {
		t.Errorf("empty batch = %v, %v", out, err)
	}
}

// TestMalformedRequests plays requests no client of this package would send
// at one connection: each is answered by a single <error> frame naming the
// fault, and the connection keeps serving.
func TestMalformedRequests(t *testing.T) {
	srv, _ := serveO2(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, err := algebra.MarshalPlan(batchPlan())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		req  string
		want string
	}{
		{"not xml at all", "bad request"},
		{"<unknown-request/>", "unknown request"},
		{"<query/>", "without doc or plan"},
		{"<query><plan/></query>", "plan"},
		// A document enters a plan only through a Bind: <doc> is no plan.
		{`<query><plan><doc name="artifacts"/></plan></query>`, "unknown plan element &lt;doc&gt;"},
		{"<query><plan><bogus-op/></plan><bindings>" +
			tab.Marshal(tab.New("$lo")) + "</bindings></query>", "plan"},
		{"<query><plan>" + enc + "</plan><bindings/></query>", "bindings"},
		{"<query><plan>" + enc + "</plan><bindings><not-a-tab/></bindings></query>", "bindings"},
		// A binding table without rows is a parameterless push: the plan's
		// free variable $lo stays unbound and the wrapper says so.
		{"<query><plan>" + enc + "</plan><bindings>" +
			tab.Marshal(tab.New("$lo")) + "</bindings></query>", "push"},
		{`<query doc="ghost"/>`, "fetch ghost"},
	}
	for _, c := range cases {
		if err := WriteFrame(conn, c.req); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(resp, "<error") || !strings.Contains(resp, c.want) {
			t.Errorf("req %.40q: resp %q, want an error mentioning %q", c.req, resp, c.want)
		}
	}
	// The connection survives malformed requests: a healthy one still works.
	if err := WriteFrame(conn, "<hello/>"); err != nil {
		t.Fatal(err)
	}
	if resp, err := ReadFrame(conn); err != nil || !strings.Contains(resp, "o2artifact") {
		t.Errorf("post-error hello = %q, %v", resp, err)
	}
}

func TestPushBatchErrorPropagates(t *testing.T) {
	// A plan the wrapper cannot evaluate fails the whole batch with a single
	// error frame; the client surfaces it and returns no partial results.
	srv, _ := serveO2(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bad := &algebra.Bind{Doc: "artifacts",
		F: filter.MustParse(`set[ *class[ artifact.tuple[ ghost: $g ] ] ]`)}
	res, err := c.PushBatch(bad, []map[string]tab.Cell{{}, {}})
	if err == nil || res != nil {
		t.Fatalf("bad batch = %v, %v; want remote error and nil results", res, err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "push") {
		t.Errorf("error should be the wrapper's push failure: %v", err)
	}
}

func TestOversizedFrameClosesConnection(t *testing.T) {
	srv, _ := serveO2(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A header claiming a body beyond MaxFrame must abort the connection —
	// the server hangs up instead of allocating.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadFrame(conn); err == nil {
		t.Fatal("server answered an oversized frame instead of disconnecting")
	}
}

// stallSource delays every push by the configured duration, simulating a slow
// or hung wrapper.
type stallSource struct {
	mu    sync.Mutex
	delay time.Duration
}

func (s *stallSource) setDelay(d time.Duration) {
	s.mu.Lock()
	s.delay = d
	s.mu.Unlock()
}

func (s *stallSource) Name() string                      { return "stall" }
func (s *stallSource) Documents() []string               { return nil }
func (s *stallSource) Fetch(string) (data.Forest, error) { return nil, fmt.Errorf("no docs") }
func (s *stallSource) Push(algebra.Op, map[string]tab.Cell) (*tab.Tab, error) {
	s.mu.Lock()
	d := s.delay
	s.mu.Unlock()
	time.Sleep(d)
	return tab.New("$x"), nil
}

func TestPoolSurvivesRepeatedTimeouts(t *testing.T) {
	// Regression: a request that dies on its context deadline must free its
	// pool slot (and its cancellation callback must not poison a reused connection), so a
	// burst of timeouts far beyond the pool bound cannot wedge the client.
	src := &stallSource{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, Exported{Source: src})
	defer srv.Close()

	const conns = 2
	c, err := newClient(srv.Addr(), Options{}, conns, maxConnIdle, retryBase).hello(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	plan := &algebra.Bind{Doc: "d", F: filter.MustParse(`x: $v`)}
	src.setDelay(300 * time.Millisecond)
	for i := 0; i < 3*conns; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
		_, err := c.PushBatchContext(ctx, plan, []map[string]tab.Cell{nil})
		cancel()
		if err == nil {
			t.Fatalf("push %d should have timed out", i)
		}
	}

	// Every slot must be free again: a healthy push succeeds promptly.
	src.setDelay(0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.PushBatchContext(ctx, plan, []map[string]tab.Cell{nil})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("healthy push after timeout burst: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pool exhausted: healthy push never completed")
	}
}

// TestPlanEncodingMemoIsBounded: a plan node is encoded once, and the memo
// keeps at most planEncCacheSize encodings however many plans pass.
func TestPlanEncodingMemoIsBounded(t *testing.T) {
	c := newClient("127.0.0.1:0", Options{}, 1, time.Minute, time.Millisecond)
	defer c.Close()
	plan := batchPlan()
	first, err := c.encodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := c.encodePlan(plan); again != first || c.encs.Len() != 1 {
		t.Fatalf("second encoding of one plan: memo holds %d, same text %v", c.encs.Len(), again == first)
	}
	for i := 0; i < 2*planEncCacheSize; i++ {
		if _, err := c.encodePlan(batchPlan()); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.encs.Len(); n != planEncCacheSize {
		t.Errorf("memo holds %d encodings, want %d", n, planEncCacheSize)
	}
}
