package wire

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/filter"
	"repro/internal/tab"
)

// frameCounter counts the reply frames a client reads: ReadFrame asks for
// the 4-byte header in a read of its own, the convention internal/faults
// relies on too.
type frameCounter struct {
	net.Conn
	frames *atomic.Int32
}

func (c frameCounter) Read(p []byte) (int, error) {
	if len(p) == 4 {
		c.frames.Add(1)
	}
	return c.Conn.Read(p)
}

// dialCounting dials addr with every connection counting its reply frames.
func dialCounting(t *testing.T, addr string) (*Client, *atomic.Int32) {
	t.Helper()
	frames := new(atomic.Int32)
	c, err := DialWith(context.Background(), addr, Options{
		WrapConn: func(conn net.Conn) net.Conn { return frameCounter{conn, frames} },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, frames
}

func serveFeed(t *testing.T) *Server {
	t.Helper()
	fw := feed.New("bulkfeed", datagen.NewFeedStore(datagen.GenerateFeed(datagen.DefaultFeedParams(200))))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, Exported{Source: fw})
	t.Cleanup(srv.Close)
	return srv
}

// TestReplyFrameCounts pins the frame grammar's cost: the terminal marker
// rides on the last data frame, so whatever fits one chunk is one frame —
// what a one-shot reply used to be — and k chunks are never more than k + 1.
func TestReplyFrameCounts(t *testing.T) {
	str := func(s string) map[string]tab.Cell {
		return map[string]tab.Cell{"$k": tab.AtomCell(data.String(s))}
	}
	o2srv, _ := serveO2(t)
	waissrv, _ := serveWais(t)
	o2Row := &algebra.Select{
		From: &algebra.Bind{Doc: "artifacts",
			F: filter.MustParse(`set[ *class[ artifact.tuple[ title: $t ] ] ]`)},
		Pred: algebra.MustParseExpr(`$t = $k`),
	}
	o2Batch := &algebra.Select{From: o2Row.From, Pred: algebra.MustParseExpr(`$t = $k`)}
	var bindings []map[string]tab.Cell
	for i := 0; i < algebra.DefaultBatchChunk; i++ {
		bindings = append(bindings, str("Nympheas"))
	}
	cases := []struct {
		name      string
		addr      string
		call      func(c *Client) (rows int, err error)
		rows, max int
	}{
		{"one-row push, o2", o2srv.Addr(), func(c *Client) (int, error) {
			res, err := c.Push(o2Row, str("Nympheas"))
			return tabRows(res), err
		}, 1, 1},
		{"one-row push, wais", waissrv.Addr(), func(c *Client) (int, error) {
			res, err := c.Push(&algebra.Select{
				From: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w ]`)},
				Pred: algebra.MustParseExpr(`contains($w, $k)`),
			}, str("Nympheas"))
			return tabRows(res), err
		}, 1, 1},
		{"one-row push, feed", serveFeed(t).Addr(), func(c *Client) (int, error) {
			res, err := c.Push(&algebra.Select{
				From: &algebra.Bind{Doc: "records", F: filter.MustParse(`records[ *record[ id: $id, title: $t ] ]`)},
				Pred: algebra.MustParseExpr(`$id = $k`),
			}, str("rec-000007"))
			return tabRows(res), err
		}, 1, 1},
		{"64-binding batch of one-row results", o2srv.Addr(), func(c *Client) (int, error) {
			res, err := c.PushBatch(o2Batch, bindings)
			n := 0
			for _, r := range res {
				n += r.Len()
			}
			return n, err
		}, algebra.DefaultBatchChunk, 1},
		{"fetch under one chunk", o2srv.Addr(), func(c *Client) (int, error) {
			f, err := c.Fetch("artifacts")
			return len(f), err
		}, -1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, frames := dialCounting(t, tc.addr)
			frames.Store(0) // the hello
			rows, err := tc.call(c)
			if err != nil {
				t.Fatal(err)
			}
			if tc.rows >= 0 && rows != tc.rows {
				t.Errorf("rows = %d, want %d", rows, tc.rows)
			}
			if got := int(frames.Load()); got != tc.max {
				t.Errorf("reply frames = %d, want exactly %d", got, tc.max)
			}
		})
	}
	for _, k := range []int{2, 5} {
		cc, frames := dialCounting(t, serveChunked(t, &chunked{chunks: k}).Addr())
		for name, pull := range map[string]func() (int, error){
			"push": func() (int, error) {
				res, err := cc.Push(anyPlan, nil)
				return tabRows(res), err
			},
			"fetch": func() (int, error) {
				f, err := cc.Fetch("d")
				return len(f), err
			},
		} {
			frames.Store(0)
			rows, err := pull()
			if err != nil || rows != k*tab.DefaultStreamChunk {
				t.Fatalf("%s of %d chunks = %d rows, %v", name, k, rows, err)
			}
			if got := int(frames.Load()); got < k || got > k+1 {
				t.Errorf("%s of %d chunks took %d frames, want %d (at most %d)", name, k, got, k, k+1)
			}
		}
	}
}

func tabRows(t *tab.Tab) int {
	if t == nil {
		return 0
	}
	return t.Len()
}

// fat is a source answering every binding with one row of rowBytes bytes,
// counting its evaluations.
type fat struct {
	rowBytes int
	evals    atomic.Int32
}

func (s *fat) Name() string                      { return "fat" }
func (s *fat) Documents() []string               { return nil }
func (s *fat) Fetch(string) (data.Forest, error) { return nil, errors.New("no docs") }

func (s *fat) row(tag string) *tab.Tab {
	t := tab.New("$x")
	t.AddRow(tab.Row{tab.AtomCell(data.String(tag + strings.Repeat("x", s.rowBytes)))})
	return t
}

func (s *fat) Push(_ algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	s.evals.Add(1)
	return s.row("solo:"), nil
}

func (s *fat) PushBatch(plan algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	return s.PushBatchContext(context.Background(), plan, bindings)
}

func (s *fat) PushBatchContext(_ context.Context, _ algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	s.evals.Add(1)
	out := make([]*tab.Tab, len(bindings))
	for i, b := range bindings {
		k, _ := b["$k"].AsAtom()
		out[i] = s.row(k.Text() + ":")
	}
	return out, nil
}

func serveFat(t *testing.T, src *fat) (*Client, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, Exported{Source: src})
	t.Cleanup(srv.Close)
	return dialCounting(t, srv.Addr())
}

// TestReplyLargerThanMaxFrame: a batch whose combined result would not fit
// one frame is split by encoded size and arrives whole. Before the frame
// writer bounded frames by size, the server hung up on the oversized
// <batch>, the client took the EOF for a transport failure, and the wrapper
// evaluated the request defaultAttempts (3) times before the caller got a bare
// EOF.
func TestReplyLargerThanMaxFrame(t *testing.T) {
	src := &fat{rowBytes: 1 << 20}
	c, frames := serveFat(t, src)
	var bindings []map[string]tab.Cell
	for i := 0; i < 24; i++ { // 24 MiB of rows against the 16 MiB MaxFrame
		bindings = append(bindings, map[string]tab.Cell{"$k": tab.AtomCell(data.Int(int64(i)))})
	}
	frames.Store(0)
	c.TakeRetryStats()
	res, err := c.PushBatch(anyPlan, bindings)
	if err != nil {
		t.Fatalf("batch of %d MiB: %v", len(bindings), err)
	}
	for i, r := range res {
		a, _ := r.Rows[0][0].AsAtom()
		if r.Len() != 1 || len(a.S) < src.rowBytes || !strings.HasPrefix(a.S, strings.TrimSpace(data.Int(int64(i)).Text())+":") {
			t.Fatalf("result %d = %d rows, %d bytes, prefix %.8q", i, r.Len(), len(a.S), a.S)
		}
	}
	if got := src.evals.Load(); got != 1 {
		t.Errorf("the wrapper evaluated the batch %d times, want once", got)
	}
	if retries, redials := c.TakeRetryStats(); retries != 0 || redials != 0 {
		t.Errorf("retries, redials = %d, %d, want 0, 0", retries, redials)
	}
	if got := frames.Load(); got < 2 {
		t.Errorf("reply frames = %d, want the result split over several", got)
	}
}

// TestSingleRowLargerThanMaxFrame: a row that alone exceeds the limit cannot
// be split; the reply is an error naming the limit, on a connection that
// stays usable — not a disconnect, and not retried.
func TestSingleRowLargerThanMaxFrame(t *testing.T) {
	src := &fat{rowBytes: MaxFrame + 1}
	c, _ := serveFat(t, src)
	c.TakeRetryStats()
	_, err := c.Push(anyPlan, nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "exceeds frame limit") {
		t.Fatalf("over-limit row = %v, want a RemoteError naming the frame limit", err)
	}
	if got := src.evals.Load(); got != 1 {
		t.Errorf("evaluations = %d, want 1", got)
	}
	src.rowBytes = 8
	if res, err := c.Push(anyPlan, nil); err != nil || res.Len() != 1 {
		t.Fatalf("push after the refusal = %v, %v", res, err)
	}
	if retries, redials := c.TakeRetryStats(); retries != 0 || redials != 0 {
		t.Errorf("retries, redials = %d, %d: the refusal must leave the connection usable", retries, redials)
	}
}
