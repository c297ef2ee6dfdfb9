package wire

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/filter"
	"repro/internal/leakcheck"
	"repro/internal/tab"
)

// drainForest pulls a forest cursor to exhaustion.
func drainForest(t *testing.T, cur algebra.ForestCursor) data.Forest {
	t.Helper()
	defer cur.Close()
	var out data.Forest
	for {
		f, err := cur.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f...)
	}
}

// The cursor and the drain read the same frames: a document pulled through
// FetchStream equals the one Fetch returns, and both equal the source's.
func TestFetchStreamMatchesFetch(t *testing.T) {
	srv, ow := serveO2(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cur, err := c.FetchStream(context.Background(), "artifacts")
	if err != nil {
		t.Fatal(err)
	}
	streamed := drainForest(t, cur)
	fetched, err := c.Fetch("artifacts")
	if err != nil {
		t.Fatal(err)
	}
	local, err := ow.Fetch("artifacts")
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(local) || !streamed.Equal(fetched) {
		t.Fatalf("streamed %d trees, fetched %d, local %d", len(streamed), len(fetched), len(local))
	}
	if streamed[0].Label != "set" || len(streamed[0].Kids) != 3 {
		t.Errorf("streamed extent = %v", streamed[0])
	}
	// Server-side failures arrive as a clean error in place of the first chunk.
	if _, err := c.FetchStream(context.Background(), "ghost"); err == nil {
		t.Error("stream fetch of unknown doc must fail")
	}
}

func TestPushStreamMatchesPush(t *testing.T) {
	srv, ow := serveO2(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	plan := &algebra.Select{
		From: &algebra.Bind{Doc: "artifacts",
			F: filter.MustParse(`set[ *class[ artifact.tuple[ title: $t, year: $y ] ] ]`)},
		Pred: algebra.MustParseExpr(`$y > 1800`),
	}
	cur, err := c.PushStream(context.Background(), plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := tab.Drain(cur)
	if err != nil {
		t.Fatal(err)
	}
	pushed, err := c.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	local, err := ow.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !streamed.Equal(pushed) || !streamed.EqualUnordered(local) {
		t.Errorf("streamed:\n%s\npushed:\n%s\nlocal:\n%s", streamed, pushed, local)
	}
	badPlan := &algebra.Bind{Doc: "artifacts",
		F: filter.MustParse(`set[ *class[ artifact.tuple[ ghost: $g ] ] ]`)}
	if _, err := c.PushStream(context.Background(), badPlan, nil); err == nil {
		t.Error("stream push of unsupported plan must fail")
	}
}

// scripted serves a fake wrapper: <hello/> is answered properly, every other
// request by play, which writes whatever reply it likes on the connection
// (and returns false to hang up afterwards).
func scripted(t testing.TB, play func(conn net.Conn, req string) bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			func() {
				defer conn.Close()
				for {
					req, err := ReadFrame(conn)
					if err != nil {
						return
					}
					if req == "<hello/>" {
						if WriteFrame(conn, `<wrapper name="fake" docs="d"/>`) != nil {
							return
						}
					} else if !play(conn, req) {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

func TestMidStreamErrorTerminatesCleanly(t *testing.T) {
	// A wrapper failing mid-reply reports an <error> frame after payload
	// chunks: the consumer gets the typed remote error, and the connection
	// survives to serve the next request — no redial.
	idle := leakcheck.Arm(t)
	addr := scripted(t, func(conn net.Conn, req string) bool {
		return WriteFrame(conn, `<chunk><work><title>Olympia</title></work></chunk>`) == nil &&
			WriteFrame(conn, errorXML("disk on fire")) == nil
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := 0; round < 2; round++ {
		cur, err := c.FetchStream(context.Background(), "d")
		if err != nil {
			t.Fatal(err)
		}
		first, err := cur.Next()
		if err != nil || len(first) != 1 || first[0].Label != "work" {
			t.Fatalf("first batch = %v, %v; want the one work tree", first, err)
		}
		_, err = cur.Next()
		var re *RemoteError
		if !errors.As(err, &re) || re.Msg != "disk on fire" {
			t.Fatalf("mid-stream failure = %v, want the wrapper's RemoteError", err)
		}
		cur.Close()
		idle(c)
	}
	// The error frame is a clean terminal: the second round reused the
	// first's connection.
	if retries, redials := c.TakeRetryStats(); retries != 0 || redials != 0 {
		t.Errorf("retries, redials = %d, %d after clean error terminals, want 0, 0", retries, redials)
	}
	// A drain sees the same failure, typed the same, and does not retry it.
	if _, err := c.Fetch("d"); !errors.As(err, new(*RemoteError)) {
		t.Errorf("drained mid-stream failure = %v, want RemoteError", err)
	}
}

// chunked is a source whose every answer is chunks full chunks long; a
// positive stallAt blocks the producer before that chunk until release is
// closed.
type chunked struct {
	chunks  int
	stallAt int
	release chan struct{}
	closed  atomic.Int32 // cursors closed by the server
}

func (s *chunked) Name() string        { return "chunked" }
func (s *chunked) Documents() []string { return []string{"d"} }

func (s *chunked) chunk(i int) *tab.Tab {
	t := tab.New("$x")
	for j := 0; j < tab.DefaultStreamChunk; j++ {
		t.AddRow(tab.Row{tab.AtomCell(data.Int(int64(i*tab.DefaultStreamChunk + j)))})
	}
	return t
}

func (s *chunked) Fetch(string) (data.Forest, error) {
	var f data.Forest
	for i := 0; i < s.chunks*tab.DefaultStreamChunk; i++ {
		f = append(f, data.IntLeaf("n", int64(i)))
	}
	return f, nil
}

func (s *chunked) Push(algebra.Op, map[string]tab.Cell) (*tab.Tab, error) {
	return nil, errors.New("chunked streams its pushes")
}

func (s *chunked) PushStream(ctx context.Context, _ algebra.Op, _ map[string]tab.Cell) (tab.Cursor, error) {
	i := 0
	return &tab.FuncCursor{
		Columns: []string{"$x"},
		NextFn: func() (*tab.Tab, error) {
			if i >= s.chunks {
				return nil, io.EOF
			}
			if i == s.stallAt && s.stallAt > 0 {
				<-s.release
			}
			i++
			return s.chunk(i - 1), nil
		},
		CloseFn: func() error {
			s.closed.Add(1)
			return nil
		},
	}, nil
}

func serveChunked(t *testing.T, src *chunked) *Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, Exported{Source: src})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		if src.release != nil {
			close(src.release)
		}
		srv.Close()
	})
	return c
}

var anyPlan = &algebra.Bind{Doc: "d", F: filter.MustParse(`x: $x`)}

// TestCursorLifecycle ends a reply every way other than by reading it to its
// last row, on both cursor kinds: the request slot comes back, the pinned
// connection and its cancellation callback go away, and the server-side producer is
// closed.
func TestCursorLifecycle(t *testing.T) {
	open := map[string]func(*Client, context.Context) (func() (int, error), func() error, error){
		"fetch": func(c *Client, ctx context.Context) (func() (int, error), func() error, error) {
			cur, err := c.FetchStream(ctx, "d")
			if err != nil {
				return nil, nil, err
			}
			return func() (int, error) { f, err := cur.Next(); return len(f), err }, cur.Close, nil
		},
		"push": func(c *Client, ctx context.Context) (func() (int, error), func() error, error) {
			cur, err := c.PushStream(ctx, anyPlan, nil)
			if err != nil {
				return nil, nil, err
			}
			return func() (int, error) {
				t, err := cur.Next()
				if err != nil {
					return 0, err
				}
				return t.Len(), nil
			}, cur.Close, nil
		},
	}
	for kind, open := range open {
		t.Run(kind+"/close before the first chunk is read", func(t *testing.T) {
			idle := leakcheck.Arm(t)
			c := serveChunked(t, &chunked{chunks: 4})
			_, closeCur, err := open(c, context.Background())
			if err != nil {
				t.Fatal(err)
			}
			closeCur()
			closeCur() // idempotent
			idle(c)
		})
		t.Run(kind+"/close mid-stream", func(t *testing.T) {
			idle := leakcheck.Arm(t)
			c := serveChunked(t, &chunked{chunks: 4})
			next, closeCur, err := open(c, context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if n, err := next(); err != nil || n != tab.DefaultStreamChunk {
				t.Fatalf("first chunk = %d rows, %v", n, err)
			}
			closeCur()
			if _, err := next(); err != io.EOF {
				t.Errorf("Next after Close = %v, want io.EOF", err)
			}
			idle(c)
			// The abandoned reply's connection is gone, not parked with
			// unread frames on it: the next request gets a whole answer.
			if f, err := c.Fetch("d"); err != nil || len(f) != 4*tab.DefaultStreamChunk {
				t.Errorf("fetch after an abandoned reply = %d trees, %v", len(f), err)
			}
		})
		t.Run(kind+"/cancel mid-stream", func(t *testing.T) {
			idle := leakcheck.Arm(t)
			c := serveChunked(t, &chunked{chunks: 4})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			next, closeCur, err := open(c, ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer closeCur()
			if _, err := next(); err != nil {
				t.Fatal(err)
			}
			cancel()
			for err = nil; err == nil; {
				_, err = next()
			}
			// Frames already buffered may still arrive whole; what must not
			// happen is a hang or an untyped failure.
			if err != io.EOF && !errors.Is(err, context.Canceled) {
				t.Errorf("reply after cancel ended with %v, want context.Canceled (or a complete read)", err)
			}
			idle(c)
		})
	}
	t.Run("push/deadline on a stalled source", func(t *testing.T) {
		idle := leakcheck.Arm(t)
		src := &chunked{chunks: 6, stallAt: 3, release: make(chan struct{})}
		c := serveChunked(t, src)
		ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
		defer cancel()
		cur, err := c.PushStream(ctx, anyPlan, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		rows := 0
		for err == nil {
			var chunk *tab.Tab
			if chunk, err = cur.Next(); err == nil {
				rows += chunk.Len()
			}
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("stalled reply ended with %v after %d rows, want context.DeadlineExceeded", err, rows)
		}
		// One chunk of look-ahead: with chunk 3 stalled, chunks 0 and 1 are
		// out and chunk 2 is still pending in the writer.
		if rows != 2*tab.DefaultStreamChunk {
			t.Errorf("rows before the stall = %d, want %d", rows, 2*tab.DefaultStreamChunk)
		}
		idle(c)
		if retries, redials := c.TakeRetryStats(); retries != 0 || redials != 0 {
			t.Errorf("retries, redials = %d, %d: a reply the consumer has started reading must not be re-sent", retries, redials)
		}
	})
}

// TestAbandonedReplyStopsProducer: closing the cursor hangs up on the
// wrapper, whose next frame write fails and closes the source-side cursor.
func TestAbandonedReplyStopsProducer(t *testing.T) {
	src := &chunked{chunks: 1 << 20} // far more than the socket buffers hold
	c := serveChunked(t, src)
	cur, err := c.PushStream(context.Background(), anyPlan, nil)
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	deadline := time.Now().Add(5 * time.Second)
	for src.closed.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the wrapper kept producing for a client that is gone")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Every transport failure of a drain retries the whole exchange, whichever
// frame it hits; a cursor retries only until its first frame.
func TestDrainRetriesMidReplyCursorDoesNot(t *testing.T) {
	var requests atomic.Int32
	addr := scripted(t, func(conn net.Conn, req string) bool {
		if requests.Add(1) == 1 {
			// First attempt: one good chunk, then the wrapper dies.
			WriteFrame(conn, `<chunk><n>1</n></chunk>`)
			return false
		}
		return WriteFrame(conn, `<chunk><n>1</n></chunk>`) == nil &&
			WriteFrame(conn, `<chunk end="2"><n>2</n></chunk>`) == nil
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Fetch("d")
	if err != nil || len(f) != 2 {
		t.Fatalf("drain across a mid-reply failure = %v, %v; want both trees", f, err)
	}
	if retries, _ := c.TakeRetryStats(); retries != 1 {
		t.Errorf("retries = %d, want 1", retries)
	}

	requests.Store(0)
	cur, err := c.FetchStream(context.Background(), "d")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if first, err := cur.Next(); err != nil || len(first) != 1 {
		t.Fatalf("first chunk = %v, %v", first, err)
	}
	if _, err := cur.Next(); err == nil || err == io.EOF || !IsRetryable(err) {
		t.Fatalf("mid-reply failure on a cursor = %v, want the transport error", err)
	}
	if retries, redials := c.TakeRetryStats(); retries != 0 || redials != 0 {
		t.Errorf("retries, redials = %d, %d, want 0, 0", retries, redials)
	}
	if got := requests.Load(); got != 1 {
		t.Errorf("requests = %d, want 1: a started cursor must not be re-sent", got)
	}
}
