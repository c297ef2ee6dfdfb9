package wire

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/tab"
	"repro/internal/xmlenc"
)

// echo answers every plan with the rows its bindings ask for: one row per
// binding naming it, or $n rows when the binding has one — enough for a fuzzed
// request to reach one frame, several, an empty result and a failure without
// a source engine in the way.
type echo struct{}

func (echo) Name() string        { return "echo" }
func (echo) Documents() []string { return []string{"d"} }

func (echo) Fetch(doc string) (data.Forest, error) {
	if doc != "d" {
		return nil, errors.New("no such document")
	}
	return (&chunked{chunks: 2}).Fetch(doc)
}

func (echo) Push(_ algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	t := tab.New("$x")
	n := int64(1)
	if a, ok := params["$n"].AsAtom(); ok && a.Kind == data.KindInt {
		n = a.I % 1000
	}
	if n < 0 {
		return nil, errors.New("negative row count")
	}
	for i := int64(0); i < n; i++ {
		t.AddRow(tab.Row{tab.AtomCell(data.Int(i))})
	}
	return t, nil
}

// FuzzServeRequest plays arbitrary bytes at a server as one request frame:
// the answer is well-formed frames ending in a terminal one (the last chunk,
// a metadata answer, or an <error>), and the same connection still answers
// a <hello/> afterwards.
func FuzzServeRequest(f *testing.F) {
	plan, err := algebra.MarshalPlan(anyPlan)
	if err != nil {
		f.Fatal(err)
	}
	rows := func(n ...int64) string {
		t := tab.New("$n")
		for _, v := range n {
			t.AddRow(tab.Row{tab.AtomCell(data.Int(v))})
		}
		return "<bindings>" + tab.Marshal(t) + "</bindings>"
	}
	for _, seed := range []string{
		`<hello/>`, `<interface-request/>`, `<structures-request/>`,
		`<query doc="d"/>`, `<query doc="ghost" trace="t1"/>`,
		`<query><plan>` + plan + `</plan></query>`,
		`<query trace="t2"><plan>` + plan + `</plan>` + rows(300) + `</query>`,
		`<query><plan>` + plan + `</plan>` + rows(1, 0, 200, 3) + `</query>`,
		`<query><plan>` + plan + `</plan>` + rows(2, -1) + `</query>`,
		`<query><plan>` + plan + `</plan><bindings><tab cols="$n"><row/></tab></bindings></query>`,
		`<query><plan><bogus/></plan></query>`, `<query/>`, `<fetch doc="d"/>`,
		`not xml`, ``, `<query doc="d"`,
	} {
		f.Add([]byte(seed))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	srv := ServeOpts(ln, Exported{Source: echo{}}, ServeOptions{MaxConns: -1})
	f.Cleanup(srv.Close)

	// One connection for the whole run: the hello after every request shows
	// it is still in protocol, and a run of 10^5 requests does not exhaust the
	// ephemeral ports.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { conn.Close() })

	f.Fuzz(func(t *testing.T, req []byte) {
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if err := WriteFrame(conn, string(req)); err != nil {
			t.Fatal(err)
		}
		for {
			raw, err := ReadFrame(conn)
			if err != nil {
				t.Fatalf("request %q: the reply broke off before a terminal frame: %v", req, err)
			}
			n, err := xmlenc.Parse(raw)
			if err != nil {
				t.Fatalf("request %q: reply frame %q is not XML: %v", req, raw, err)
			}
			if n.Label != "chunk" || n.Child("@end") != nil {
				break // a metadata answer, an <error>, or the last chunk
			}
		}
		if err := WriteFrame(conn, `<hello/>`); err != nil {
			t.Fatal(err)
		}
		if resp, err := ReadFrame(conn); err != nil || !strings.HasPrefix(resp, `<wrapper name="echo"`) {
			t.Fatalf("request %q: the connection answers a following hello with %q, %v", req, resp, err)
		}
	})
}

// FuzzReplyFrames plays arbitrary bytes at a client as the reply to a query
// — whole frames, a mid-stream <error>, a missing terminal marker, a binding
// index out of range, an over-limit length header, a torn frame — after which
// the fake wrapper hangs up. Every way of reading a reply ends in rows or an
// error, never a panic or a hang, and holds nothing afterwards.
func FuzzReplyFrames(f *testing.F) {
	frames := func(payloads ...string) []byte {
		var b bytes.Buffer
		for _, p := range payloads {
			WriteFrame(&b, p)
		}
		return b.Bytes()
	}
	row := `<row><atom type="Int">7</atom></row>`
	f.Add(frames(`<chunk end="1"><tab cols="$x">` + row + `</tab></chunk>`))
	f.Add(frames(`<chunk><tab cols="$x">`+row+`</tab><tab cols="$x" bind="1"/></chunk>`,
		`<chunk end="3"><tab cols="$x" bind="2">`+row+row+`</tab></chunk>`))
	f.Add(frames(`<chunk><a/><b>1</b></chunk>`, `<chunk end="3"><c/></chunk>`))
	f.Add(frames(`<chunk><a/></chunk>`, errorXML("disk on fire")))
	f.Add(frames(`<chunk><tab cols="$x">` + row + `</tab></chunk>`)) // no terminal marker
	f.Add(frames(`<chunk end="1"><tab cols="$x" bind="9">` + row + `</tab></chunk>`))
	f.Add(frames(`<chunk end="1"><tab cols="$x" bind="-1"/></chunk>`))
	f.Add(frames(`<chunk><tab cols="$x">`+row+`</tab></chunk>`, `<chunk end="2"><tab cols="$y $z">`+row+`</tab></chunk>`))
	f.Add(frames(`<chunk end="0"/>`))
	f.Add(frames(`<wrapper name="x"/>`))
	f.Add(frames(`<chunk end="1"><tab cols="$x"><row><atom type="Int">seven</atom></row></tab></chunk>`))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '<'})
	f.Add([]byte{0, 0, 0, 40, '<', 'c', 'h'})
	f.Add([]byte{})

	bindings := []map[string]tab.Cell{{}, {}, {}}

	f.Fuzz(func(t *testing.T, reply []byte) {
		// A client whose every connection is an in-memory pipe to a fake
		// wrapper that reads one request, plays the bytes and hangs up.
		c := &Client{
			retry:  RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond},
			rng:    rand.New(rand.NewSource(1)),
			tokens: make(chan struct{}, 1),
			idle:   make(chan pooled, 1),
			encs:   map[algebra.Op]string{},
			conns:  map[net.Conn]bool{},
		}
		c.dial = func(context.Context) (net.Conn, error) {
			near, far := net.Pipe()
			go func() {
				defer far.Close()
				if _, err := ReadFrame(far); err == nil {
					far.Write(reply)
				}
			}()
			return near, nil
		}
		defer c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if cur, err := c.FetchStream(ctx, "d"); err == nil {
			for err == nil {
				_, err = cur.Next()
			}
			cur.Close()
		}
		if cur, err := c.PushStream(ctx, anyPlan, nil); err == nil {
			for err == nil {
				var chunk *tab.Tab
				if chunk, err = cur.Next(); err == nil && !slices.Equal(chunk.Cols, cur.Cols()) {
					t.Fatalf("chunk columns %v under cursor columns %v", chunk.Cols, cur.Cols())
				}
			}
			cur.Close()
		}
		if res, err := c.PushBatchContext(ctx, anyPlan, bindings); err == nil && len(res) != len(bindings) {
			t.Fatalf("%d results for %d bindings", len(res), len(bindings))
		}
		if ctx.Err() != nil {
			t.Fatalf("reading reply %q hung", reply)
		}
		if n := c.InFlight(); n != 0 {
			t.Fatalf("reply %q: %d request slot(s) still held", reply, n)
		}
	})
}
