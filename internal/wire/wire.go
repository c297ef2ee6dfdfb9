// Package wire implements the network protocol between wrappers and
// mediators (Figure 2): wrappers serve their structural metadata,
// capability interfaces, documents and pushed-query evaluation over TCP;
// the mediator side exposes a remote wrapper as an algebra.Source. For
// interoperability, every payload is XML (Section 2: "wrappers and
// mediators communicate data, structures and operations in XML"), framed
// by a 4-byte big-endian length prefix.
//
// Three metadata requests are answered by one frame each:
//
//	<hello/>              → <wrapper name=... docs=.../>
//	<interface-request/>  → <interface .../>
//	<structures-request/> → <structures><structure .../>*</structures>
//
// Both the interface and the structures reply are capability's encodings: a
// <structure doc=… pattern=…> holds its model as text, in one <model>
// element, and the entries come in document order.
//
// There is one data request, <query>. It names either a document or a plan
// shipped once with a table of N ≥ 0 binding rows (N = 0 evaluates the plan
// without parameters, N = 1 is a scalar push, N > 1 a batched one), and is
// answered by a sequence of bounded <chunk> frames:
//
//	<query doc="works" [trace="id"]/>
//	    → <chunk>tree*</chunk>*  <chunk end="N" [obs-ns="…"]>tree*</chunk>
//	<query [trace="id"]><plan>…</plan>[<bindings>tab</bindings>]</query>
//	    → <chunk>tabs</chunk>*   <chunk end="N" [obs-ns="…"]>tabs</chunk>
//	    tabs = <tab cols="…" [bind="i"]>row*</tab>*
//
// A chunk holds at most tab.DefaultStreamChunk rows (trees) and never
// serializes beyond MaxFrame. Every <tab> carries its columns and the index
// of the binding row it answers (absent = 0); a binding's rows may span
// several tabs and frames, several small tabs share one frame, and every
// binding is answered by at least one — possibly empty — tab, in binding
// order. The last frame carries the terminal marker end (the row or tree
// total) and, for a traced request, obs-ns, the wrapper-side evaluation
// time: a result that fits one chunk is exactly one frame.
//
// A failure — before the first chunk or between two — travels as
// <error msg="..."/>, which ends the reply and leaves the connection usable.
package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/tab"
	"repro/internal/xmlenc"
)

// MaxFrame bounds a single message (16 MiB); larger frames abort the
// connection rather than exhausting memory.
const MaxFrame = 16 << 20

// The serving side's bounds. idleTimeout is how long a connection may sit
// between requests: a stalled or vanished client is disconnected instead of
// pinning its handler goroutine (and its slot in the accept loop's wait
// group) forever. writeTimeout bounds writing one response frame to a client
// that has stopped reading. maxServerConns bounds the connections handled
// concurrently: each pins a handler goroutine for its lifetime, so without a
// bound one misbehaving client (or a mediator fleet sized beyond the wrapper)
// can exhaust the process; excess connections are refused with a structured
// <error> frame instead of being accepted and starved.
const (
	idleTimeout    = 2 * time.Minute
	writeTimeout   = 30 * time.Second
	maxServerConns = 256
)

// The client's bounds. maxConns bounds the connection pool a Client grows on
// demand when the parallel execution engine issues overlapping requests.
// maxConnIdle bounds how long a pooled connection may sit parked before the
// client drops it instead of reusing it: a conn parked longer than the
// server's idle deadline has likely been hung up on already, and reusing it
// yields a bare EOF on the next request, so the bound is derived from that
// deadline and stays below it.
const (
	maxConns    = 8
	maxConnIdle = idleTimeout / 2
)

// ErrServerBusy is the message a server at its connection cap answers new
// connections with (as a RemoteError on the client side) before closing
// them. Clients treat RemoteError as proof of life — the refusal does not
// count against retry budgets or circuit breakers; a replica router routes
// around the busy wrapper instead.
const ErrServerBusy = "wrapper busy: connection limit reached"

// ErrClientClosed is returned for requests issued on a closed client —
// including requests racing Close that would otherwise fail with a
// confusing EOF from a just-closed pooled connection.
var ErrClientClosed = errors.New("wire: client closed")

// RemoteError is a server-reported <error> frame: the wrapper is alive,
// received the request and answered that it cannot serve it. Retrying
// cannot help, so RemoteError is never retried.
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return "wire: remote error: " + e.Msg }

// CorruptError marks a response frame that arrived whole but whose XML
// does not parse — a transport-level corruption (e.g. a garbling
// middlebox). The request is a read-only query, so the exchange is
// retryable like any other transport failure.
type CorruptError struct{ Err error }

// Error implements error.
func (e *CorruptError) Error() string { return fmt.Sprintf("wire: corrupt response: %v", e.Err) }

// Unwrap exposes the parse failure.
func (e *CorruptError) Unwrap() error { return e.Err }

// IsRetryable classifies an error from a wire exchange: true for
// transport-level failures — broken, reset or refused connections,
// connection timeouts not caused by the caller's context, truncated or
// corrupt frames — where retrying the idempotent request may succeed;
// false for semantic outcomes: a server-reported <error> (RemoteError), a
// closed client, or the caller's context expiring (its budget is spent,
// retrying would only overrun it further).
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrClientClosed) {
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	var ce *CorruptError
	if errors.As(err, &ce) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// The transport retries. Every request the client issues (hello, the two
// imports, query) is a read-only query, hence idempotent: re-sending a failed
// exchange cannot duplicate effects at the wrapper. Retries apply only to
// transport failures (IsRetryable); RemoteError and context cancellation
// return immediately. A request gets defaultAttempts tries unless
// Options.Attempts says otherwise; retry k waits retryBase·2^(k-1), capped at
// retryMaxDelay and jittered within ±retryJitter — decorrelating the retry
// storms of concurrent requests — from a stream seeded with retrySeed, so
// retry timing is reproducible.
const (
	defaultAttempts = 3
	retryBase       = 5 * time.Millisecond
	retryMaxDelay   = 250 * time.Millisecond
	retryJitter     = 0.5
	retrySeed       = 1
)

// backoff computes the wait before retry number `retry` (0-based): base
// doubled per retry, capped at retryMaxDelay, jittered by rnd ∈ [0,1).
func backoff(base time.Duration, retry int, rnd float64) time.Duration {
	d := base
	for i := 0; i < retry && d < retryMaxDelay; i++ {
		d *= 2
	}
	d = min(d, retryMaxDelay)
	return time.Duration(float64(d) * (1 + retryJitter*(2*rnd-1)))
}

// WriteFrame writes one length-prefixed XML payload.
func WriteFrame(w io.Writer, payload string) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, payload)
	return err
}

// ReadFrame reads one length-prefixed XML payload.
func ReadFrame(r io.Reader) (string, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return "", err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return "", fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// Exported is everything a wrapper serves: the source itself, its
// capability interface and its structural models (document name → model and
// root pattern name).
type Exported struct {
	Source     algebra.Source
	Interface  *capability.Interface
	Structures map[string]StructureRef
	// Obs, when non-nil, records a span per handled request — carrying the
	// caller's trace id when the frame was tagged — and feeds per-request
	// counters and latency histograms into its registry (the wrapper's
	// -metrics-addr plane). The last frame of a traced query's reply is
	// additionally stamped with an obs-ns attribute, the wrapper-side
	// evaluation time, which the client folds back into the caller's span.
	Obs *obs.Observer
}

// StructureRef is capability.StructureRef, the one structure reference. The
// alias is kept only because the benchmark module (bench/deploy.go) names it.
type StructureRef = capability.StructureRef

// Server serves one wrapper over a listener.
type Server struct {
	Exp   Exported
	ln    net.Listener
	idle  time.Duration
	write time.Duration
	slots chan struct{} // one token per inflight connection handler
	wg    sync.WaitGroup

	// refused counts connections turned away at the cap (observability for
	// tests and load experiments).
	refused atomic.Int64
}

// Serve starts serving on the listener under the package's idle, write and
// connection bounds and returns immediately; call Close to stop. Each
// connection handles a sequence of requests.
func Serve(ln net.Listener, exp Exported) *Server {
	return serve(ln, exp, idleTimeout, writeTimeout, maxServerConns)
}

// serve is Serve with its bounds as parameters: idle is the wait for the
// next request on a connection, write the time to send one response frame,
// conns the connections handled at once. A connection beyond conns is
// answered with one <error> frame (ErrServerBusy) and closed — refused
// cleanly rather than accepted and starved, so a client sees a structured
// refusal instead of a hang.
func serve(ln net.Listener, exp Exported, idle, write time.Duration, conns int) *Server {
	s := &Server{Exp: exp, ln: ln, idle: idle, write: write, slots: make(chan struct{}, conns)}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			select {
			case s.slots <- struct{}{}:
			default:
				// At the cap: refuse with a structured frame instead of
				// pinning another handler goroutine. The writer goroutine is
				// bounded by the write deadline, not by client behaviour.
				s.refused.Add(1)
				s.wg.Add(1)
				go func() {
					defer s.wg.Done()
					defer conn.Close()
					conn.SetWriteDeadline(time.Now().Add(s.write))
					_ = WriteFrame(conn, errorXML("%s", ErrServerBusy))
				}()
				continue
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				defer func() { <-s.slots }()
				s.handle(conn)
			}()
		}
	}()
	return s
}

// Refused reports how many connections the server turned away at its
// connection cap.
func (s *Server) Refused() int64 { return s.refused.Load() }

// Close stops the server and waits for in-flight connections.
func (s *Server) Close() {
	s.ln.Close()
	s.wg.Wait()
}

// Addr reports the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// handle serves one connection: a sequence of requests, each answered by one
// or more frames.
func (s *Server) handle(conn net.Conn) {
	for {
		conn.SetReadDeadline(time.Now().Add(s.idle))
		req, err := ReadFrame(conn)
		if err != nil {
			return // connection closed or idle too long
		}
		w := &frameWriter{s: s, conn: conn}
		s.serve(w, req)
		if w.err == errClientGone {
			return
		}
	}
}

func errorXML(format string, args ...any) string {
	n := data.Elem("error")
	n.Add(data.Text("@msg", fmt.Sprintf(format, args...)))
	return xmlenc.Serialize(n)
}

// serve answers one request. With an observer, one span covers the request
// from its first frame to its last, carrying the caller's trace id when the
// request was tagged — the wrapper-side half of a distributed trace.
func (s *Server) serve(w *frameWriter, req string) {
	n, err := xmlenc.Parse(req)
	if err != nil {
		w.fail(fmt.Errorf("bad request: %v", err))
		return
	}
	if s.Exp.Obs == nil {
		s.answer(w, n)
		return
	}
	traceID := n.Attr("trace")
	w.traced = traceID != ""
	sp := s.Exp.Obs.StartRequest(n.Label, traceID)
	rows, err := s.answer(w, n)
	s.Exp.Obs.EndRequest(sp, rows, err)
}

// answer serves one parsed request. rows is the number of result rows
// shipped (-1 when the request has no tabular result) and err the failure
// reported to the client, both for the observer.
func (s *Server) answer(w *frameWriter, n *data.Node) (rows int, err error) {
	switch n.Label {
	case "hello":
		resp := data.Elem("wrapper")
		resp.Add(data.Text("@name", s.Exp.Source.Name()))
		resp.Add(data.Text("@docs", strings.Join(s.Exp.Source.Documents(), " ")))
		w.frame(xmlenc.Serialize(resp))
	case "interface-request":
		if s.Exp.Interface == nil {
			return -1, w.fail(errors.New("no interface exported"))
		}
		w.frame(xmlenc.Serialize(capability.ToXML(s.Exp.Interface)))
	case "structures-request":
		w.frame(xmlenc.Serialize(capability.StructuresToXML(s.Exp.Structures)))
	case "query":
		w.start = time.Now()
		if n.Child("@doc") != nil {
			if err = s.sendDoc(w, n.Attr("doc")); err != nil {
				err = fmt.Errorf("fetch %s: %v", n.Attr("doc"), err)
			}
		} else if err = s.sendPlan(w, n); err != nil {
			err = fmt.Errorf("push: %v", err)
		}
		return w.total, w.end(err)
	default:
		return -1, w.fail(fmt.Errorf("unknown request <%s>", n.Label))
	}
	return -1, w.err
}

// sendDoc ships a document's trees in bounded frames, as the source
// produces them.
func (s *Server) sendDoc(w *frameWriter, doc string) error {
	cur, err := algebra.FetchStream(context.Background(), s.Exp.Source, doc)
	if err != nil {
		return err
	}
	defer cur.Close() // an abandoned client stops the source-side producer
	for {
		f, err := cur.Next()
		if err == io.EOF {
			return nil
		}
		if err == nil {
			err = w.trees(f)
		}
		if err != nil {
			return err
		}
	}
}

// sendPlan evaluates a pushed plan once per binding row — once, without
// parameters, when there are none — and ships one result per row. The plan
// ships once however many rows there are: more than one is a batch, answered
// whole in one round trip; a single evaluation streams its rows.
func (s *Server) sendPlan(w *frameWriter, n *data.Node) error {
	pn := n.Child("plan")
	if pn == nil {
		return errors.New("query without doc or plan")
	}
	plan, err := algebra.PlanFromXML(pn.FirstElem())
	if err != nil {
		return fmt.Errorf("plan: %v", err)
	}
	var bindings []map[string]tab.Cell
	if bn := n.Child("bindings"); bn != nil {
		bt, err := tab.FromXML(bn.FirstElem())
		if err != nil {
			return fmt.Errorf("bindings: %v", err)
		}
		for _, r := range bt.Rows {
			m := make(map[string]tab.Cell, len(bt.Cols))
			for j, col := range bt.Cols {
				m[col] = r[j]
			}
			bindings = append(bindings, m)
		}
	}
	if len(bindings) > 1 {
		res, err := algebra.PushBatch(context.Background(), s.Exp.Source, plan, bindings)
		for i := 0; err == nil && i < len(res); i++ {
			err = w.rows(i, res[i])
		}
		return err
	}
	if len(bindings) == 0 {
		bindings = []map[string]tab.Cell{{}} // one evaluation, without parameters
	}
	return s.push(w, plan, bindings[0])
}

// push evaluates plan under one binding and writes the rows as they come.
func (s *Server) push(w *frameWriter, plan algebra.Op, params map[string]tab.Cell) error {
	cur, err := algebra.PushStream(context.Background(), s.Exp.Source, plan, params)
	if err != nil {
		return err
	}
	defer cur.Close()
	for sent := false; ; sent = true {
		t, err := cur.Next()
		if err == io.EOF && !sent {
			return w.rows(0, tab.New(cur.Cols()...)) // an empty result still ships its columns
		}
		if err == io.EOF {
			return nil
		}
		if err == nil {
			err = w.rows(0, t)
		}
		if err != nil {
			return err
		}
	}
}

// piece is the unit a reply is cut into: one document tree, or (some of) the
// rows answering one binding.
type piece struct {
	tree *data.Node
	rows *tab.Tab
	bind int
}

func (p piece) size() int {
	if p.tree != nil {
		return 1
	}
	return p.rows.Len()
}

// errClientGone ends a reply whose frame could not be written.
var errClientGone = errors.New("wire: client gone")

// frameWriter writes the reply to one request. Pieces collect in a pending
// chunk that is written only when the next piece would overfill it or the
// reply ends — one chunk of look-ahead, which is what lets the last data
// frame carry the terminal marker: a result of one chunk is one frame, a
// result of k chunks k frames.
type frameWriter struct {
	s    *Server
	conn net.Conn

	traced bool      // stamp the last frame with obs-ns
	start  time.Time // when the wrapper began on the query

	pend  []piece // the chunk being filled
	held  int     // rows (trees) in pend
	total int     // rows (trees) in the chunks written so far
	// err is set once the reply is over: by an <error> frame, or by a failed
	// write (errClientGone), after which every further frame is a no-op and
	// the handler tears the connection down.
	err error
}

// frame is the one place a reply frame is written, under the server's write
// deadline. A payload WriteFrame would refuse is answered as an error, not
// by hanging up.
func (w *frameWriter) frame(payload string) {
	if w.err == errClientGone {
		return
	}
	if len(payload) > MaxFrame {
		payload = errorXML("reply of %d bytes exceeds frame limit", len(payload))
	}
	w.conn.SetWriteDeadline(time.Now().Add(w.s.write))
	if WriteFrame(w.conn, payload) != nil {
		w.err = errClientGone
	}
}

// fail ends the reply with an <error> frame — a clean terminal wherever it
// falls: the connection stays usable — dropping the rows still pending, and
// returns the error the reply ended with, for the observer.
func (w *frameWriter) fail(err error) error {
	if w.err == nil {
		w.err, w.pend, w.held = err, nil, 0
		w.frame(errorXML("%v", err))
	}
	return w.err
}

// add appends a piece to the pending chunk, first writing that chunk out if
// the piece would overfill it.
func (w *frameWriter) add(p piece) error {
	if w.held > 0 && w.held+p.size() > tab.DefaultStreamChunk {
		w.flush(w.pend, false)
		w.pend, w.held = w.pend[:0], 0
	}
	if w.err == nil {
		w.pend = append(w.pend, p)
		w.held += p.size()
	}
	return w.err
}

// trees adds document trees, one piece each.
func (w *frameWriter) trees(f data.Forest) error {
	for _, t := range f {
		if err := w.add(piece{tree: t}); err != nil {
			return err
		}
	}
	return nil
}

// rows adds the rows answering one binding, sliced to the chunk bound. An
// empty result still adds its (empty) tab: every binding gets an answer.
func (w *frameWriter) rows(bind int, t *tab.Tab) error {
	const max = tab.DefaultStreamChunk
	for t.Len() > max {
		if err := w.add(piece{rows: &tab.Tab{Cols: t.Cols, Rows: t.Rows[:max:max]}, bind: bind}); err != nil {
			return err
		}
		t = &tab.Tab{Cols: t.Cols, Rows: t.Rows[max:]}
	}
	return w.add(piece{rows: t, bind: bind})
}

// end ends the reply: with err as an <error> frame if the query failed,
// else with the pending chunk as the last frame.
func (w *frameWriter) end(err error) error {
	if err != nil || w.err != nil {
		return w.fail(err)
	}
	w.flush(w.pend, true)
	return w.err
}

// flush writes pieces as one chunk frame, the terminal one when last is set.
// A chunk that serializes beyond MaxFrame is halved, down to a single row or
// tree; one of those exceeding the limit alone fails the reply.
func (w *frameWriter) flush(pieces []piece, last bool) {
	n := data.Elem("chunk")
	size := 0
	for _, p := range pieces {
		size += p.size()
	}
	if last {
		n.Add(data.Text("@end", strconv.Itoa(w.total+size)))
		if w.traced {
			n.Add(data.Text("@obs-ns", strconv.FormatInt(time.Since(w.start).Nanoseconds(), 10)))
		}
	}
	for _, p := range pieces {
		if p.tree != nil {
			n.Add(p.tree)
			continue
		}
		tn := tab.ToXML(p.rows)
		if p.bind > 0 {
			tn.Add(data.Text("@bind", strconv.Itoa(p.bind)))
		}
		n.Add(tn)
	}
	payload := xmlenc.Serialize(n)
	if len(payload) > MaxFrame {
		a, b := halve(pieces)
		if a == nil {
			w.fail(fmt.Errorf("one row or tree of %d bytes exceeds frame limit", len(payload)))
			return
		}
		w.flush(a, false)
		if w.err == nil {
			w.flush(b, last)
		}
		return
	}
	w.frame(payload)
	w.total += size
}

// halve splits a chunk's pieces in two, a lone piece by its rows; it returns
// nils when nothing is left to split: one tree, or one row.
func halve(ps []piece) (a, b []piece) {
	if len(ps) > 1 {
		return ps[:len(ps)/2], ps[len(ps)/2:]
	}
	t := ps[0].rows
	if t == nil || t.Len() < 2 {
		return nil, nil
	}
	h := t.Len() / 2
	return []piece{{rows: &tab.Tab{Cols: t.Cols, Rows: t.Rows[:h:h]}, bind: ps[0].bind}},
		[]piece{{rows: &tab.Tab{Cols: t.Cols, Rows: t.Rows[h:]}, bind: ps[0].bind}}
}
