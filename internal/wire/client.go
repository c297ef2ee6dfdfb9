package wire

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sort"
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

// Compile-time: a remote wrapper client has every optional source extension.
var (
	_ algebra.BatchSource      = (*Client)(nil)
	_ algebra.StreamSource     = (*Client)(nil)
	_ algebra.PushStreamSource = (*Client)(nil)
	_ algebra.RetryReporter    = (*Client)(nil)
)

// Client is the mediator-side proxy for a remote wrapper; it implements
// algebra.Source and its optional extensions (BatchSource, StreamSource,
// PushStreamSource, RetryReporter) over a small pool of TCP
// connections. A serial caller reuses one connection; the parallel
// execution engine's overlapping requests grow the pool on demand up to its
// bound, so concurrent DJoin pushes really overlap at the wrapper instead
// of serializing on a single socket.
type Client struct {
	addr string
	name string
	docs []string

	// dial opens one new connection; Options.WrapConn (fault injection)
	// hooks it. maxIdle bounds how long a parked connection stays reusable;
	// attempts and base are the transport retry budget and first backoff.
	dial     func(ctx context.Context) (net.Conn, error)
	maxIdle  time.Duration
	attempts int
	base     time.Duration

	// retries and redials count transport-level retry work; the mediator
	// drains them into algebra.Stats after every source call (see
	// TakeRetryStats).
	retries atomic.Int64
	redials atomic.Int64

	// rng drives backoff jitter, deterministic under retrySeed.
	rngMu sync.Mutex
	rng   *rand.Rand

	// tokens bounds in-flight requests: one token is held per request.
	tokens chan struct{}
	// idle parks connections between requests for reuse, stamped with the
	// park time so conns idle past maxIdle are dropped, not reused.
	idle chan pooled

	// encs memoizes canonical plan encodings by plan node, so a DJoin
	// pushing one inner plan many times (one request per chunk of bindings)
	// encodes it once instead of once per request, and a cached plan pushed
	// by a later query is not encoded again.
	encs *algebra.LRU[algebra.Op, string]

	mu     sync.Mutex
	conns  map[net.Conn]bool // every live connection, for Close
	closed bool
}

// planEncCacheSize bounds the per-client encoding memo; queries push a
// handful of distinct plans, so the bound exists only as a leak guard.
const planEncCacheSize = 128

func (c *Client) encodePlan(plan algebra.Op) (string, error) {
	if s, ok := c.encs.Get(plan); ok {
		return s, nil
	}
	n, err := algebra.PlanToXML(plan)
	if err != nil {
		return "", err
	}
	s := xmlenc.Serialize(n)
	c.encs.Put(plan, s)
	return s, nil
}

// pooled is a parked connection stamped with its park time.
type pooled struct {
	conn   net.Conn
	parked time.Time
}

// Dial connects to a wrapper with the default options and performs the
// hello exchange.
func Dial(addr string) (*Client, error) {
	return DialWith(context.Background(), addr, Options{})
}

// Options configure DialWith.
type Options struct {
	// Attempts is the number of tries per request, the first included;
	// values below 1 mean 3, and 1 disables retrying.
	Attempts int
	// WrapConn, when non-nil, wraps every new connection — the fault
	// injection hook (see internal/faults).
	WrapConn func(net.Conn) net.Conn
}

// DialWith is Dial with a retry budget and connection wrapping. Both the TCP
// dial and the hello exchange respect the context's deadline, so startup
// against a black-holed or dead address fails when the deadline passes
// instead of hanging for the OS connect timeout.
func DialWith(ctx context.Context, addr string, opts Options) (*Client, error) {
	return newClient(addr, opts, maxConns, maxConnIdle, retryBase).hello(ctx)
}

// newClient builds a client of addr without touching the network, with its
// bounds as parameters: conns connections in the pool, parked ones reused for
// at most maxIdle, a first backoff of base.
func newClient(addr string, opts Options, conns int, maxIdle, base time.Duration) *Client {
	attempts := opts.Attempts
	if attempts < 1 {
		attempts = defaultAttempts
	}
	c := &Client{
		addr:     addr,
		maxIdle:  maxIdle,
		attempts: attempts,
		base:     base,
		rng:      rand.New(rand.NewSource(retrySeed)),
		tokens:   make(chan struct{}, conns),
		idle:     make(chan pooled, conns),
		encs:     algebra.NewLRU[algebra.Op, string](planEncCacheSize),
		conns:    map[net.Conn]bool{},
	}
	c.dial = func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		if opts.WrapConn != nil {
			conn = opts.WrapConn(conn)
		}
		return conn, nil
	}
	return c
}

// hello performs the hello exchange that learns the wrapper's name and
// documents; on failure it closes the client.
func (c *Client) hello(ctx context.Context) (*Client, error) {
	resp, err := c.drain(ctx, framed(`<hello/>`))
	if err != nil {
		c.Close()
		return nil, err
	}
	c.name = resp[0].Attr("name")
	c.docs = strings.Fields(resp[0].Attr("docs"))
	return c, nil
}

// TakeRetryStats drains and returns the transport retry counters
// accumulated since the last call: retries are backed-off re-attempts of
// failed exchanges, redials the transparent redials of stale pooled
// connections. Implements algebra.RetryReporter, so evaluation folds these
// into Stats after every source call without double-counting pushes.
func (c *Client) TakeRetryStats() (retries, redials int) {
	return int(c.retries.Swap(0)), int(c.redials.Swap(0))
}

// acquire obtains a connection for one request: it waits for an in-flight
// slot (or context cancellation), then reuses a parked connection that is
// still fresh, or dials a new one. reused tells the caller the connection
// may have been closed by the server while parked (the stale-connection
// redial in send).
func (c *Client) acquire(ctx context.Context) (conn net.Conn, reused bool, err error) {
	select {
	case c.tokens <- struct{}{}:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	for {
		var p pooled
		select {
		case p = <-c.idle:
		default:
		}
		if p.conn == nil {
			break
		}
		// A request racing Close must get the explicit closed error on
		// the idle-reuse path too, not a confusing EOF from the conn
		// Close just closed under us.
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			c.drop(p.conn)
			<-c.tokens
			return nil, false, ErrClientClosed
		}
		// A conn parked past the freshness bound has likely been hung up
		// on by the server's idle deadline; drop it and keep draining.
		if time.Since(p.parked) > c.maxIdle {
			c.drop(p.conn)
			continue
		}
		return p.conn, true, nil
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		<-c.tokens
		return nil, false, ErrClientClosed
	}
	nc, err := c.dial(ctx)
	if err != nil {
		<-c.tokens
		return nil, false, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		nc.Close()
		<-c.tokens
		return nil, false, ErrClientClosed
	}
	c.conns[nc] = true
	c.mu.Unlock()
	return nc, false, nil
}

// release parks a healthy connection for reuse and frees its slot.
func (c *Client) release(conn net.Conn) {
	conn.SetDeadline(time.Time{})
	select {
	case c.idle <- pooled{conn: conn, parked: time.Now()}:
	default: // cannot happen: idle capacity equals the slot count
		c.drop(conn)
	}
	<-c.tokens
}

// discard closes a connection whose request failed and frees its slot.
func (c *Client) discard(conn net.Conn) {
	c.drop(conn)
	<-c.tokens
}

func (c *Client) drop(conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	delete(c.conns, conn)
	c.mu.Unlock()
}

// Close closes every pooled connection; in-flight requests fail.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	var err error
	for conn := range c.conns {
		if e := conn.Close(); e != nil && err == nil {
			err = e
		}
	}
	c.conns = map[net.Conn]bool{}
	c.mu.Unlock()
	for {
		select {
		case <-c.idle: // already closed above; just unpark
		default:
			return err
		}
	}
}

// reply is one in-flight reply: the frames answering one request. It pins
// its pooled connection until the reply ends: a terminal frame (the last
// chunk, a one-frame metadata answer, or an <error>) re-pools it, while a
// transport failure or an abandon discards it — unread frames would poison
// the next request on that connection.
type reply struct {
	c    *Client
	conn net.Conn
	ctx  context.Context
	got  int        // reply bytes read so far
	held *data.Node // the first frame, read by start, not yet handed out
	done bool
	hdr  [4]byte // each frame's header, read here rather than escaping per frame

	// The cancellation watchdog, armed for the reply's whole lifetime.
	watchDone, watchExit chan struct{}
}

// Read counts the reply bytes as they arrive: the stale-connection redial
// must know whether any had when an attempt failed.
func (r *reply) Read(p []byte) (int, error) {
	n, err := r.conn.Read(p)
	r.got += n
	return n, err
}

// start performs one attempt at a request: acquire a connection, arm the
// cancellation watchdog, send the request and read the first reply frame.
// The context's deadline becomes the connection deadline, and a cancellation
// — before the first frame or between two — unblocks the pending read
// immediately, so a dead wrapper cannot hang a query. reused and the reply's
// byte count feed the caller's stale-connection redial. req is the request
// frame, header included, written in one Write; a retry writes it again.
func (c *Client) start(ctx context.Context, req []byte) (r *reply, reused bool, err error) {
	conn, reused, err := c.acquire(ctx)
	if err != nil {
		return nil, reused, err
	}
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	r = &reply{c: c, conn: conn, ctx: ctx}
	if ctx.Done() != nil {
		r.watchDone, r.watchExit = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(r.watchExit)
			select {
			case <-ctx.Done():
				conn.SetDeadline(time.Unix(1, 0)) // in the past: fail pending I/O now
			case <-r.watchDone:
			}
		}()
	}
	if _, err = conn.Write(req); err != nil {
		r.abort()
		return r, reused, r.ctxErr(err)
	}
	r.held, err = r.next()
	return r, reused, err
}

// unwatch stops the watchdog and joins it before the connection's fate is
// decided: a late-scheduled watchdog that sees the cancellation after the
// reply ended would otherwise poison the deadline of a connection already
// parked in the pool — or already acquired by an unrelated request. The
// reply ends once — finish or abort — so it runs once.
func (r *reply) unwatch() {
	if r.watchDone != nil {
		close(r.watchDone)
		<-r.watchExit
	}
}

// ctxErr reports a transport failure as the context's error when the context
// caused it. The connection deadline came from the context; it can fire a
// tick before the context's own timer does.
func (r *reply) ctxErr(err error) error {
	if ctxErr := r.ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	var ne net.Error
	if _, hasDeadline := r.ctx.Deadline(); hasDeadline && errors.As(err, &ne) && ne.Timeout() {
		return context.DeadlineExceeded
	}
	return err
}

// next is the one place a reply frame is read. It hands out the reply's
// frames in order, the first one — held since start — included: a frame,
// io.EOF once the reply has ended, the server's <error> as a RemoteError, or
// the transport failure. A frame that is not a chunk, or a chunk carrying
// the end marker, is the reply's last.
func (r *reply) next() (*data.Node, error) {
	if n := r.held; n != nil {
		r.held = nil
		return n, nil
	}
	if r.done {
		return nil, io.EOF
	}
	raw, err := readFrame(r, &r.hdr)
	if err != nil {
		r.abort()
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // io.EOF is the reply's own end, never the connection's
		}
		return nil, r.ctxErr(err)
	}
	n, err := xmlenc.Parse(raw)
	if err != nil {
		// The frame arrived whole but its XML is broken: transport
		// corruption, retryable like any other transport failure.
		r.abort()
		return nil, &CorruptError{Err: err}
	}
	if n.Label == "error" {
		// The server is back at its request loop: an error frame is a
		// clean terminal, before the first chunk or mid-reply.
		r.finish(n)
		return nil, &RemoteError{Msg: n.Attr("msg")}
	}
	if n.Label != "chunk" || n.Child("@end") != nil {
		r.finish(n)
	}
	return n, nil
}

// finish ends the reply on a terminal frame: the wrapper-side evaluation
// time (a traced reply's obs-ns stamp) is folded into the caller's span and
// the connection is re-pooled — unless a cancellation raced the last read:
// the watchdog may have poisoned the conn's deadline, so it cannot be reused.
func (r *reply) finish(end *data.Node) {
	r.done = true
	r.unwatch()
	if sp := obs.SpanFrom(r.ctx); sp != nil {
		if v := end.Attr("obs-ns"); v != "" {
			sp.Annotate("wrapper_ns", v)
		}
	}
	if r.ctx.Err() != nil {
		r.c.discard(r.conn)
		return
	}
	r.c.release(r.conn)
}

// abort tears the reply down mid-flight; the connection has unread or lost
// frames and is never re-pooled. Idempotent, also the abandon path (a cursor
// closed before its end).
func (r *reply) abort() {
	if r.done {
		return
	}
	r.done = true
	r.unwatch()
	r.c.discard(r.conn)
}

// send sends a request under the client's retry budget and returns its
// reply, the first frame in hand. Every request is a read-only query, hence
// idempotent, and may be re-sent for as long as nothing of its reply has
// been handed to the caller: a cursor reads the reply it is given, so only
// failures up to the first frame retry — exactly the window start covers —
// and later ones surface to the consumer; a caller that materializes passes
// read, which consumes the reply as part of the attempt, so a failure at any
// frame retries the whole exchange. Retry k waits the backoff (base·2^(k-1),
// capped and jittered), and gives up early when the context's remaining
// budget cannot cover the wait. Only transport-class failures retry
// (IsRetryable); server <error> frames and context cancellation return
// immediately.
//
// One failure mode is handled without burning a retry attempt: a pooled
// connection reused after an idle gap may have been closed by the server's
// idle deadline, in which case the first request on it fails before any
// reply byte arrives. That attempt redials-and-retries once immediately
// (counted in redials, not retries).
func (c *Client) send(ctx context.Context, req []byte, read func(*reply) error) (*reply, error) {
	redialBudget := 1
	for n := 1; ; {
		r, reused, err := c.start(ctx, req)
		if err == nil && read != nil {
			err = read(r)
		}
		if err == nil || !IsRetryable(err) {
			return r, err
		}
		if reused && r.got == 0 && redialBudget > 0 {
			redialBudget--
			c.redials.Add(1)
			continue
		}
		if n >= c.attempts {
			return nil, err
		}
		c.rngMu.Lock()
		d := backoff(c.base, n-1, c.rng.Float64())
		c.rngMu.Unlock()
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
			return nil, err // the context budget cannot cover the wait
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		n++
		c.retries.Add(1)
	}
}

// drain sends a request and reads its whole reply.
func (c *Client) drain(ctx context.Context, req []byte) (frames []*data.Node, err error) {
	_, err = c.send(ctx, req, func(r *reply) error {
		frames = frames[:0]
		for {
			n, err := r.next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			frames = append(frames, n)
		}
	})
	return frames, err
}

// Name implements algebra.Source.
func (c *Client) Name() string { return c.name }

// Addr reports the wrapper address the client dials — replica routing and
// deployment tooling use it to label otherwise same-named replicas.
func (c *Client) Addr() string { return c.addr }

// InFlight reports the request slots currently held: one per reply being
// read. It returns to zero when every cursor has been drained or closed,
// which is what leak assertions check.
func (c *Client) InFlight() int { return len(c.tokens) }

// Documents implements algebra.Source.
func (c *Client) Documents() []string { return append([]string(nil), c.docs...) }

// docRequest frames the request for a document. When the context carries a
// trace span (obs.WithSpan), the request is tagged with the trace id so the
// wrapper's request span joins the caller's trace, and the wrapper-side
// evaluation time comes back on the reply's last frame.
func docRequest(ctx context.Context, doc string) []byte {
	b := xmlenc.AppendEscaped(append(make([]byte, 0, 64), reserved+`<query doc="`...), doc)
	return seal(append(appendTrace(append(b, '"'), ctx), "/>"...))
}

// appendTrace appends the trace attribute of a request made under ctx, if
// its span has a trace id.
func appendTrace(b []byte, ctx context.Context) []byte {
	if id := obs.TraceID(ctx); id != "" {
		b = append(xmlenc.AppendEscaped(append(b, ` trace="`...), id), '"')
	}
	return b
}

// trees decodes the trees of one document chunk. XML carries atoms as text;
// typing is restored so that mediator-side predicates (e.g. $y > 1800)
// behave as they do against an in-process wrapper. Attribute children of
// the frame root (end, obs-ns) are frame metadata, not trees.
func trees(frame *data.Node, out data.Forest) (data.Forest, error) {
	if frame.Label != "chunk" {
		return nil, fmt.Errorf("wire: unexpected reply <%s>", frame.Label)
	}
	for _, n := range frame.Kids {
		if !n.IsAttr() {
			xmlenc.InferAtoms(n)
			out = append(out, n)
		}
	}
	return out, nil
}

// Fetch implements algebra.Source: the whole document in one exchange, so a
// failure at any frame retries it whole.
func (c *Client) Fetch(doc string) (data.Forest, error) {
	frames, err := c.drain(context.Background(), docRequest(context.Background(), doc))
	if err != nil {
		return nil, err
	}
	out := data.Forest{}
	for _, f := range frames {
		if out, err = trees(f, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// FetchStream implements algebra.StreamSource: the document's trees arrive
// chunk by chunk, the first before the wrapper has produced the last.
func (c *Client) FetchStream(ctx context.Context, doc string) (algebra.ForestCursor, error) {
	r, err := c.send(ctx, docRequest(ctx, doc), nil)
	if err != nil {
		return nil, err
	}
	return &forestCursor{r}, nil
}

type forestCursor struct{ r *reply }

func (c *forestCursor) Next() (data.Forest, error) {
	for {
		n, err := c.r.next()
		if err != nil {
			return nil, err
		}
		f, err := trees(n, nil)
		if err != nil {
			c.r.abort()
			return nil, err
		}
		if len(f) > 0 {
			return f, nil
		}
	}
}

func (c *forestCursor) Close() error {
	c.r.abort()
	return nil
}

// planRequest frames the request shipping a plan once with one binding row
// per parameter set; a lone binding without parameters needs no row. The
// plan's canonical encoding comes from the per-client memo, and the bindings
// tab is appended by tab.AppendXML: the request is built in the one buffer
// that is written, and written again on a retry. A variable absent from some
// binding (hand-rolled calls only; DJoin batches bind uniformly) ships as an
// explicit null.
func (c *Client) planRequest(ctx context.Context, plan algebra.Op, bindings []map[string]tab.Cell) ([]byte, error) {
	enc, err := c.encodePlan(plan)
	if err != nil {
		return nil, err
	}
	colSet := map[string]bool{}
	for _, b := range bindings {
		for k := range b {
			colSet[k] = true
		}
	}
	// The plan, the markup around it and about 16 bytes per binding value.
	b := append(make([]byte, 0, len(enc)+96+16*len(bindings)*len(colSet)), reserved+"<query"...)
	b = append(append(append(appendTrace(b, ctx), "><plan>"...), enc...), "</plan>"...)
	if len(colSet) > 0 || len(bindings) > 1 {
		cols := make([]string, 0, len(colSet))
		for k := range colSet {
			cols = append(cols, k)
		}
		sort.Strings(cols)
		bt := &tab.Tab{Cols: cols, Rows: make([]tab.Row, len(bindings))}
		cells := make([]tab.Cell, len(bindings)*len(cols))
		for i, b := range bindings {
			row := cells[i*len(cols) : (i+1)*len(cols) : (i+1)*len(cols)]
			for j, k := range cols {
				row[j] = b[k] // absent: the zero Cell, which is null
			}
			bt.Rows[i] = row
		}
		b = append(tab.AppendXML(append(b, "<bindings>"...), bt, 0), "</bindings>"...)
	}
	b = append(b, "</query>"...)
	if len(b)-4 > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", len(b)-4)
	}
	return seal(b), nil
}

// tabs decodes the tabs of one plan chunk into out, appending each tab's
// rows to the result of the binding it answers. Consecutive tabs of the same
// columns share one column list.
func tabs(frame *data.Node, out []*tab.Tab) error {
	if frame.Label != "chunk" {
		return fmt.Errorf("wire: unexpected reply <%s>", frame.Label)
	}
	var rd tab.Reader
	for _, n := range frame.Kids {
		if n.IsAttr() {
			continue
		}
		t, err := rd.Read(n)
		if err != nil {
			return err
		}
		bind := cmp.Or(n.Attr("bind"), "0")
		i, err := strconv.Atoi(bind)
		switch {
		case err != nil || i < 0 || i >= len(out):
			return fmt.Errorf("wire: result for binding %s of %d", bind, len(out))
		case out[i] == nil:
			out[i] = t
		case !slices.Equal(out[i].Cols, t.Cols):
			return fmt.Errorf("wire: binding %d answered with columns %v, then %v", i, out[i].Cols, t.Cols)
		default:
			out[i].Rows = append(out[i].Rows, t.Rows...)
		}
	}
	return nil
}

// push drains one plan request into n results, one per binding.
func (c *Client) push(ctx context.Context, plan algebra.Op, bindings []map[string]tab.Cell, n int) ([]*tab.Tab, error) {
	req, err := c.planRequest(ctx, plan, bindings)
	if err != nil {
		return nil, err
	}
	frames, err := c.drain(ctx, req)
	if err != nil {
		return nil, err
	}
	out := make([]*tab.Tab, n)
	for _, f := range frames {
		if err := tabs(f, out); err != nil {
			return nil, err
		}
	}
	for i, t := range out {
		if t == nil {
			return nil, fmt.Errorf("wire: no result for binding %d of %d", i, n)
		}
	}
	return out, nil
}

// Push implements algebra.Source: the whole result in one exchange, retried
// whole like Fetch.
func (c *Client) Push(plan algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	res, err := c.push(context.Background(), plan, []map[string]tab.Cell{params}, 1)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// PushBatch implements algebra.BatchSource.
func (c *Client) PushBatch(plan algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	return c.PushBatchContext(context.Background(), plan, bindings)
}

// PushBatchContext implements algebra.BatchSource: the plan ships once with
// one binding row per parameter set, and the wrapper answers with one result
// per binding — all in a single round trip.
func (c *Client) PushBatchContext(ctx context.Context, plan algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	if len(bindings) == 0 {
		return nil, nil
	}
	return c.push(ctx, plan, bindings, len(bindings))
}

// PushStream implements algebra.PushStreamSource: the pushed plan's result
// rows arrive chunk by chunk. The first chunk — and with it the column set —
// is in hand when PushStream returns.
func (c *Client) PushStream(ctx context.Context, plan algebra.Op, params map[string]tab.Cell) (tab.Cursor, error) {
	req, err := c.planRequest(ctx, plan, []map[string]tab.Cell{params})
	if err != nil {
		return nil, err
	}
	r, err := c.send(ctx, req, nil)
	if err != nil {
		return nil, err
	}
	// acc[0] is the chunk being decoded: nil until the reply's first tab has
	// named the columns, to which tabs holds every later one.
	var acc [1]*tab.Tab
	decode := func() error {
		n, err := r.next()
		if err == nil {
			if err = tabs(n, acc[:]); err != nil {
				r.abort()
			}
		}
		return err
	}
	for acc[0] == nil {
		if err := decode(); err == io.EOF {
			return nil, errors.New("wire: reply without a result")
		} else if err != nil {
			return nil, err
		}
	}
	held := true // acc holds the first chunk, not yet handed out
	return &tab.FuncCursor{
		Columns: acc[0].Cols,
		NextFn: func() (*tab.Tab, error) {
			if !held {
				if err := decode(); err != nil {
					return nil, err
				}
			}
			held = false
			t := acc[0]
			acc[0] = &tab.Tab{Cols: t.Cols}
			return t, nil
		},
		CloseFn: func() error {
			r.abort()
			return nil
		},
	}, nil
}

// ImportInterface fetches the wrapper's capability interface. Transport
// and remote errors pass through unwrapped (a RemoteError means the source
// legitimately exports no interface); a malformed description fails with
// the source named, so a bad export is diagnosed at import time.
func (c *Client) ImportInterface() (*capability.Interface, error) {
	resp, err := c.drain(context.Background(), framed(`<interface-request/>`))
	if err != nil {
		return nil, err
	}
	iface, err := capability.FromXML(resp[0])
	if err != nil {
		return nil, fmt.Errorf("wire: source %s at %s: malformed interface description: %w", c.name, c.addr, err)
	}
	return iface, nil
}

// ImportStructures fetches the wrapper's structural models.
func (c *Client) ImportStructures() (map[string]StructureRef, error) {
	resp, err := c.drain(context.Background(), framed(`<structures-request/>`))
	if err != nil {
		return nil, err
	}
	out := map[string]StructureRef{}
	for _, k := range resp[0].Kids {
		if k.Label != "structure" {
			continue
		}
		doc, ref, err := capability.StructureFromXML(k)
		if err != nil {
			return nil, fmt.Errorf("wire: source %s at %s: malformed structures: %w", c.name, c.addr, err)
		}
		out[doc] = ref
	}
	return out, nil
}
