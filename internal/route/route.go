// Package route is the availability decorator every source call goes
// through: one logical source over N ≥ 1 replica wrappers. The mediator's
// Connect wraps each source in a one-replica router (its per-source
// circuit breaker) and a deployment with several wrapper processes per
// source connects a *Replicated over them exactly like a single wrapper
// client. The router picks the least-loaded live replica per call, evicts
// replicas whose transport keeps failing behind per-replica circuit
// breakers (closed → open → half-open re-probe), and fails a call over to
// the remaining replicas when the chosen one dies mid-request. Only
// transport-level failures (wire.IsRetryable) count: a server-reported
// <error> frame is proof of life and an answer — replaying it elsewhere
// could only hide a real semantic problem — and a caller's expired context
// is the caller's budget, not the replica's fault.
//
// When no replica is left the call fails fast with an
// algebra.UnavailableError around the last transport failure: AllowPartial
// queries degrade around it, and a router stacked above (the mediator's,
// over a replicated source) still classifies it as an outage and trips its
// own breaker only when the whole replica set is down.
package route

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/tab"
	"repro/internal/wire"
)

// The circuit breakers, one per replica. A replica whose calls keep failing
// at the transport level is declared down (breaker open): it is passed over
// instead of burning a dial-and-retry cycle per call. failureThreshold
// consecutive transport failures open a breaker; after cooldown one probe
// call is let through (half-open), and its outcome closes or re-opens it.
const (
	failureThreshold = 3
	cooldown         = 2 * time.Second
)

// Options is empty: the breaker thresholds are the constants above. It is
// kept only because the benchmark module (bench/deploy.go) passes it to New.
type Options struct{}

// Breaker states, named as Health reports them.
const (
	stClosed   = "closed"
	stOpen     = "open"
	stHalfOpen = "half-open"
)

// breaker is one replica's health state. Only transport failures count
// against it: a semantic error proves the replica alive and resets the
// count, and so does a caller's expired context — a query with a tight
// budget must not poison the source's health for everyone else.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu      sync.Mutex
	state   string
	fails   int       // consecutive transport failures
	until   time.Time // open: earliest probe time
	lastErr error     // last transport failure
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, state: stClosed}
}

// ready reports whether the breaker is closed (calls flow freely).
func (b *breaker) ready() bool {
	st, _, _ := b.snapshot()
	return st == stClosed
}

// admit reports whether a call may proceed; an open breaker whose cooldown
// elapsed flips to half-open and admits exactly this probe. Concurrent
// callers keep being refused until the probe resolves.
func (b *breaker) admit() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stOpen:
		if time.Now().Before(b.until) {
			return false
		}
		b.state = stHalfOpen
		return true
	case stHalfOpen:
		return false
	default:
		return true
	}
}

// done records a call outcome. transient marks transport-level failures.
func (b *breaker) done(err error, transient bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil || !transient {
		b.state = stClosed
		b.fails = 0
		b.lastErr = nil
		return
	}
	b.fails++
	b.lastErr = err
	if b.state == stHalfOpen || b.fails >= b.threshold {
		b.state = stOpen
		b.until = time.Now().Add(b.cooldown)
	}
}

// snapshot reports the state, the consecutive-failure count and the
// transport failure last recorded.
func (b *breaker) snapshot() (state string, fails int, lastErr error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.fails, b.lastErr
}

// replica is one backing wrapper process with its health and load state.
type replica struct {
	id       int
	src      algebra.Source
	br       *breaker
	inflight atomic.Int64 // calls (and open streams) currently against it
	served   atomic.Int64 // calls attempted against it, success or not
}

// Replicated is one logical source backed by N replica wrappers. It
// implements every optional call interface the ladder asks for (BatchSource,
// StreamSource, PushStreamSource) and the two reporters (RetryReporter,
// StateReporter) whatever its replicas implement: each replica is called
// through algebra.FetchStream, PushStream and PushBatch.
type Replicated struct {
	name string
	docs []string
	reps []*replica
	rr   atomic.Uint64 // rotation counter breaking least-loaded ties
}

// New builds a replicated source named name over the given replicas. All
// replicas must export the same document set — they are interchangeable
// copies of one logical source, not a federation.
func New(name string, replicas []algebra.Source, _ Options) (*Replicated, error) {
	return newReplicated(name, replicas, failureThreshold, cooldown)
}

// newReplicated is New with the breakers' thresholds given, so that tests can
// trip and re-probe a breaker quickly.
func newReplicated(name string, replicas []algebra.Source, threshold int, cooldown time.Duration) (*Replicated, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("route: source %s: no replicas", name)
	}
	docs := sortedDocs(replicas[0])
	r := &Replicated{name: name, docs: docs}
	for i, src := range replicas {
		if i > 0 {
			if d := sortedDocs(src); !slices.Equal(d, docs) {
				return nil, fmt.Errorf("route: source %s: replica %d exports %v, replica 0 exports %v",
					name, i, d, docs)
			}
		}
		r.reps = append(r.reps, &replica{id: i, src: src, br: newBreaker(threshold, cooldown)})
	}
	return r, nil
}

func sortedDocs(src algebra.Source) []string {
	d := slices.Clone(src.Documents())
	slices.Sort(d)
	return d
}

// pick chooses the replica for the next attempt: the least-loaded among
// untried replicas with closed breakers; failing that, the first untried
// replica whose breaker admits a half-open probe. Ties rotate so equal
// load spreads instead of pinning replica 0.
func (r *Replicated) pick(tried []bool) *replica {
	start := int(r.rr.Add(1)) % len(r.reps)
	var best *replica
	var bestLoad int64
	for i := 0; i < len(r.reps); i++ {
		rep := r.reps[(start+i)%len(r.reps)]
		if tried[rep.id] || !rep.br.ready() {
			continue
		}
		if load := rep.inflight.Load(); best == nil || load < bestLoad {
			best, bestLoad = rep, load
		}
	}
	if best != nil {
		return best
	}
	for i := 0; i < len(r.reps); i++ {
		rep := r.reps[(start+i)%len(r.reps)]
		if !tried[rep.id] && rep.br.admit() {
			return rep
		}
	}
	return nil
}

// do runs one logical call, failing over across replicas on transport
// errors, and returns the replica that settled it. Each replica is attempted
// at most once per call; its breaker absorbs the outcome either way. Success
// and semantic errors settle the call at the replica that produced them.
// When no replica is left the failure is an algebra.UnavailableError — the
// marker graceful degradation keys on — around the last transport failure,
// so a router above this one still classifies it as an outage.
func (r *Replicated) do(ctx context.Context, fn func(*replica) error) (*replica, error) {
	tried := make([]bool, len(r.reps))
	var lastErr error
	for n := 0; n < len(r.reps); n++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		rep := r.pick(tried)
		if rep == nil {
			break
		}
		tried[rep.id] = true
		rep.served.Add(1)
		rep.inflight.Add(1)
		err := fn(rep)
		rep.inflight.Add(-1)
		tr := err != nil && wire.IsRetryable(err)
		rep.br.done(err, tr)
		if !tr {
			return rep, err
		}
		lastErr = err
	}
	if lastErr == nil {
		// Every breaker refused (open mid-cooldown or probing): surface the
		// failure that evicted one of them.
		for _, rep := range r.reps {
			if _, _, e := rep.br.snapshot(); e != nil {
				lastErr = e
				break
			}
		}
	}
	if lastErr == nil {
		lastErr = errors.New("no replica admitted the call")
	}
	return nil, r.unavailable(fmt.Errorf("all %d replicas unavailable: %w", len(r.reps), lastErr))
}

func (r *Replicated) unavailable(err error) error {
	return &algebra.UnavailableError{Source: r.name, Err: err}
}

// Name implements algebra.Source.
func (r *Replicated) Name() string { return r.name }

// Documents implements algebra.Source.
func (r *Replicated) Documents() []string { return append([]string(nil), r.docs...) }

// Fetch implements algebra.Source: the whole document from one replica, so
// a transfer that dies half way fails over like any other call.
func (r *Replicated) Fetch(doc string) (data.Forest, error) {
	ctx := context.Background()
	var f data.Forest
	_, err := r.do(ctx, func(rep *replica) error {
		cur, err := algebra.FetchStream(ctx, rep.src, doc)
		if err == nil {
			f, err = algebra.DrainForest(cur)
		}
		return err
	})
	return f, err
}

// Push implements algebra.Source, whole like Fetch.
func (r *Replicated) Push(plan algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	ctx := context.Background()
	var t *tab.Tab
	_, err := r.do(ctx, func(rep *replica) error {
		cur, err := algebra.PushStream(ctx, rep.src, plan, params)
		if err == nil {
			t, err = tab.Drain(cur)
		}
		return err
	})
	return t, err
}

// PushBatch implements algebra.BatchSource.
func (r *Replicated) PushBatch(plan algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	return r.PushBatchContext(context.Background(), plan, bindings)
}

// PushBatchContext implements algebra.BatchSource: all-or-error and one
// replica per logical call, so a failover cannot interleave half a batch
// from each of two replicas.
func (r *Replicated) PushBatchContext(ctx context.Context, plan algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	var ts []*tab.Tab
	_, err := r.do(ctx, func(rep *replica) (e error) {
		ts, e = algebra.PushBatch(ctx, rep.src, plan, bindings)
		return
	})
	return ts, err
}

// FetchStream implements algebra.StreamSource. Failover applies to the
// stream handshake only: once rows flow, a mid-stream transport failure
// surfaces to the caller (rows already emitted cannot be replayed
// elsewhere without duplication), marked unavailable and charged to the
// replica's breaker by the stream's hold. The replica's inflight count
// stays raised until the cursor closes, so least-loaded routing sees long
// streams as load.
func (r *Replicated) FetchStream(ctx context.Context, doc string) (algebra.ForestCursor, error) {
	var cur algebra.ForestCursor
	on, err := r.do(ctx, func(rep *replica) (e error) {
		cur, e = algebra.FetchStream(ctx, rep.src, doc)
		return
	})
	if err != nil {
		return nil, err
	}
	return &routeForestCursor{cur: cur, hold: r.hold(on)}, nil
}

// PushStream implements algebra.PushStreamSource with the same handshake
// failover and stream-lifetime load accounting as FetchStream.
func (r *Replicated) PushStream(ctx context.Context, plan algebra.Op, params map[string]tab.Cell) (tab.Cursor, error) {
	var cur tab.Cursor
	on, err := r.do(ctx, func(rep *replica) (e error) {
		cur, e = algebra.PushStream(ctx, rep.src, plan, params)
		return
	})
	if err != nil {
		return nil, err
	}
	return &routeTabCursor{Cursor: cur, hold: r.hold(on)}, nil
}

// hold is an open stream's claim on the replica serving it: one inflight
// slot, released once on Close.
type hold struct {
	r    *Replicated
	rep  *replica
	once sync.Once
}

func (r *Replicated) hold(rep *replica) *hold {
	rep.inflight.Add(1)
	return &hold{r: r, rep: rep}
}

// check passes a stream's Next error through. A transport failure is
// charged to the replica's breaker and marked unavailable. io.EOF itself is
// the clean end of a stream, not the connection's (wire reports a hang-up
// as io.ErrUnexpectedEOF), although IsRetryable alone would count it.
func (h *hold) check(err error) error {
	if err == nil || err == io.EOF || !wire.IsRetryable(err) {
		return err
	}
	h.rep.br.done(err, true)
	return h.r.unavailable(err)
}

func (h *hold) release() { h.once.Do(func() { h.rep.inflight.Add(-1) }) }

type routeForestCursor struct {
	cur algebra.ForestCursor
	*hold
}

func (c *routeForestCursor) Next() (data.Forest, error) {
	f, err := c.cur.Next()
	return f, c.check(err)
}

func (c *routeForestCursor) Close() error {
	c.release()
	return c.cur.Close()
}

type routeTabCursor struct {
	tab.Cursor
	*hold
}

func (c *routeTabCursor) Next() (*tab.Tab, error) {
	t, err := c.Cursor.Next()
	return t, c.check(err)
}

func (c *routeTabCursor) Close() error {
	c.release()
	return c.Cursor.Close()
}

// TakeRetryStats implements algebra.RetryReporter by draining every
// replica's transport counters.
func (r *Replicated) TakeRetryStats() (retries, redials int) {
	for _, rep := range r.reps {
		if rr, ok := rep.src.(algebra.RetryReporter); ok {
			re, rd := rr.TakeRetryStats()
			retries += re
			redials += rd
		}
	}
	return
}

// SourceState implements algebra.StateReporter: the breaker state of a
// single replica ("closed", "open", "half-open"), a census of several, e.g.
// "2/3 replicas closed".
func (r *Replicated) SourceState() string {
	if len(r.reps) == 1 {
		st, _, _ := r.reps[0].br.snapshot()
		return st
	}
	up := 0
	for _, rep := range r.reps {
		if rep.br.ready() {
			up++
		}
	}
	return fmt.Sprintf("%d/%d replicas closed", up, len(r.reps))
}

// ReplicaHealth is one replica's routing state as reported by Health.
type ReplicaHealth struct {
	ID       int    // replica index within the logical source
	Addr     string // wrapper address, when the replica transport knows it
	State    string // "closed", "open" or "half-open"
	Failures int    // consecutive transport failures
	Inflight int64  // calls and open streams currently routed to it
	Served   int64  // attempts routed to it since construction
	LastErr  string // most recent transport failure, if any
}

// addrReporter is the optional transport accessor (wire.Client has it).
type addrReporter interface{ Addr() string }

// Health snapshots every replica's breaker and load state.
func (r *Replicated) Health() []ReplicaHealth {
	out := make([]ReplicaHealth, 0, len(r.reps))
	for _, rep := range r.reps {
		h := ReplicaHealth{
			ID:       rep.id,
			Inflight: rep.inflight.Load(),
			Served:   rep.served.Load(),
		}
		if ar, ok := rep.src.(addrReporter); ok {
			h.Addr = ar.Addr()
		}
		var lastErr error
		h.State, h.Failures, lastErr = rep.br.snapshot()
		if lastErr != nil {
			h.LastErr = lastErr.Error()
		}
		out = append(out, h)
	}
	return out
}
