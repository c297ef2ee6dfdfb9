// Package faults injects transport faults into wire connections. The
// mediator of the paper integrates autonomous sources it does not control;
// the only way to test that setting honestly is to make the transport
// misbehave on purpose. An Injector wraps a net.Listener (server side) or a
// net.Conn (client side) and — deterministically under a seed — drops,
// delays, truncates or garbles response frames, or kills connections
// outright. The wire client's retry layer and the mediator's per-source
// breakers are exercised against exactly these faults, both in the test
// matrix (internal/mediator, internal/wire) and interactively via
// `yat-mediator -inject`.
//
// The injector understands the wire framing convention (a 4-byte length
// header followed by the payload; the server writes both in one call, the
// client reads the header with a call of its own), so faults land on whole
// response frames: a Garble corrupts the payload but never the header, a
// Truncate delivers the header and half the payload, and a Drop suppresses
// the entire response.
package faults

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// None delivers the exchange untouched.
	None Kind = iota
	// Drop closes the connection instead of delivering the response; the
	// peer observes a bare EOF mid-request (a retryable transport error).
	Drop
	// Delay stalls the response by Config.Delay before delivering it
	// intact; combined with a short client deadline it simulates a stalled
	// wrapper.
	Delay
	// Truncate delivers the frame header and half the payload, then closes
	// the connection: the peer's framed read fails with an unexpected EOF.
	Truncate
	// Garble flips payload bytes while keeping the frame length intact: the
	// frame arrives whole but its XML no longer parses.
	Garble
	// Kill closes the connection without delivering anything, like Drop;
	// it exists as a distinct kind so Config.KillNth can target exactly the
	// Nth exchange (e.g. a batched push mid-flight) deterministically.
	Kill
)

// String names a fault kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Truncate:
		return "truncate"
	case Garble:
		return "garble"
	case Kill:
		return "kill"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ErrInjected is the sentinel wrapped by every error the injector
// manufactures, so tests can tell an injected failure from a real one.
var ErrInjected = errors.New("faults: injected fault")

// Config parameterizes an Injector.
type Config struct {
	// Seed makes the fault sequence reproducible: two injectors with the
	// same Config emit the same decision sequence.
	Seed int64
	// Rate is the per-exchange probability of injecting a fault.
	Rate float64
	// Kinds are the faults drawn when the Rate fires; empty means every
	// kind except None and Kill (Kill is reserved for KillNth).
	Kinds []Kind
	// Delay is the stall applied by Delay faults (default 50ms).
	Delay time.Duration
	// After suppresses Rate-drawn faults for the first After exchanges, so
	// setup traffic (dial-time hello, interface and structure imports)
	// completes cleanly and faults land on query traffic only. KillNth is
	// unaffected: it targets an absolute exchange index.
	After int
	// Max caps the total number of Rate-drawn faults (0 = unlimited); with
	// Rate 1 and Max 1 the injector faults exactly one exchange, the
	// deterministic "fail once, recover on retry" scenario.
	Max int
	// KillNth, when positive, kills the connection serving the Nth
	// exchange seen by this injector (1-based), independent of Rate —
	// the deterministic "die mid-batch on request N" scenario.
	KillNth int
}

// Injector decides, per request/response exchange, whether and how to
// misbehave. One injector may wrap any number of listeners and connections;
// decisions are drawn from a single seeded stream, so a serial workload
// observes a reproducible fault sequence.
type Injector struct {
	cfg Config

	mu       sync.Mutex
	rng      *rand.Rand
	n        int          // exchanges decided so far
	injected int          // faults injected so far (for Config.Max)
	counts   map[Kind]int // injected faults by kind
}

// New returns an injector over the given configuration.
func New(cfg Config) *Injector {
	if cfg.Delay <= 0 {
		cfg.Delay = 50 * time.Millisecond
	}
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = []Kind{Drop, Delay, Truncate, Garble}
	}
	return &Injector{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		counts: make(map[Kind]int),
	}
}

// decide draws the fault for the next exchange.
func (inj *Injector) decide() Kind {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.n++
	k := None
	switch {
	case inj.cfg.KillNth > 0 && inj.n == inj.cfg.KillNth:
		k = Kill
	case inj.n <= inj.cfg.After:
	case inj.cfg.Max > 0 && inj.injected >= inj.cfg.Max:
	case inj.cfg.Rate > 0 && inj.rng.Float64() < inj.cfg.Rate:
		k = inj.cfg.Kinds[inj.rng.Intn(len(inj.cfg.Kinds))]
	}
	if k != None {
		inj.injected++
		inj.counts[k]++
	}
	return k
}

// Exchanges reports how many exchanges the injector has decided.
func (inj *Injector) Exchanges() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.n
}

// Counts reports how many faults of each kind were injected so far.
func (inj *Injector) Counts() map[Kind]int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[Kind]int, len(inj.counts))
	for k, v := range inj.counts {
		out[k] = v
	}
	return out
}

// Injected reports the total number of injected faults.
func (inj *Injector) Injected() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.injected
}

// Listener wraps a server-side listener: every accepted connection applies
// faults to the response frames it writes.
func (inj *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, inj: inj}
}

type listener struct {
	net.Listener
	inj *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serverConn{Conn: c, inj: l.inj}, nil
}

// serverConn applies faults to outgoing response frames. The wire server
// alternates reading a request frame and writing its response on one
// goroutine, so the first Write after a Read starts a response: that is
// where the fault decision for the exchange is drawn. The server writes
// each frame — 4-byte header and payload — in one Write, so Garble and
// Truncate pass the first four bytes of a response's first Write through
// untouched and corrupt or cut only what follows them.
type serverConn struct {
	net.Conn
	inj *Injector

	mu       sync.Mutex
	sawRead  bool
	cur      Kind
	respWrit int // writes within the current response (the 1st carries the header)
}

func (c *serverConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.sawRead = true
	c.mu.Unlock()
	return n, err
}

func (c *serverConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.sawRead {
		c.sawRead = false
		c.cur = c.inj.decide()
		c.respWrit = 0
		if c.cur == Delay {
			d := c.inj.cfg.Delay
			c.mu.Unlock()
			time.Sleep(d)
			c.mu.Lock()
		}
	}
	c.respWrit++
	k, nth := c.cur, c.respWrit
	c.mu.Unlock()
	switch k {
	case Drop, Kill:
		c.Conn.Close()
		return 0, fmt.Errorf("%w: connection killed (%s)", ErrInjected, k)
	case Truncate:
		hdr := headerLen(nth, p)
		cut := hdr + (len(p)-hdr)/2 // the header passes; the payload is cut
		if cut > 0 {
			c.Conn.Write(p[:cut])
		}
		c.Conn.Close()
		return cut, fmt.Errorf("%w: frame truncated", ErrInjected)
	case Garble:
		// keep framing valid; corrupt content only
		return c.Conn.Write(garbled(p, headerLen(nth, p)))
	default:
		return c.Conn.Write(p)
	}
}

// WrapConn wraps a client-side connection: faults apply to the response
// frames it reads. The wire client writes a request and then reads the
// 4-byte header and payload with separate calls, so the first Read after a
// Write draws the exchange's fault decision, and payload reads (every read
// after the header) carry the corruption.
func (inj *Injector) WrapConn(c net.Conn) net.Conn {
	return &clientConn{Conn: c, inj: inj}
}

type clientConn struct {
	net.Conn
	inj *Injector

	mu       sync.Mutex
	sawWrite bool
	cur      Kind
	reads    int // reads within the current response (1st = header)
}

func (c *clientConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.sawWrite = true
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *clientConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.sawWrite {
		c.sawWrite = false
		c.cur = c.inj.decide()
		c.reads = 0
		if c.cur == Delay {
			d := c.inj.cfg.Delay
			c.mu.Unlock()
			time.Sleep(d)
			c.mu.Lock()
		}
	}
	c.reads++
	k, nth := c.cur, c.reads
	c.mu.Unlock()
	switch k {
	case Drop, Kill:
		// Surface what a killed peer really looks like to the reader — a
		// bare EOF — so the client's error taxonomy classifies the injected
		// fault exactly like the genuine article.
		c.Conn.Close()
		return 0, io.EOF
	case Truncate:
		n, err := c.Conn.Read(p)
		if nth == 1 || err != nil {
			return n, err // header passes intact
		}
		c.Conn.Close()
		return n / 2, nil // deliver half; the next read hits the closed conn
	case Garble:
		n, err := c.Conn.Read(p)
		if nth > 1 && n > 0 {
			copy(p[:n], garbled(p[:n], 0))
		}
		return n, err
	default:
		return c.Conn.Read(p)
	}
}

// headerLen is how much of a response's nth Write is the frame header to
// pass untouched: the first four bytes of the first Write, nothing after.
func headerLen(nth int, p []byte) int {
	if nth == 1 {
		return min(4, len(p))
	}
	return 0
}

// garbled returns a copy of p with bytes after p[:keep] flipped so that XML
// content no longer parses; the length (and hence the framing) is preserved.
func garbled(p []byte, keep int) []byte {
	q := make([]byte, len(p))
	copy(q, p)
	for i := keep; i < len(q); i++ {
		if (i-keep)%3 == 0 {
			q[i] ^= 0xa5
		}
	}
	return q
}
