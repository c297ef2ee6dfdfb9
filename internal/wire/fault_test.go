package wire

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/o2wrap"
)

// serveO2Idle starts an O₂ wrapper server with a custom idle deadline.
func serveO2Idle(t *testing.T, idle time.Duration) *Server {
	t.Helper()
	ow := o2wrap.New("o2artifact", datagen.PaperDB())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeOpts(ln, Exported{Source: ow}, ServeOptions{IdleTimeout: idle, WriteTimeout: time.Second})
	t.Cleanup(srv.Close)
	return srv
}

// serveO2Faulty starts an O₂ wrapper server behind a fault injector.
func serveO2Faulty(t *testing.T, inj *faults.Injector) *Server {
	t.Helper()
	ow := o2wrap.New("o2artifact", datagen.PaperDB())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(inj.Listener(ln), Exported{Source: ow})
	t.Cleanup(srv.Close)
	return srv
}

// takeStats drains the client's retry counters, failing on error.
func fetchArtifacts(t *testing.T, c *Client) {
	t.Helper()
	f, err := c.Fetch("artifacts")
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if len(f) == 0 || f[0].Label != "set" || len(f[0].Kids) != 3 {
		t.Fatalf("fetch returned wrong extent: %v", f)
	}
}

func TestStaleIdleConnRedialRegression(t *testing.T) {
	// A connection parked in the pool while the server's idle deadline
	// passes is dead on reuse: the next request on it fails with EOF before
	// any response byte arrives. The client must transparently redial and
	// retry that request, not surface the EOF. MaxConnIdle is disabled here
	// so the redial layer alone is exercised.
	srv := serveO2Idle(t, 100*time.Millisecond)
	c, err := DialWith(context.Background(), srv.Addr(), Options{MaxConnIdle: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.TakeRetryStats() // discard dial-time noise
	fetchArtifacts(t, c)
	// Let the server hang up on the parked connection.
	time.Sleep(300 * time.Millisecond)
	fetchArtifacts(t, c)
	retries, redials := c.TakeRetryStats()
	if redials != 1 {
		t.Errorf("redials = %d, want 1 (stale conn must redial transparently)", redials)
	}
	if retries != 0 {
		t.Errorf("retries = %d, want 0 (redial must not burn a retry attempt)", retries)
	}
}

func TestMaxConnIdleDropsStaleBeforeReuse(t *testing.T) {
	// With a freshness bound below the server's idle deadline, a conn
	// parked too long is dropped at acquire time: the request runs on a
	// fresh dial and never observes the stale EOF at all.
	srv := serveO2Idle(t, 100*time.Millisecond)
	c, err := DialWith(context.Background(), srv.Addr(), Options{MaxConnIdle: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.TakeRetryStats()
	fetchArtifacts(t, c)
	time.Sleep(300 * time.Millisecond)
	fetchArtifacts(t, c)
	retries, redials := c.TakeRetryStats()
	if retries != 0 || redials != 0 {
		t.Errorf("retries, redials = %d, %d, want 0, 0 (aged-out conn must be dropped, not redialed)", retries, redials)
	}
}

func TestClosedClientIdleReuseReturnsTyped(t *testing.T) {
	// A request racing Close must get the explicit closed error even on
	// the idle-reuse fast path, not an EOF from the closed socket.
	srv := serveO2Idle(t, time.Minute)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fetchArtifacts(t, c) // parks a conn in the idle pool
	c.Close()
	if _, err := c.Fetch("artifacts"); !errors.Is(err, ErrClientClosed) {
		t.Errorf("fetch on closed client = %v, want ErrClientClosed", err)
	}
}

func TestDialWithHonorsDeadline(t *testing.T) {
	// A wrapper that accepts the TCP connection but never answers the hello
	// must not hang startup: the dial context's deadline bounds the whole
	// handshake.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, never respond
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = DialWith(ctx, ln.Addr().String(), Options{MaxConns: 2})
	if err == nil {
		t.Fatal("dial against a mute server must fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("dial error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("dial took %v: deadline did not bound the handshake", elapsed)
	}
}

func TestRetryRecoversFromSingleFault(t *testing.T) {
	// One injected fault of each transport kind; the retry layer must make
	// the fetch succeed anyway and account for the recovery work.
	for _, kind := range []faults.Kind{faults.Drop, faults.Truncate, faults.Garble} {
		t.Run(kind.String(), func(t *testing.T) {
			inj := faults.New(faults.Config{Seed: 1, Rate: 1, Kinds: []faults.Kind{kind}, After: 1, Max: 1})
			srv := serveO2Faulty(t, inj)
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.TakeRetryStats()
			fetchArtifacts(t, c)
			if inj.Injected() != 1 {
				t.Fatalf("injected = %d, want 1", inj.Injected())
			}
			retries, redials := c.TakeRetryStats()
			if retries+redials < 1 {
				t.Errorf("retries+redials = %d+%d, want >= 1 after a %s fault", retries, redials, kind)
			}
		})
	}
}

func TestGarbleExhaustsRetriesToCorruptError(t *testing.T) {
	// Every response garbled: retries are exhausted and the typed corrupt
	// error surfaces, with exactly MaxAttempts-1 retries counted.
	inj := faults.New(faults.Config{Seed: 1, Rate: 1, Kinds: []faults.Kind{faults.Garble}, After: 1})
	srv := serveO2Faulty(t, inj)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.TakeRetryStats()
	_, err = c.Fetch("artifacts")
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("fetch error = %v, want CorruptError", err)
	}
	retries, _ := c.TakeRetryStats()
	if want := DefaultRetryPolicy.MaxAttempts - 1; retries != want {
		t.Errorf("retries = %d, want %d", retries, want)
	}
}

func TestRemoteErrorNotRetried(t *testing.T) {
	// A server <error> frame is an answer, not an outage: it must surface
	// immediately as RemoteError with zero retries.
	srv := serveO2Idle(t, time.Minute)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.TakeRetryStats()
	_, err = c.Fetch("ghost")
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("fetch error = %v, want RemoteError", err)
	}
	if retries, redials := c.TakeRetryStats(); retries != 0 || redials != 0 {
		t.Errorf("retries, redials = %d, %d, want 0, 0", retries, redials)
	}
}

func TestDelayBeyondDeadlineIsDeadlineExceeded(t *testing.T) {
	// A wrapper stalling longer than the caller's budget must yield the
	// context error (so callers can tell budget exhaustion from outage) and
	// must not be retried: the budget is spent.
	inj := faults.New(faults.Config{
		Seed: 1, Rate: 1, Kinds: []faults.Kind{faults.Delay},
		Delay: 300 * time.Millisecond, After: 1,
	})
	srv := serveO2Faulty(t, inj)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.TakeRetryStats()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	cur, err := c.FetchStream(ctx, "artifacts")
	if err == nil {
		_, err = algebra.DrainForest(cur)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("fetch under stall = %v, want context.DeadlineExceeded", err)
	}
	if retries, _ := c.TakeRetryStats(); retries != 0 {
		t.Errorf("retries = %d, want 0 (an expired budget must not retry)", retries)
	}
}

func TestClientSideInjectionRecovers(t *testing.T) {
	// The client-side hook (Options.WrapConn) injects the same fault kinds
	// on response reads; the retry layer recovers identically.
	inj := faults.New(faults.Config{Seed: 1, Rate: 1, Kinds: []faults.Kind{faults.Drop}, After: 1, Max: 1})
	srv := serveO2Idle(t, time.Minute)
	c, err := DialWith(context.Background(), srv.Addr(), Options{WrapConn: inj.WrapConn})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.TakeRetryStats()
	fetchArtifacts(t, c)
	if inj.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", inj.Injected())
	}
	retries, redials := c.TakeRetryStats()
	if retries+redials < 1 {
		t.Errorf("retries+redials = %d+%d, want >= 1", retries, redials)
	}
}
