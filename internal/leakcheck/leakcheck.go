// Package leakcheck is test support: the lifecycle assertions the wire,
// route and mediator tests share. Every cursor, goroutine and pooled
// connection must be released on cancel, error and abandon, and these are
// the two observations that show it.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Pool is anything that counts the request slots it currently holds — a
// wire.Client, named structurally so the wire package's own tests can use
// this one.
type Pool interface{ InFlight() int }

// Settle waits for the goroutine count to come back down to base and
// reports the count it settled at.
func Settle(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Arm arms the lifecycle assertions for one test; call it before the
// deployment is built. At the very end of the test — after the deployment's
// own cleanups have closed every server and client — the goroutine count
// must settle back to where it started: a pump, a Union producer, a fan-out
// worker, a reply reader or a context watcher that outlived its request
// shows up as a surplus. The returned func is the mid-test half: once a
// scenario is over, every pool's request slots must be free again (a cursor
// nobody closed holds its slot, and its pinned connection, forever).
func Arm(t testing.TB) (idle func(pools ...Pool)) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		if n := Settle(base); n > base {
			buf := make([]byte, 1<<20)
			t.Errorf("%d goroutines at the end of the test, %d at its start; leaked:\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
	})
	return func(pools ...Pool) {
		t.Helper()
		for i, p := range pools {
			deadline := time.Now().Add(5 * time.Second)
			for p.InFlight() > 0 && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := p.InFlight(); n > 0 {
				t.Errorf("pool %d still holds %d request slot(s) after its requests ended", i, n)
			}
		}
	}
}
