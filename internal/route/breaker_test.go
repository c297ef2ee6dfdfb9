package route

import (
	"context"
	"io"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestBreakerOpensAndRecovers(t *testing.T) {
	b := newBreaker(BreakerOptions{FailureThreshold: 2, Cooldown: 80 * time.Millisecond})
	if !b.admit() {
		t.Fatal("fresh breaker refuses calls")
	}
	transportErr := io.ErrUnexpectedEOF
	b.done(transportErr, true)
	if !b.admit() || !b.ready() {
		t.Fatal("one failure below threshold must not open the breaker")
	}
	b.done(transportErr, true)
	if b.admit() || b.ready() {
		t.Fatal("breaker must be open after reaching the failure threshold")
	}
	if st, fails, last := b.snapshot(); st != "open" || fails != 2 || last != transportErr {
		t.Fatalf("snapshot = %s, %d failures, last %v; want open with 2 failures", st, fails, last)
	}
	// After the cooldown exactly one probe call passes; concurrent callers
	// keep failing fast until the probe resolves.
	time.Sleep(100 * time.Millisecond)
	if !b.admit() {
		t.Fatal("probe after cooldown refused")
	}
	if st, _, _ := b.snapshot(); st != "half-open" {
		t.Fatalf("state during the probe = %s, want half-open", st)
	}
	if b.admit() || b.ready() {
		t.Fatal("second call during the probe must fail fast")
	}
	// The probe succeeds: breaker closes, calls flow again.
	b.done(nil, false)
	if !b.admit() || !b.ready() {
		t.Fatal("breaker must close after a successful probe")
	}
	// A failed probe re-opens for another cooldown.
	b.done(transportErr, true)
	b.done(transportErr, true)
	time.Sleep(100 * time.Millisecond)
	if !b.admit() {
		t.Fatal("probe refused")
	}
	b.done(transportErr, true)
	if b.admit() {
		t.Fatal("failed probe must re-open the breaker")
	}
}

func TestBreakerIgnoresSemanticAndContextErrors(t *testing.T) {
	// A server-reported <error> proves the source alive; a caller's expired
	// budget says nothing about the source. Neither may trip a breaker.
	b := newBreaker(BreakerOptions{FailureThreshold: 1})
	for i := 0; i < 5; i++ {
		b.done(&wire.RemoteError{Msg: "no such document"}, wire.IsRetryable(&wire.RemoteError{Msg: "x"}))
		b.done(context.DeadlineExceeded, wire.IsRetryable(context.DeadlineExceeded))
	}
	if !b.admit() {
		t.Fatal("breaker tripped by non-transport errors")
	}
	if st, fails, last := b.snapshot(); st != "closed" || fails != 0 || last != nil {
		t.Fatalf("snapshot = %s, %d failures, last %v; want pristine closed state", st, fails, last)
	}
}
