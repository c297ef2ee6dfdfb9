package wire

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/o2wrap"
)

// serveO2Limited starts an O₂ wrapper server with an explicit connection cap.
func serveO2Limited(t *testing.T, conns int) *Server {
	t.Helper()
	ow := o2wrap.New("o2artifact", datagen.PaperDB())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(ln, Exported{Source: ow, Interface: ow.ExportInterface()}, idleTimeout, writeTimeout, conns)
	t.Cleanup(srv.Close)
	return srv
}

// TestServerConnCapRefusesExcess pins the inflight-connection bound: with a
// cap of 1, a second concurrent connection is refused with a structured
// <error> frame (a RemoteError client-side, not a hang or a bare reset),
// and once the first connection closes, its slot is reusable.
func TestServerConnCapRefusesExcess(t *testing.T) {
	srv := serveO2Limited(t, 1)

	// First connection occupies the single slot.
	c1, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := WriteFrame(c1, `<hello/>`); err != nil {
		t.Fatal(err)
	}
	if resp, err := ReadFrame(c1); err != nil || resp == "" {
		t.Fatalf("first connection hello failed: %q, %v", resp, err)
	}

	// Second connection must be turned away with the busy frame.
	c2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := ReadFrame(c2)
	if err != nil {
		t.Fatalf("refused connection: want an <error> frame, got %v", err)
	}
	if want := ErrServerBusy; !containsStr(resp, want) {
		t.Fatalf("refusal frame %q does not carry %q", resp, want)
	}
	if got := srv.Refused(); got != 1 {
		t.Fatalf("Refused() = %d, want 1", got)
	}

	// Releasing the slot readmits new connections.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c3.SetDeadline(time.Now().Add(time.Second))
		err = WriteFrame(c3, `<hello/>`)
		var got string
		if err == nil {
			got, err = ReadFrame(c3)
		}
		c3.Close()
		if err == nil && containsStr(got, "wrapper") {
			return // slot freed, server answering again
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: last response %q, err %v", got, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerConnCapRefusalIsRemoteError pins the client-side classification:
// a busy refusal surfaces as RemoteError (proof of life — no retry storm,
// no breaker trip), not as a retryable transport failure.
func TestServerConnCapRefusalIsRemoteError(t *testing.T) {
	srv := serveO2Limited(t, 1)

	hold, err := Dial(srv.Addr()) // occupies the only slot with a pooled conn
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()

	_, err = Dial(srv.Addr())
	if err == nil {
		t.Fatal("second Dial beyond the cap must fail")
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("refusal error = %v (%T), want RemoteError", err, err)
	}
	if IsRetryable(err) {
		t.Fatal("busy refusal must not be classified retryable")
	}
}

// TestServerConnCapUnderChurn exercises the cap under concurrent
// connect/disconnect churn: no connection hangs, every attempt ends in
// either a served hello or a structured refusal.
func TestServerConnCapUnderChurn(t *testing.T) {
	srv := serveO2Limited(t, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			if err := WriteFrame(conn, `<hello/>`); err != nil {
				return // raced the refusal close; the refusal frame already settled it
			}
			resp, err := ReadFrame(conn)
			if err != nil {
				return // refused-and-closed connections may reset mid-read
			}
			if !containsStr(resp, "wrapper") && !containsStr(resp, ErrServerBusy) {
				errs <- errors.New("unexpected response: " + resp)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func containsStr(s, sub string) bool { return strings.Contains(s, sub) }
