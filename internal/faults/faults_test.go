package faults

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

func drain(inj *Injector, n int) []Kind {
	out := make([]Kind, n)
	for i := range out {
		out[i] = inj.decide()
	}
	return out
}

func TestDecideDeterministicUnderSeed(t *testing.T) {
	cfg := Config{Seed: 42, Rate: 0.5}
	a := drain(New(cfg), 200)
	b := drain(New(cfg), 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	faults := 0
	for _, k := range a {
		if k != None {
			faults++
		}
	}
	if faults == 0 || faults == len(a) {
		t.Fatalf("rate 0.5 injected %d/200 faults", faults)
	}
}

func TestAfterSuppressesEarlyFaults(t *testing.T) {
	inj := New(Config{Seed: 1, Rate: 1, After: 3})
	seq := drain(inj, 5)
	for i := 0; i < 3; i++ {
		if seq[i] != None {
			t.Errorf("exchange %d faulted during After window: %v", i+1, seq[i])
		}
	}
	if seq[3] == None || seq[4] == None {
		t.Errorf("exchanges past After must fault at rate 1: %v", seq)
	}
}

func TestMaxCapsInjectedFaults(t *testing.T) {
	inj := New(Config{Seed: 1, Rate: 1, Max: 2})
	drain(inj, 10)
	if got := inj.Injected(); got != 2 {
		t.Errorf("Injected() = %d, want 2", got)
	}
}

func TestKillNthTargetsExactExchange(t *testing.T) {
	inj := New(Config{Seed: 1, KillNth: 4})
	seq := drain(inj, 6)
	for i, k := range seq {
		want := None
		if i == 3 {
			want = Kill
		}
		if k != want {
			t.Errorf("exchange %d = %v, want %v", i+1, k, want)
		}
	}
	if inj.Counts()[Kill] != 1 {
		t.Errorf("Counts()[Kill] = %d, want 1", inj.Counts()[Kill])
	}
}

func TestGarbledPreservesLength(t *testing.T) {
	p := []byte(`<tab cols="name"><row><cell>Nympheas</cell></row></tab>`)
	q := garbled(p, 0)
	if len(q) != len(p) {
		t.Fatalf("garbled length %d != %d", len(q), len(p))
	}
	if bytes.Equal(q, p) {
		t.Fatal("garbled payload identical to original")
	}
}

func TestDefaults(t *testing.T) {
	inj := New(Config{Seed: 1, Rate: 1})
	if inj.cfg.Delay != 50*time.Millisecond {
		t.Errorf("default delay = %v", inj.cfg.Delay)
	}
	for _, k := range inj.cfg.Kinds {
		if k == Kill || k == None {
			t.Errorf("default kinds include %v", k)
		}
	}
	if inj.Exchanges() != 0 {
		t.Errorf("fresh injector Exchanges() = %d", inj.Exchanges())
	}
}

// TestOneWriteFrameKeepsItsHeader writes a response frame, header and
// payload, in one Write, as the wire server does, under each kind: the peer
// reads the length header intact whenever anything arrives, and the fault
// lands on the payload alone.
func TestOneWriteFrameKeepsItsHeader(t *testing.T) {
	payload := []byte(`<chunk end="1"><tab cols="name"><row><cell>Nympheas</cell></row></tab></chunk>`)
	frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	for _, k := range []Kind{None, Delay, Truncate, Garble, Drop, Kill} {
		t.Run(k.String(), func(t *testing.T) {
			near, far := net.Pipe()
			defer far.Close()
			cfg := Config{Seed: 1, Rate: 1, Kinds: []Kind{k}, Delay: time.Millisecond}
			if k == Kill {
				cfg = Config{KillNth: 1}
			}
			c := &serverConn{Conn: near, inj: New(cfg)}
			go far.Write([]byte("req")) // the request the frame answers
			if _, err := io.ReadFull(c, make([]byte, 3)); err != nil {
				t.Fatal(err)
			}
			go func() {
				c.Write(frame)
				c.Close()
			}()
			got, _ := io.ReadAll(far)
			switch k {
			case Drop, Kill:
				if len(got) != 0 {
					t.Fatalf("%d bytes arrived, want none", len(got))
				}
				return
			case None, Delay:
				if !bytes.Equal(got, frame) {
					t.Fatalf("frame changed: %q", got)
				}
			case Truncate:
				if len(got) != 4+len(payload)/2 {
					t.Fatalf("%d bytes arrived, want the header and half the payload, %d", len(got), 4+len(payload)/2)
				}
			case Garble:
				if len(got) != len(frame) || bytes.Equal(got[4:], payload) {
					t.Fatalf("payload not garbled in place: %q", got)
				}
			}
			if !bytes.Equal(got[:4], frame[:4]) {
				t.Fatalf("header %x, want %x", got[:4], frame[:4])
			}
		})
	}
}
