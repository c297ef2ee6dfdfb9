package exec_test

// The Pump's contract, on producers that stand in for a pipeline: the first
// error wins and stops the siblings, Close never waits on a consumer that
// has gone, each producer's chunks keep their order, empty chunks stay
// behind, and C closes only once every producer has returned. Meant to run
// under -race with a high -count.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/leakcheck"
	"repro/internal/tab"
)

func oneRow(i int) *tab.Tab {
	t := tab.New("$i")
	t.Add(tab.AtomCell(data.Int(int64(i))))
	return t
}

// sendForever hands out chunks until send refuses one, and returns that
// refusal; sent counts the chunks that were taken.
func sendForever(sent *atomic.Int64) exec.Producer {
	return func(_ context.Context, send func(*tab.Tab) error) error {
		for i := 0; ; i++ {
			if err := send(oneRow(i)); err != nil {
				return err
			}
			sent.Add(1)
		}
	}
}

// waitFull waits until the pump's buffer is full and the producers have had
// time to block on it.
func waitFull(t *testing.T, p *exec.Pump) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(p.C) < cap(p.C) {
		if time.Now().After(deadline) {
			t.Fatalf("the buffer never filled: %d of %d", len(p.C), cap(p.C))
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
}

// within fails the test unless fn returns within two seconds.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

func TestPumpFirstErrorWinsAndCancelsSiblings(t *testing.T) {
	errFirst := errors.New("first")
	t.Run("sibling-blocked-in-send", func(t *testing.T) {
		leakcheck.Arm(t)
		var sent atomic.Int64
		sibling := make(chan error, 1)
		full := make(chan struct{})
		p := exec.NewPump(context.Background(),
			func(ctx context.Context, send func(*tab.Tab) error) error {
				err := sendForever(&sent)(ctx, send)
				sibling <- err
				return err
			},
			func(context.Context, func(*tab.Tab) error) error {
				<-full
				return errFirst
			})
		waitFull(t, p)
		close(full)
		within(t, "the sibling blocked in send", func() {
			if err := <-sibling; !errors.Is(err, context.Canceled) {
				t.Errorf("the blocked send returned %v, want context.Canceled", err)
			}
		})
		n := 0
		for range p.C {
			n++
		}
		if int64(n) != sent.Load() {
			t.Errorf("%d chunks delivered, %d taken by send", n, sent.Load())
		}
		if err := p.Err(); err != errFirst {
			t.Errorf("Err = %v, want the first error", err)
		}
	})
	t.Run("sibling-blocked-in-source-call", func(t *testing.T) {
		leakcheck.Arm(t)
		p := exec.NewPump(context.Background(),
			func(ctx context.Context, _ func(*tab.Tab) error) error {
				<-ctx.Done() // a source call that honours its context
				return fmt.Errorf("source call: %w", ctx.Err())
			},
			func(context.Context, func(*tab.Tab) error) error {
				time.Sleep(10 * time.Millisecond)
				return errFirst
			})
		within(t, "Err", func() {
			if err := p.Err(); err != errFirst {
				t.Errorf("Err = %v, want the first error, not the sibling's", err)
			}
		})
		if _, open := <-p.C; open {
			t.Error("C delivered a chunk no producer sent")
		}
	})
	t.Run("caller-cancel", func(t *testing.T) {
		// Producers that stop quietly on the caller's cancellation must not
		// let the pump pass for complete.
		ctx, cancel := context.WithCancel(context.Background())
		p := exec.NewPump(ctx, func(ctx context.Context, _ func(*tab.Tab) error) error {
			<-ctx.Done()
			return nil
		})
		cancel()
		for range p.C {
		}
		if err := p.Err(); !errors.Is(err, context.Canceled) {
			t.Errorf("Err = %v, want context.Canceled", err)
		}
	})
}

func TestPumpCloseWhileProducersBlockedInSend(t *testing.T) {
	leakcheck.Arm(t)
	var sent atomic.Int64
	p := exec.NewPump(context.Background(), sendForever(&sent), sendForever(&sent), sendForever(&sent))
	waitFull(t, p)
	within(t, "Close", p.Close)
	for range p.C { // buffered chunks may remain, but C is closed behind them
	}
	within(t, "a second Close", p.Close)
}

func TestPumpKeepsEachProducersOrder(t *testing.T) {
	const producers, chunks = 3, 200
	origin := map[*tab.Tab][2]int{}
	prods := make([]exec.Producer, producers)
	for pi := range prods {
		own := make([]*tab.Tab, chunks)
		for i := range own {
			own[i] = oneRow(i)
			origin[own[i]] = [2]int{pi, i}
		}
		prods[pi] = func(_ context.Context, send func(*tab.Tab) error) error {
			for _, c := range own {
				if err := send(c); err != nil {
					return err
				}
			}
			return nil
		}
	}
	p := exec.NewPump(context.Background(), prods...)
	next := make([]int, producers)
	for c := range p.C {
		o := origin[c]
		if o[1] != next[o[0]] {
			t.Fatalf("producer %d: chunk %d arrived where %d was due", o[0], o[1], next[o[0]])
		}
		next[o[0]]++
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	for pi, n := range next {
		if n != chunks {
			t.Errorf("producer %d: %d of %d chunks arrived", pi, n, chunks)
		}
	}
}

func TestPumpNeverDeliversAnEmptyChunk(t *testing.T) {
	p := exec.NewPump(context.Background(), func(_ context.Context, send func(*tab.Tab) error) error {
		for _, c := range []*tab.Tab{nil, tab.New("$i"), oneRow(1), tab.New("$i"), oneRow(2), nil} {
			if err := send(c); err != nil {
				return err
			}
		}
		return nil
	})
	var got []int64
	for c := range p.C {
		if c.Len() == 0 {
			t.Fatal("an empty chunk was delivered")
		}
		got = append(got, c.Rows[0][0].Atom.I)
	}
	if err := p.Err(); err != nil || len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivered %v (err %v), want [1 2]", got, err)
	}
}

func TestPumpClosesCOnlyAfterEveryProducerReturned(t *testing.T) {
	const producers = 4
	var returned atomic.Int32
	prods := make([]exec.Producer, producers)
	for i := range prods {
		prods[i] = func(_ context.Context, send func(*tab.Tab) error) error {
			defer returned.Add(1)
			if err := send(oneRow(i)); err != nil {
				return err
			}
			// The later producers outlast their last chunk.
			time.Sleep(time.Duration(i) * 10 * time.Millisecond)
			return nil
		}
	}
	p := exec.NewPump(context.Background(), prods...)
	n := 0
	for range p.C {
		n++
	}
	if r := returned.Load(); r != producers {
		t.Fatalf("C closed with %d of %d producers returned", r, producers)
	}
	if err := p.Err(); err != nil || n != producers {
		t.Fatalf("%d chunks, err %v; want %d chunks and nil", n, err, producers)
	}
}
