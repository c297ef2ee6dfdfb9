package exec

import (
	"context"
	"io"
	"sync/atomic"

	"repro/internal/tab"
)

// pumpDepth is how many chunks a Pump holds ahead of its consumer: a
// producer stalls once the consumer falls this far behind. Two lets a
// producer pull its next chunk while the consumer still works on the last,
// and bounds what a stalled consumer leaves in memory at two chunks.
const pumpDepth = 2

// A Producer runs on a goroutine of its own and hands its chunks to the
// consumer through send, which returns an error once the pump is cancelled;
// the producer should then stop and return it. ctx is cancelled when a
// sibling fails or the pump is closed, and the producer's source calls
// should run under it.
type Producer func(ctx context.Context, send func(*tab.Tab) error) error

// Pump is the one hand-off from producer goroutines to a consumer: the
// mediator's Stream is a pump of one producer, a parallel Union a pump of
// two. The consumer ranges over C, which delivers the producers' non-empty
// chunks in arrival order — each producer's in its own order — and closes
// once every producer has returned; Err then reports the outcome. The first
// producer error cancels the others.
type Pump struct {
	C <-chan *tab.Tab

	ch     chan *tab.Tab
	ctx    context.Context
	cancel context.CancelCauseFunc // the first cause given is the one kept
	left   atomic.Int32            // producers still running
	err    error                   // the outcome, set before done closes
	done   chan struct{}           // closed after C, when the last producer has returned
}

// NewPump starts one goroutine for each of one or more producers, under a
// context derived from ctx.
func NewPump(ctx context.Context, producers ...Producer) *Pump {
	ch := make(chan *tab.Tab, pumpDepth)
	p := &Pump{C: ch, ch: ch, done: make(chan struct{})}
	p.ctx, p.cancel = context.WithCancelCause(ctx)
	p.left.Store(int32(len(producers)))
	for _, produce := range producers {
		go p.run(produce)
	}
	return p
}

func (p *Pump) run(produce Producer) {
	if err := produce(p.ctx, p.send); err != nil {
		p.cancel(err)
	}
	if p.left.Add(-1) > 0 {
		return
	}
	// The first producer error, or the caller's cancellation: a producer
	// that stopped because the caller cancelled may report nothing, and the
	// stream must not pass for complete.
	p.err = context.Cause(p.ctx)
	p.cancel(nil)
	close(p.ch)
	close(p.done)
}

func (p *Pump) send(t *tab.Tab) error {
	if t.Len() == 0 {
		return nil
	}
	select {
	case p.ch <- t:
		return nil
	case <-p.ctx.Done():
		return p.ctx.Err()
	}
}

// Err waits for every producer to return and reports the first error, or
// the caller's cancellation, or nil when the producers finished.
func (p *Pump) Err() error {
	<-p.done
	return p.err
}

// Close cancels the producers and waits for them to return. The chunks
// still buffered are dropped with the pump. Closing a finished pump is a
// no-op.
func (p *Pump) Close() {
	p.cancel(nil)
	<-p.done
}

// Forward hands every chunk of cur to send until cur ends or either fails,
// then closes cur: the body of a Producer over an open cursor.
func Forward(cur tab.Cursor, send func(*tab.Tab) error) error {
	defer cur.Close()
	for {
		t, err := cur.Next()
		if err == io.EOF {
			return nil
		}
		if err == nil {
			err = send(t)
		}
		if err != nil {
			return err
		}
	}
}
