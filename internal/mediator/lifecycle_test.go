package mediator

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/filter"
	"repro/internal/leakcheck"
	"repro/internal/o2wrap"
	"repro/internal/route"
	"repro/internal/wire"
)

// leakCheck arms leakcheck.Arm for one test; call it before the deployment
// is built. The returned func is the mid-test half: once a scenario is over,
// every wire client the mediator is connected to must have all its request
// slots free again.
func leakCheck(t *testing.T) func(m *Mediator) {
	t.Helper()
	idle := leakcheck.Arm(t)
	return func(m *Mediator) {
		t.Helper()
		for _, src := range m.cat.Load().sources {
			if c, ok := src.(*wire.Client); ok {
				idle(c)
			}
		}
	}
}

// watchedContext is a context the standard library cannot splice a child
// into: deriving from it costs a watcher goroutine that lives until the
// child is cancelled or the parent is done — which this one never is.
type watchedContext struct{ done chan struct{} }

func (watchedContext) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c watchedContext) Done() <-chan struct{}     { return c.done }
func (watchedContext) Err() error                  { return nil }
func (watchedContext) Value(any) any               { return nil }

func TestDrainedStreamReleasesItsContext(t *testing.T) {
	// A stream drained to EOF, and one that failed, must release the query
	// context like an abandoned one does; before the pump did so on every
	// exit path, each left a watcher goroutine behind under a parent like
	// this, for the parent's lifetime.
	m, _, _ := paperSetup(t)
	parent := watchedContext{done: make(chan struct{})}
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		s, err := m.StreamContext(parent, datagen.Q2Src, ExecOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := s.Drain(); err != nil || res.Tab.Len() == 0 {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if n := leakcheck.Settle(base); n > base {
		t.Errorf("%d goroutines after 50 drained streams, %d before: the query context is not released at EOF", n, base)
	}
}

func TestStreamLifecycleReleasesEverything(t *testing.T) {
	// Every way a stream can end other than by being read to its last row,
	// on the serial and on a parallel engine: nothing may stay behind.
	for _, par := range []int{1, 4} {
		opts := ExecOptions{Parallelism: par}

		t.Run(fmt.Sprintf("cancel/par%d", par), func(t *testing.T) {
			poolsIdle := leakCheck(t)
			m, _ := deployFaulty(t, 400, nil, nil)
			ctx, cancel := context.WithCancel(context.Background())
			s, err := m.StreamPlan(ctx, crossSourceUnion(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if first := <-s.Chunks(); first == nil {
				t.Fatal("no chunk before the cancel")
			}
			cancel()
			for range s.Chunks() {
			}
			if _, err := s.Result(); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled stream ended with %v, want context.Canceled", err)
			}
			poolsIdle(m)
		})

		t.Run(fmt.Sprintf("close-before-first-chunk/par%d", par), func(t *testing.T) {
			poolsIdle := leakCheck(t)
			m, _ := deployFaulty(t, 400, nil, nil)
			s, err := m.StreamPlan(context.Background(), crossSourceUnion(), opts)
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
			poolsIdle(m)
		})

		t.Run(fmt.Sprintf("close-mid-stream/par%d", par), func(t *testing.T) {
			poolsIdle := leakCheck(t)
			m, _ := deployFaulty(t, 400, nil, nil)
			s, err := m.StreamContext(context.Background(), datagen.Q2Src, opts)
			if err != nil {
				t.Fatal(err)
			}
			if first := <-s.Chunks(); first == nil {
				t.Fatal("no chunk before the close")
			}
			s.Close()
			poolsIdle(m)
			// The connections the abandoned stream had pinned are usable or
			// gone, not wedged: the same query still answers.
			if res, err := m.ExecuteContext(context.Background(), datagen.Q2Src, opts); err != nil || res.Tab.Len() == 0 {
				t.Errorf("query after an abandoned stream: %v", err)
			}
			poolsIdle(m)
		})

		t.Run(fmt.Sprintf("timeout-on-stuck-wrapper/par%d", par), func(t *testing.T) {
			poolsIdle := leakCheck(t)
			const stall = 2 * time.Second
			waisInj := faults.New(faults.Config{Seed: 11, Rate: 1,
				Kinds: []faults.Kind{faults.Delay}, Delay: stall, After: setupExchanges})
			m, _ := deployFaulty(t, faultWorkloadN, nil, waisInj)
			stuck := opts
			stuck.Timeout = 200 * time.Millisecond
			start := time.Now()
			_, err := m.ExecutePlan(context.Background(), crossSourceUnion(), stuck)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("stuck wrapper under a deadline: %v, want deadline exceeded", err)
			}
			if d := time.Since(start); d > stall {
				t.Errorf("the deadline took %v to fire against a %v stall", d, stall)
			}
			poolsIdle(m)
		})

		t.Run(fmt.Sprintf("kill-mid-stream-allow-partial/par%d", par), func(t *testing.T) {
			poolsIdle := leakCheck(t)
			m, killWais := deployFaulty(t, 400, nil, nil)
			partial := opts
			partial.AllowPartial = true
			s, err := m.StreamPlan(context.Background(), crossSourceUnion(), partial)
			if err != nil {
				t.Fatal(err)
			}
			if first := <-s.Chunks(); first == nil {
				t.Fatal("no chunk before the kill")
			}
			killWais()
			for range s.Chunks() {
			}
			if _, err := s.Result(); err != nil {
				t.Errorf("AllowPartial stream failed outright after the kill: %v", err)
			}
			poolsIdle(m)
		})
	}
}

// routerLoad presents a router's open calls and streams as a leakcheck.Pool.
type routerLoad struct{ rt *route.Replicated }

func (l routerLoad) InFlight() int {
	n := 0
	for _, h := range l.rt.Health() {
		n += int(h.Inflight)
	}
	return n
}

func TestAbandonedStreamReleasesTheDecorator(t *testing.T) {
	// A stream abandoned while the artifacts document is still arriving must
	// give back what the one availability decorator holds for it: the
	// mediator's per-source router its inflight slot, a replicated source's
	// router the slot of the replica that served the stream, and the wire
	// clients below their request slots.
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas%d", replicas), func(t *testing.T) {
			idle := leakcheck.Arm(t)
			w := datagen.Generate(datagen.DefaultParams(400))
			ow := o2wrap.New("o2artifact", w.DB)
			var clients []algebra.Source
			var pools []leakcheck.Pool
			for i := 0; i < replicas; i++ {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				srv := wire.Serve(ln, wire.Exported{Source: ow, Interface: ow.ExportInterface()})
				t.Cleanup(srv.Close)
				c, err := wire.Dial(srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				clients = append(clients, c)
				pools = append(pools, c)
			}
			src := clients[0]
			if replicas > 1 {
				rt, err := route.New("o2artifact", clients, route.Options{})
				if err != nil {
					t.Fatal(err)
				}
				src = rt
				pools = append(pools, routerLoad{rt})
			}
			m := New()
			if err := m.Connect(src, ow.ExportInterface()); err != nil {
				t.Fatal(err)
			}
			titles := &algebra.Bind{Doc: "artifacts",
				F: filter.MustParse(`set[ *class[ artifact.tuple[ title: $t ] ] ]`)}
			s, err := m.StreamPlan(context.Background(), titles,
				ExecOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if first := <-s.Chunks(); first == nil {
				t.Fatal("no chunk before the close")
			}
			outer := routerLoad{m.cat.Load().routers["o2artifact"].(*route.Replicated)}
			if n := outer.InFlight(); n != 1 {
				t.Fatalf("%d streams open through the decorator after the first chunk, want 1 (not mid-document)", n)
			}
			s.Close()
			idle(append(pools, outer)...)
			if h := m.Health()["o2artifact"]; h.State != "closed" || h.Failures != 0 {
				t.Errorf("abandoning a stream damaged the source's health: %+v", h)
			}
		})
	}
}
