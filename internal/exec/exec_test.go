package exec_test

// The engine's scheduling contract: a parallel run returns the rows of the
// serial run — in the same order everywhere except under a Union, which
// interleaves — with the same source accounting. The tests run plans against
// live wire wrappers (real TCP, real XML frames) at Parallelism 1 and N and
// compare row for row; the cancellation tests park a wrapper forever and
// demand a prompt deadline error. All of this is meant to run under -race:
// the engine, the wire client pool and the wrappers share every code path
// the mediator uses.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/filter"
	"repro/internal/leakcheck"
	"repro/internal/o2wrap"
	"repro/internal/obs"
	"repro/internal/tab"
	"repro/internal/waiswrap"
	"repro/internal/wire"
)

// serveWrappers brings up the two Figure 2 wrappers on ephemeral ports and
// returns an evaluation context whose sources are wire clients.
func serveWrappers(t *testing.T, w *datagen.Workload) *algebra.Context {
	t.Helper()
	ow := o2wrap.New("o2artifact", w.DB)
	schema := ow.ExportSchema()
	ww := waiswrap.New("xmlartwork", datagen.NewWaisEngine(w.Works))
	exps := []wire.Exported{
		{Source: ow, Interface: ow.ExportInterface(), Structures: map[string]wire.StructureRef{
			"artifacts": {Model: schema, Pattern: "Artifact"},
			"persons":   {Model: schema, Pattern: "Person"},
		}},
		{Source: ww, Interface: ww.ExportInterface(), Structures: map[string]wire.StructureRef{
			"works": {Model: ww.ExportStructure(), Pattern: "Works"},
		}},
	}
	ctx := algebra.NewContext()
	ctx.Funcs["contains"] = waiswrap.Contains
	for _, exp := range exps {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := wire.Serve(ln, exp)
		t.Cleanup(srv.Close)
		c, err := wire.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		ctx.Sources[c.Name()] = c
	}
	return ctx
}

// titleRows builds a one-column table of the first k work titles — the
// outer side of the information-passing DJoin of E11.
func titleRows(w *datagen.Workload, k int) *tab.Tab {
	t := tab.New("$t")
	for i := 0; i < k && i < len(w.Works); i++ {
		t.Add(tab.AtomCell(data.String(w.Works[i].Child("title").Atom.S)))
	}
	return t
}

func o2TitlePrice() algebra.Op {
	return &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
		`set[ *class[ artifact.tuple[ title: $t2, price: $p ] ] ]`)}
}

// runBoth evaluates the plan on a serial engine and on one configured by
// opts, asserting identical rows — in identical order when ordered — and
// identical source accounting.
func runBoth(t *testing.T, plan algebra.Op, mk func() *algebra.Context, opts exec.Options, ordered bool) {
	t.Helper()
	sctx := mk()
	serial, err := exec.RunSerial(plan, sctx)
	if err != nil {
		t.Fatal(err)
	}
	pctx := mk()
	par, err := exec.New(opts).Run(context.Background(), plan, pctx)
	if err != nil {
		t.Fatal(err)
	}
	if ordered && !serial.Equal(par) || !ordered && !serial.EqualUnordered(par) {
		t.Fatalf("parallel result diverges from serial:\nserial (%d rows):\n%s\nparallel (%d rows):\n%s",
			serial.Len(), serial, par.Len(), par)
	}
	if serial.Len() == 0 {
		t.Fatal("empty fixture: the comparison is vacuous")
	}
	if sctx.Stats.SourcePushes != pctx.Stats.SourcePushes {
		t.Errorf("pushes: serial %d parallel %d", sctx.Stats.SourcePushes, pctx.Stats.SourcePushes)
	}
	if sctx.Stats.SourceFetches != pctx.Stats.SourceFetches {
		t.Errorf("fetches: serial %d parallel %d", sctx.Stats.SourceFetches, pctx.Stats.SourceFetches)
	}
}

func TestParallelDJoinFanOutWire(t *testing.T) {
	w := datagen.Generate(datagen.DefaultParams(120))
	ctx := serveWrappers(t, w)
	mk := func() *algebra.Context { c := *ctx; c.Stats = &algebra.Stats{}; return &c }
	plan := &algebra.DJoin{
		L: &algebra.Literal{T: titleRows(w, 40)},
		R: &algebra.SourceQuery{Source: "o2artifact",
			Plan: &algebra.Select{From: o2TitlePrice(), Pred: algebra.MustParseExpr(`$t2 = $t`)}},
	}
	runBoth(t, plan, mk, exec.Options{Parallelism: 8}, true)
	// a tighter fan-out bound must not change the answer either
	runBoth(t, plan, mk, exec.Options{Parallelism: 8}, true)
}

func TestParallelJoinAndUnionWire(t *testing.T) {
	w := datagen.Generate(datagen.DefaultParams(120))
	ctx := serveWrappers(t, w)
	mk := func() *algebra.Context { c := *ctx; c.Stats = &algebra.Stats{}; return &c }
	join := &algebra.Join{
		L:    &algebra.Literal{T: titleRows(w, 30)},
		R:    &algebra.SourceQuery{Source: "o2artifact", Plan: o2TitlePrice()},
		Pred: algebra.MustParseExpr(`$t = $t2`),
	}
	runBoth(t, join, mk, exec.Options{Parallelism: 4}, true)
	union := &algebra.Union{
		L: &algebra.SourceQuery{Source: "o2artifact",
			Plan: &algebra.Select{From: o2TitlePrice(), Pred: algebra.MustParseExpr(`$p < 100000`)}},
		R: &algebra.SourceQuery{Source: "o2artifact",
			Plan: &algebra.Select{From: o2TitlePrice(), Pred: algebra.MustParseExpr(`$p >= 100000`)}},
	}
	// The parallel engine interleaves the branches' chunks as they arrive,
	// so only the bag is fixed.
	runBoth(t, union, mk, exec.Options{Parallelism: 4}, false)
}

func TestParallelPipelinedOperatorsWire(t *testing.T) {
	// The chunk-by-chunk operators (Select, Project, Distinct over a fetched
	// document) keep serial row order under a parallel engine, and Distinct
	// holds across chunk boundaries.
	w := datagen.Generate(datagen.DefaultParams(150))
	ctx := serveWrappers(t, w)
	mk := func() *algebra.Context { c := *ctx; c.Stats = &algebra.Stats{}; return &c }
	plan := &algebra.Distinct{
		From: &algebra.Project{
			Cols: []string{"$t2"},
			From: &algebra.Select{From: o2TitlePrice(), Pred: algebra.MustParseExpr(`$p >= 0`)},
		},
	}
	runBoth(t, plan, mk, exec.Options{Parallelism: 4}, true)
	got, err := exec.RunSerial(plan, mk())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range got.Rows {
		k := string(r.AppendKey(nil, nil))
		if seen[k] {
			t.Fatalf("Distinct let a duplicate through: %v", r)
		}
		seen[k] = true
	}
	if got.Len() <= tab.DefaultStreamChunk {
		t.Fatalf("%d rows fit one chunk; fixture too small to cross a boundary", got.Len())
	}
}

// stuckSource is a wrapper whose push never answers — a dead source that
// must not be able to hang a query once a deadline is set.
type stuckSource struct {
	release chan struct{}
}

func (s *stuckSource) Name() string        { return "stuck" }
func (s *stuckSource) Documents() []string { return []string{"pit"} }
func (s *stuckSource) Fetch(doc string) (data.Forest, error) {
	<-s.release
	return data.Forest{data.Elem("pit")}, nil
}
func (s *stuckSource) Push(plan algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	<-s.release
	return tab.New(plan.Columns()...), nil
}

func TestTimeoutCancelsStuckWrapper(t *testing.T) {
	stuck := &stuckSource{release: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.Serve(ln, wire.Exported{Source: stuck})
	t.Cleanup(srv.Close)
	// LIFO: unblock the parked handlers before Close waits for them
	t.Cleanup(func() { close(stuck.release) })
	c, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	ctx := algebra.NewContext()
	ctx.Sources["stuck"] = c
	plan := &algebra.SourceQuery{Source: "stuck",
		Plan: &algebra.Bind{Doc: "pit", F: filter.MustParse(`pit@$x`)}}
	start := time.Now()
	_, err = exec.New(exec.Options{Parallelism: 4, Timeout: 200 * time.Millisecond}).
		Run(context.Background(), plan, ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v: the stuck wrapper hung the query", elapsed)
	}
}

func TestCancelPropagatesToFanOut(t *testing.T) {
	// Cancel mid-fan-out: a DJoin over a stuck inner source must return the
	// cancellation error, not deadlock waiting for its workers.
	stuck := &stuckSource{release: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.Serve(ln, wire.Exported{Source: stuck})
	t.Cleanup(srv.Close)
	// LIFO: unblock the parked handlers before Close waits for them
	t.Cleanup(func() { close(stuck.release) })
	c, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	actx := algebra.NewContext()
	actx.Sources["stuck"] = c
	left := tab.New("$t")
	for i := 0; i < 8; i++ {
		left.Add(tab.AtomCell(data.String("x")))
	}
	plan := &algebra.DJoin{
		L: &algebra.Literal{T: left},
		R: &algebra.SourceQuery{Source: "stuck",
			Plan: &algebra.Bind{Doc: "pit", F: filter.MustParse(`pit@$x`)}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(100 * time.Millisecond); cancel() }()
	_, err = exec.New(exec.Options{Parallelism: 4}).Run(ctx, plan, actx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSkolemMintOrderUnderParallelism(t *testing.T) {
	// Skolem identifiers are numbered in mint order and appear in the
	// output, so a Tree-constructing plan is the strictest order witness:
	// the engine must keep units that mint from running concurrently.
	w := datagen.Generate(datagen.DefaultParams(60))
	mk := func() *algebra.Context {
		ctx := algebra.NewContext()
		ctx.Sources["o2artifact"] = o2wrap.New("o2artifact", w.DB)
		ctx.Sources["xmlartwork"] = waiswrap.New("xmlartwork", datagen.NewWaisEngine(w.Works))
		ctx.Funcs["contains"] = waiswrap.Contains
		return ctx
	}
	plan := &algebra.TreeOp{
		From: &algebra.DJoin{
			L: &algebra.Literal{T: titleRows(w, 10)},
			R: &algebra.SourceQuery{Source: "o2artifact",
				Plan: &algebra.Select{From: o2TitlePrice(), Pred: algebra.MustParseExpr(`$t2 = $t`)}},
		},
		C: algebra.MustParseCons(`hit($t) := hit[ title: $t, price: $p ]`),
	}
	runBoth(t, plan, mk, exec.Options{Parallelism: 8}, true)
}

// failingSource answers every push with errBoom once a delay has passed.
type failingSource struct{ after time.Duration }

var errBoom = errors.New("boom")

func (s *failingSource) Name() string                      { return "boom" }
func (s *failingSource) Documents() []string               { return []string{"crater"} }
func (s *failingSource) Fetch(string) (data.Forest, error) { return nil, errBoom }
func (s *failingSource) Push(algebra.Op, map[string]tab.Cell) (*tab.Tab, error) {
	time.Sleep(s.after)
	return nil, errBoom
}

func TestUnionBranchFailureCancelsSibling(t *testing.T) {
	// One branch of a parallel Union fails after 150 ms while the other waits
	// on a wire source that never answers: the failure must cancel the
	// sibling's in-flight call and surface at once, traced or not.
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			leakcheck.Arm(t)
			stuck := &stuckSource{release: make(chan struct{})}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := wire.Serve(ln, wire.Exported{Source: stuck})
			t.Cleanup(srv.Close)
			// LIFO: unblock the parked handlers before Close waits for them
			t.Cleanup(func() { close(stuck.release) })
			c, err := wire.Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })

			actx := algebra.NewContext()
			actx.Sources["stuck"] = c
			actx.Sources["boom"] = &failingSource{after: 150 * time.Millisecond}
			if traced {
				actx.Trace = obs.NewTrace("query")
			}
			leaf := func(source string) algebra.Op {
				return &algebra.SourceQuery{Source: source,
					Plan: &algebra.Bind{Doc: "pit", F: filter.MustParse(`pit@$x`)}}
			}
			plan := &algebra.Union{L: leaf("stuck"), R: leaf("boom")}
			done := make(chan error, 1)
			go func() {
				_, err := exec.New(exec.Options{Parallelism: 2}).Run(context.Background(), plan, actx)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, errBoom) {
					t.Fatalf("err = %v, want the failing branch's error", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("the failing branch did not cancel its sibling's source call: the union still waits on it")
			}
		})
	}
}

// endlessSource streams one-row chunks until its context ends, counting the
// chunks it hands out.
type endlessSource struct {
	name string
	sent atomic.Int64
}

func (s *endlessSource) Name() string        { return s.name }
func (s *endlessSource) Documents() []string { return []string{"pit"} }
func (s *endlessSource) Fetch(string) (data.Forest, error) {
	return nil, fmt.Errorf("%s: answers as a stream only", s.name)
}
func (s *endlessSource) Push(algebra.Op, map[string]tab.Cell) (*tab.Tab, error) {
	return nil, fmt.Errorf("%s: answers as a stream only", s.name)
}
func (s *endlessSource) PushStream(ctx context.Context, plan algebra.Op, _ map[string]tab.Cell) (tab.Cursor, error) {
	return &tab.FuncCursor{Columns: plan.Columns(), NextFn: func() (*tab.Tab, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t := tab.New(plan.Columns()...)
		t.Add(tab.AtomCell(data.String(s.name)))
		s.sent.Add(1)
		return t, nil
	}}, nil
}

// stalledUnion opens a Union of two endless sources at Parallelism 2 and
// reads nothing until both branches have streamed and then stopped: the
// buffer is full and each producer is blocked handing over a chunk. It
// returns the cursor and how many chunks the sources handed out.
func stalledUnion(t *testing.T, ctx context.Context) (tab.Cursor, int64) {
	t.Helper()
	l, r := &endlessSource{name: "left"}, &endlessSource{name: "right"}
	actx := algebra.NewContext()
	actx.Sources["left"], actx.Sources["right"] = l, r
	leaf := func(source string) algebra.Op {
		return &algebra.SourceQuery{Source: source,
			Plan: &algebra.Bind{Doc: "pit", F: filter.MustParse(`pit@$x`)}}
	}
	cur, err := exec.New(exec.Options{Parallelism: 2}).
		Stream(ctx, &algebra.Union{L: leaf("left"), R: leaf("right")}, actx)
	if err != nil {
		t.Fatal(err)
	}
	last, deadline := int64(-1), time.Now().Add(5*time.Second)
	for {
		time.Sleep(50 * time.Millisecond)
		n := l.sent.Load() + r.sent.Load()
		if n == last && l.sent.Load() > 0 && r.sent.Load() > 0 {
			return cur, n
		}
		if time.Now().After(deadline) {
			cur.Close()
			t.Fatalf("the union never stalled on a consumer that reads nothing: %d then %d chunks handed out", last, n)
		}
		last = n
	}
}

func TestCancelledParallelUnionNeverPassesForComplete(t *testing.T) {
	t.Run("cancel", func(t *testing.T) {
		// Cancelled while both producers wait on a full buffer, the union
		// may still hand over what it holds, but must then end with the
		// cancellation: io.EOF would pass a truncated answer for complete.
		leakcheck.Arm(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cur, stalled := stalledUnion(t, ctx)
		defer cur.Close()
		cancel()
		for n := int64(0); ; n++ {
			_, err := cur.Next()
			if err == nil {
				if n >= stalled {
					t.Fatalf("read %d chunks after the cancel, but only %d were ever produced", n+1, stalled)
				}
				continue
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled union ended with %v after %d chunks, want context.Canceled", err, n)
			}
			break
		}
	})
	t.Run("close", func(t *testing.T) {
		// Closed while both producers are blocked sending: Close returns
		// at once and no producer outlives it.
		leakcheck.Arm(t)
		cur, _ := stalledUnion(t, context.Background())
		closed := make(chan struct{})
		go func() {
			cur.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(2 * time.Second):
			t.Fatal("Close did not return while the union's producers were blocked sending")
		}
	})
}
