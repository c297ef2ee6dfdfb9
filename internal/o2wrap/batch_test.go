package o2wrap

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/filter"
	"repro/internal/route"
	"repro/internal/tab"
	"repro/internal/wire"
)

// batchPlans are pushed plans with free variables: what a DJoin hands the
// wrapper together with a set of bindings.
var batchPlans = []struct {
	name string
	plan algebra.Op
}{
	{"Fig. 9: creator/title passed, dependent range over owners", &algebra.Select{
		From: &algebra.Bind{Doc: "artifacts", F: filter.MustParse(view1ArtifactsFilter)},
		Pred: algebra.MustParseExpr(`$y > 1800 AND $p < 200000 AND $c = $pa AND $t = $pt`),
	}},
	{"two-extent join: R2 in persons", &algebra.Select{
		From: &algebra.Join{
			L: &algebra.Bind{Doc: "artifacts",
				F: filter.MustParse(`set[ *class[ artifact.tuple[ title: $t, creator: $c, price: $p ] ] ]`)},
			R: &algebra.Bind{Doc: "persons",
				F: filter.MustParse(`set[ *class[ person.tuple[ name: $n, auction: $au ] ] ]`)},
			Pred: algebra.MustParseExpr(`$au < $p`),
		},
		Pred: algebra.MustParseExpr(`$t = $pt AND $au < 300000`),
	}},
	{"method predicate, object and collection cells", &algebra.Project{
		From: &algebra.Select{
			From: &algebra.Bind{Doc: "artifacts",
				F: filter.MustParse(`set[ *class@$art[ artifact.tuple[ title: $t, creator: $c, year@$yf, owners@$ow ] ] ]`)},
			Pred: algebra.MustParseExpr(`current_price($art) > 300000 AND $c = $pa`),
		},
		Cols: []string{"title=$t", "$art", "$yf", "$ow"},
	}},
}

// batchWrapper is a wrapper over a generated trading database, with the
// (creator, title) pairs of its artifacts to draw bindings from.
func batchWrapper() (*Wrapper, [][2]string) {
	w := New("o2artifact", datagen.Generate(datagen.DefaultParams(150)).DB)
	var pairs [][2]string
	for _, oid := range w.DB.Extents["artifacts"] {
		v := w.DB.Get(oid).Value
		pairs = append(pairs, [2]string{v.Fields["creator"].S, v.Fields["title"].S})
	}
	return w, pairs
}

// randomBindings draws n binding sets: existing pairs (so duplicates occur),
// pairs that match nothing, and a column the plans never mention whose cell
// could not cross into OQL.
func randomBindings(r *rand.Rand, pairs [][2]string, n int) []map[string]tab.Cell {
	out := make([]map[string]tab.Cell, n)
	for i := range out {
		p := pairs[r.Intn(len(pairs)/4)]
		switch r.Intn(4) {
		case 0:
			p[1] = "No Such Painting"
		case 1:
			p[0] = `Nobody "quoted" \ O'Neil`
		}
		out[i] = map[string]tab.Cell{
			"$pa":     tab.AtomCell(data.String(p[0])),
			"$pt":     tab.AtomCell(data.String(p[1])),
			"$unused": tab.SeqCell(nil),
		}
	}
	return out
}

// perBinding is the reference: one Push per binding set.
func perBinding(t *testing.T, src algebra.Source, plan algebra.Op, bs []map[string]tab.Cell) []*tab.Tab {
	t.Helper()
	out := make([]*tab.Tab, len(bs))
	for i, b := range bs {
		var err error
		if out[i], err = src.Push(plan, b); err != nil {
			t.Fatalf("Push(binding %d): %v", i, err)
		}
	}
	return out
}

func sameTabs(t *testing.T, what string, got, want []*tab.Tab) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results for %d bindings", what, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("%s: binding %d:\n%s\nper binding:\n%s", what, i, got[i], want[i])
		}
	}
}

func TestPushBatchEqualsPerBinding(t *testing.T) {
	w, pairs := batchWrapper()
	r := rand.New(rand.NewSource(19))
	for _, c := range batchPlans {
		rows := 0
		for _, n := range []int{0, 1, 2, 7, 64, 150} {
			bs := randomBindings(r, pairs, n)
			want := perBinding(t, w, c.plan, bs)
			before := w.DB.QueriesRun
			got, err := w.PushBatch(c.plan, bs)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			// One query answers the batch, however many bindings it holds;
			// no binding, no query.
			if ran, wantRan := w.DB.QueriesRun-before, min(n, 1); ran != wantRan {
				t.Errorf("%s: %d bindings ran %d queries, want %d", c.name, n, ran, wantRan)
			}
			sameTabs(t, fmt.Sprintf("%s, %d bindings", c.name, n), got, want)
			for _, tb := range got {
				rows += tb.Len()
			}
			if n > 0 && !strings.Contains(w.LastOQL, "from B in bag(tuple(i: 0, p0: ") {
				t.Errorf("%s: OQL lacks the binding range:\n%s", c.name, w.LastOQL)
			}
		}
		if rows == 0 {
			t.Errorf("%s: no binding matched anything; the comparison is vacuous", c.name)
		}
	}
}

func TestPushBatchWithoutFreeVariables(t *testing.T) {
	// Bindings a plan does not look at still get one result each; a single
	// binding set needs no binding range at all.
	w := wrapper()
	plan := section41Plan()
	want, err := w.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(w.LastOQL, bindVar+" in ") {
		t.Errorf("binding range without bindings:\n%s", w.LastOQL)
	}
	got, err := w.PushBatch(plan, make([]map[string]tab.Cell, 3))
	if err != nil {
		t.Fatal(err)
	}
	sameTabs(t, "no free variables", got, []*tab.Tab{want, want, want})
}

func TestPushBatchNamesTheFailingBinding(t *testing.T) {
	w, pairs := batchWrapper()
	plan := batchPlans[0].plan
	bs := randomBindings(rand.New(rand.NewSource(1)), pairs, 5)
	before := w.DB.QueriesRun
	bs[3]["$pt"] = tab.SeqCell(nil)
	if _, err := w.PushBatch(plan, bs); err == nil || !strings.HasPrefix(err.Error(), "binding 3: ") ||
		!strings.Contains(err.Error(), "non-atomic") {
		t.Errorf("non-atomic parameter: err = %v", err)
	}
	delete(bs[3], "$pt")
	if _, err := w.PushBatch(plan, bs); err == nil || !strings.HasPrefix(err.Error(), "binding 3: ") ||
		!strings.Contains(err.Error(), "unbound variable $pt") {
		t.Errorf("unbound variable: err = %v", err)
	}
	if w.DB.QueriesRun != before {
		t.Error("a failing batch must not reach the database")
	}
	// Push is the same path and names no binding.
	if _, err := w.Push(plan, bs[3]); err == nil || strings.Contains(err.Error(), "binding") {
		t.Errorf("Push: err = %v", err)
	}
	// Cancellation is checked before the one query runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.PushBatchContext(ctx, plan, bs[:3]); err != context.Canceled {
		t.Errorf("cancelled batch: err = %v", err)
	}
	if w.DB.QueriesRun != before {
		t.Error("a cancelled batch must not reach the database")
	}
}

// serveWrapper exports w on a loopback port and dials it.
func serveWrapper(t *testing.T, w *Wrapper) *wire.Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.Serve(ln, wire.Exported{Source: w, Interface: w.ExportInterface()})
	t.Cleanup(srv.Close)
	c, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPushBatchLadderOverWireAndRoute(t *testing.T) {
	// The same equivalence where the mediator stands: through
	// algebra.PushBatch at a wire client and at a replica route, and through
	// the engine's DJoin (chunked, fanned out) at Parallelism 1 and 4.
	w, pairs := batchWrapper()
	client := serveWrapper(t, w)
	routed, err := route.New(w.Name(), []algebra.Source{serveWrapper(t, w), serveWrapper(t, w)}, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	for _, c := range batchPlans {
		bs := randomBindings(r, pairs, 100)
		for i := range bs {
			delete(bs[i], "$unused") // a sequence cell is a column the DJoin's left side cannot print
		}
		left := tab.New("$pa", "$pt")
		for _, b := range bs {
			left.Add(b["$pa"], b["$pt"])
		}
		for name, src := range map[string]algebra.Source{"wire": client, "route": routed} {
			// The reference crosses the same transport: XML does not carry
			// the atom types inside a shipped object tree.
			want := perBinding(t, src, c.plan, bs)
			joined := tab.New(append([]string{"$pa", "$pt"}, c.plan.Columns()...)...)
			for i, b := range bs {
				for _, row := range want[i].Rows {
					joined.AddRow(append(tab.Row{b["$pa"], b["$pt"]}, row...))
				}
			}
			before := w.DB.QueriesRun
			got, err := algebra.PushBatch(context.Background(), src, c.plan, bs)
			if err != nil {
				t.Fatalf("%s over %s: %v", c.name, name, err)
			}
			if ran := w.DB.QueriesRun - before; ran != 1 {
				t.Errorf("%s over %s: %d queries for one batch", c.name, name, ran)
			}
			sameTabs(t, c.name+" over "+name, got, want)
			for _, par := range []int{1, 4} {
				actx := algebra.NewContext()
				actx.Sources[w.Name()] = src
				plan := &algebra.DJoin{L: &algebra.Literal{T: left}, R: &algebra.SourceQuery{Source: w.Name(), Plan: c.plan}}
				before := w.DB.QueriesRun
				res, err := exec.New(exec.Options{Parallelism: par, BatchChunk: 16}).Run(context.Background(), plan, actx)
				if err != nil {
					t.Fatalf("%s over %s, parallelism %d: %v", c.name, name, par, err)
				}
				if !res.Equal(joined) {
					t.Errorf("%s over %s, parallelism %d: DJoin\n%s\nper binding\n%s", c.name, name, par, res, joined)
				}
				if ran := w.DB.QueriesRun - before; ran > (len(bs)+15)/16 {
					t.Errorf("%s over %s, parallelism %d: %d queries for %d bindings in chunks of 16",
						c.name, name, par, ran, len(bs))
				}
			}
		}
	}
}
