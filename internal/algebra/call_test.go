package algebra

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/tab"
)

// The ladder's fakes: plain implements Source alone and every further type
// embeds the one below it and adds one optional interface. Each method logs
// its name (and whether the test's context reached it), so a test reads off
// which rung was taken.
type ctxKey struct{}

type plainSrc struct{ log *[]string }

func (s plainSrc) note(ctx context.Context, method string) {
	if ctx != nil && ctx.Value(ctxKey{}) != nil {
		method += "+ctx"
	}
	*s.log = append(*s.log, method)
}

func (s plainSrc) forest() data.Forest {
	f := make(data.Forest, 300)
	for i := range f {
		f[i] = data.Text("n", fmt.Sprint(i))
	}
	return f
}

// rows answers a push with 200 rows echoing the binding of $x.
func (s plainSrc) rows(params map[string]tab.Cell) *tab.Tab {
	t := tab.New("$x", "$i")
	for i := 0; i < 200; i++ {
		t.Add(params["$x"], tab.AtomCell(data.Int(int64(i))))
	}
	return t
}

func (s plainSrc) Name() string        { return "fake" }
func (s plainSrc) Documents() []string { return []string{"doc"} }

func (s plainSrc) Fetch(string) (data.Forest, error) {
	s.note(nil, "Fetch")
	return s.forest(), nil
}

func (s plainSrc) Push(_ Op, params map[string]tab.Cell) (*tab.Tab, error) {
	s.note(nil, "Push")
	return s.rows(params), nil
}

type streamSrc struct{ plainSrc }

func (s streamSrc) FetchStream(ctx context.Context, _ string) (ForestCursor, error) {
	s.note(ctx, "FetchStream")
	cur := NewSliceForestCursor(s.forest(), 7)
	return &funcForestCursor{next: cur.Next, close: func() error { s.note(nil, "FetchStream.Close"); return nil }}, nil
}

type pushStreamSrc struct{ streamSrc }

func (s pushStreamSrc) PushStream(ctx context.Context, _ Op, params map[string]tab.Cell) (tab.Cursor, error) {
	s.note(ctx, "PushStream")
	cur := tab.NewSliceCursor(s.rows(params), 7)
	return &tab.FuncCursor{Columns: cur.Cols(), NextFn: cur.Next,
		CloseFn: func() error { s.note(nil, "PushStream.Close"); return nil }}, nil
}

type batchSrc struct{ pushStreamSrc }

func (s batchSrc) PushBatch(Op, []map[string]tab.Cell) ([]*tab.Tab, error) {
	s.note(nil, "PushBatch")
	return nil, fmt.Errorf("the ladder calls PushBatchContext")
}

func (s batchSrc) PushBatchContext(ctx context.Context, _ Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	s.note(ctx, "PushBatchContext")
	out := make([]*tab.Tab, len(bindings))
	for i, b := range bindings {
		out[i] = s.rows(b)
	}
	return out, nil
}

func TestCallLadderTakesTheMostCapableRung(t *testing.T) {
	ctx := context.WithValue(context.Background(), ctxKey{}, true)
	bindings := []map[string]tab.Cell{
		{"$x": tab.AtomCell(data.String("a"))},
		{"$x": tab.AtomCell(data.String("b"))},
		{"$x": tab.AtomCell(data.String("c"))},
	}
	var wantForest data.Forest
	var wantRows *tab.Tab
	var wantBatch []*tab.Tab
	for _, tc := range []struct {
		name               string
		mk                 func(plainSrc) Source
		fetch, push, batch string // the calls each ladder function must make, in order
	}{
		{"plain", func(p plainSrc) Source { return p },
			"Fetch", "Push", "Push Push Push"},
		{"+Stream", func(p plainSrc) Source { return streamSrc{p} },
			"FetchStream+ctx FetchStream.Close", "Push", "Push Push Push"},
		{"+PushStream", func(p plainSrc) Source { return pushStreamSrc{streamSrc{p}} },
			"FetchStream+ctx FetchStream.Close", "PushStream+ctx PushStream.Close", "Push Push Push"},
		{"+Batch", func(p plainSrc) Source { return batchSrc{pushStreamSrc{streamSrc{p}}} },
			"FetchStream+ctx FetchStream.Close", "PushStream+ctx PushStream.Close", "PushBatchContext+ctx"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log []string
			src := tc.mk(plainSrc{log: &log})
			calls := func() string {
				s := strings.Join(log, " ")
				log = nil
				return s
			}

			fc, err := FetchStream(ctx, src, "doc")
			if err != nil {
				t.Fatal(err)
			}
			first, err := fc.Next()
			if err != nil || len(first) == 0 {
				t.Fatalf("first batch: %d trees, %v", len(first), err)
			}
			rest, err := DrainForest(fc) // closes the cursor
			if err != nil {
				t.Fatal(err)
			}
			forest := append(first, rest...)
			if got := calls(); got != tc.fetch {
				t.Errorf("FetchStream called %q, want %q", got, tc.fetch)
			}

			pc, err := PushStream(ctx, src, nil, bindings[0])
			if err != nil {
				t.Fatal(err)
			}
			rows, err := tab.Drain(pc)
			if err != nil {
				t.Fatal(err)
			}
			if got := calls(); got != tc.push {
				t.Errorf("PushStream called %q, want %q", got, tc.push)
			}

			batch, err := PushBatch(ctx, src, nil, bindings)
			if err != nil {
				t.Fatal(err)
			}
			if got := calls(); got != tc.batch {
				t.Errorf("PushBatch called %q, want %q", got, tc.batch)
			}

			if wantForest == nil {
				wantForest, wantRows, wantBatch = forest, rows, batch
				if len(forest) != 300 || rows.Len() != 200 || len(batch) != len(bindings) {
					t.Fatalf("plain source: %d trees, %d rows, %d batch results", len(forest), rows.Len(), len(batch))
				}
				return
			}
			if !reflect.DeepEqual(forest, wantForest) {
				t.Errorf("trees differ from the plain source's")
			}
			if !rows.Equal(wantRows) {
				t.Errorf("rows differ from the plain source's")
			}
			for i := range wantBatch {
				if !batch[i].Equal(wantBatch[i]) {
					t.Errorf("batch result %d differs from the plain source's", i)
				}
			}
		})
	}
}

func TestCallLadderNilContextIsBackground(t *testing.T) {
	var log []string
	src := batchSrc{pushStreamSrc{streamSrc{plainSrc{log: &log}}}}
	var nilCtx context.Context
	if _, err := FetchStream(nilCtx, src, "doc"); err != nil {
		t.Fatal(err)
	}
	if _, err := PushStream(nilCtx, src, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := PushBatch(nilCtx, src, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(log, " "); got != "FetchStream PushStream PushBatchContext" {
		t.Errorf("calls under a nil context: %q", got)
	}
}

// shortBatch answers a batch with one result too few.
type shortBatch struct{ batchSrc }

func (s shortBatch) PushBatchContext(ctx context.Context, plan Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	out, err := s.batchSrc.PushBatchContext(ctx, plan, bindings)
	return out[1:], err
}

func TestPushBatchRefusesAMiscountedAnswer(t *testing.T) {
	var log []string
	src := shortBatch{batchSrc{pushStreamSrc{streamSrc{plainSrc{log: &log}}}}}
	_, err := PushBatch(context.Background(), src, nil, []map[string]tab.Cell{{}, {}})
	if err == nil || !strings.Contains(err.Error(), "1 results for 2 bindings") {
		t.Fatalf("PushBatch over a short answer = %v, want a count mismatch", err)
	}
}

// failingSrc answers a push by binding $x: "cancel" cancels the caller's
// context before answering, "fail" fails.
type failingSrc struct {
	plainSrc
	cancel context.CancelFunc
}

func (s failingSrc) Push(plan Op, params map[string]tab.Cell) (*tab.Tab, error) {
	switch params["$x"].Atom.S {
	case "cancel":
		s.cancel()
	case "fail":
		return nil, fmt.Errorf("no such row")
	}
	return s.plainSrc.Push(plan, params)
}

func TestPushBatchFallbackStopsAndNamesTheBinding(t *testing.T) {
	x := func(v string) map[string]tab.Cell { return map[string]tab.Cell{"$x": tab.AtomCell(data.String(v))} }
	var log []string
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := failingSrc{plainSrc{log: &log}, cancel}

	// A context cancelled between bindings stops the loop before the next
	// push.
	_, err := PushBatch(ctx, src, nil, []map[string]tab.Cell{x("a"), x("cancel"), x("b"), x("c")})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled between bindings: err = %v, want context.Canceled", err)
	}
	if got := strings.Join(log, " "); got != "Push Push" {
		t.Errorf("cancelled between bindings: calls %q, want two pushes", got)
	}

	// A failing push is named by its binding's index.
	log = nil
	_, err = PushBatch(context.Background(), src, nil, []map[string]tab.Cell{x("a"), x("b"), x("fail"), x("c")})
	if err == nil || err.Error() != "binding 2: no such row" {
		t.Fatalf("failing binding: err = %v, want binding 2: no such row", err)
	}
	if got := strings.Join(log, " "); got != "Push Push" {
		t.Errorf("failing binding: calls %q, want the two pushes before it", got)
	}
}
