package main

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/tab"
)

// plainSource implements algebra.Source and nothing else.
type plainSource struct{}

func (plainSource) Name() string                      { return "fake" }
func (plainSource) Documents() []string               { return []string{"d"} }
func (plainSource) Fetch(string) (data.Forest, error) { return data.Forest{data.Elem("d")}, nil }
func (plainSource) Push(algebra.Op, map[string]tab.Cell) (*tab.Tab, error) {
	return tab.New("$x").Add(tab.AtomCell(data.Int(1))), nil
}

type withBatch struct{}

func (withBatch) PushBatch(algebra.Op, []map[string]tab.Cell) ([]*tab.Tab, error) { return nil, nil }
func (withBatch) PushBatchContext(context.Context, algebra.Op, []map[string]tab.Cell) ([]*tab.Tab, error) {
	return nil, nil
}

type withFetchStream struct{}

func (withFetchStream) FetchStream(context.Context, string) (algebra.ForestCursor, error) {
	return algebra.NewSliceForestCursor(data.Forest{data.Elem("d")}, 1), nil
}

type withPushStream struct{}

func (withPushStream) PushStream(context.Context, algebra.Op, map[string]tab.Cell) (tab.Cursor, error) {
	return tab.NewSliceCursor(tab.New("$x"), 1), nil
}

// A decorator that hid an optional interface would silently send the
// mediator, the router or the wire server down a fallback path; one that
// invented one would make them call what the source does not have.
func TestDecorateExposesExactlyTheInnerOptionalInterfaces(t *testing.T) {
	inners := []algebra.Source{
		plainSource{},
		struct {
			plainSource
			withBatch
		}{},
		struct {
			plainSource
			withFetchStream
		}{},
		struct {
			plainSource
			withPushStream
		}{},
		struct {
			plainSource
			withBatch
			withFetchStream
		}{},
		struct {
			plainSource
			withBatch
			withPushStream
		}{},
		struct {
			plainSource
			withFetchStream
			withPushStream
		}{},
		struct {
			plainSource
			withBatch
			withFetchStream
			withPushStream
		}{},
	}
	shape := func(s algebra.Source) string {
		_, b := s.(algebra.BatchSource)
		_, f := s.(algebra.StreamSource)
		_, p := s.(algebra.PushStreamSource)
		return fmt.Sprintf("batch=%v fetchstream=%v pushstream=%v", b, f, p)
	}
	seen := map[string]bool{}
	for _, inner := range inners {
		rec := newRecorder()
		d := decorate(inner, rec, spanSource)
		if got, want := shape(d), shape(inner); got != want {
			t.Errorf("decorated source has %s, the source itself %s", got, want)
		}
		seen[shape(inner)] = true
		for _, always := range []bool{
			func() bool { _, ok := d.(algebra.ContextSource); return ok }(),
			func() bool { _, ok := d.(algebra.RetryReporter); return ok }(),
			func() bool { _, ok := d.(algebra.StateReporter); return ok }(),
		} {
			if !always {
				t.Errorf("decorated %s lacks an always-forwarded interface", shape(inner))
			}
		}
		// The context variants fall back to the plain calls and still record.
		if _, err := d.(algebra.ContextSource).FetchContext(context.Background(), "d"); err != nil {
			t.Error(err)
		}
		if _, err := d.Push(nil, nil); err != nil {
			t.Error(err)
		}
		if n := len(rec.snapshot()); n != 2 {
			t.Errorf("%d spans after two calls, want 2", n)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("covered %d of the 8 interface combinations", len(seen))
	}
}

// A streamed call is one span for the open and one per pull.
func TestTapRecordsStreamPulls(t *testing.T) {
	rec := newRecorder()
	d := decorate(struct {
		plainSource
		withFetchStream
	}{}, rec, spanWrapper)
	cur, err := d.(algebra.StreamSource).FetchStream(context.Background(), "d")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := cur.Next(); err != nil {
			break
		}
	}
	cur.Close()
	var verbs []string
	for _, s := range rec.snapshot() {
		if s.Name != spanWrapper {
			t.Errorf("span %q, want %q", s.Name, spanWrapper)
		}
		verbs = append(verbs, s.Attrs["verb"])
	}
	if want := "[fetchstream fetchstream.next fetchstream.next]"; fmt.Sprint(verbs) != want {
		t.Errorf("verbs %v, want %s", verbs, want)
	}
}
