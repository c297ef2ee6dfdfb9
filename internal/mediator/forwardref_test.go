package mediator

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/waiswrap"
)

// Forward references: an O₂ extent ships as one tree followed by the
// objects its references point at, so a document that arrives in more than
// one batch carries references whose targets have not arrived yet. The
// tests below serve every in-process source's documents one tree per
// batch, the finest a stream can be cut, and require the answers the whole
// documents give.

// oneTreeBatches serves its source's documents one tree per batch. It adds
// no option: every call but FetchStream is the base Source's.
type oneTreeBatches struct{ algebra.Source }

func (s oneTreeBatches) FetchStream(_ context.Context, doc string) (algebra.ForestCursor, error) {
	f, err := s.Fetch(doc)
	if err != nil {
		return nil, err
	}
	return algebra.NewSliceForestCursor(f, 1), nil
}

// deployOneTreeBatches connects the three wrapper families in-process, each
// behind oneTreeBatches.
func deployOneTreeBatches(t *testing.T, n int) *Mediator {
	t.Helper()
	m := New()
	for _, exp := range threeFamilies(n) {
		if err := m.Connect(oneTreeBatches{exp.Source}, exp.Interface); err != nil {
			t.Fatal(err)
		}
		for doc, ref := range exp.Structures {
			m.ImportStructure(doc, ref.Model, ref.Pattern)
		}
	}
	m.RegisterFunc("contains", waiswrap.Contains)
	m.RegisterFunc("prefix", feed.Prefix)
	return m
}

// TestFig7PlansAgreeOverOneTreeBatches: the DJoin split's parameter Bind
// chases the owner references of trees that arrived before the persons
// they point at; it must see them resolved, as the monolithic Bind does.
func TestFig7PlansAgreeOverOneTreeBatches(t *testing.T) {
	m := deployOneTreeBatches(t, 60)
	for _, par := range []int{1, 4} {
		var rows [3][]string
		for i, plan := range datagen.Fig7Plans() {
			s, err := m.StreamPlan(context.Background(), plan, ExecOptions{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			got, _ := drainStream(t, s)
			rows[i] = sortedCopy(rowStrings(got))
		}
		if len(rows[0]) == 0 {
			t.Fatal("empty fixture")
		}
		if !reflect.DeepEqual(rows[0], rows[1]) || !reflect.DeepEqual(rows[0], rows[2]) {
			t.Errorf("Parallelism %d: Figure 7 plans disagree over one-tree batches: %d / %d / %d rows",
				par, len(rows[0]), len(rows[1]), len(rows[2]))
		}
	}
}

// TestDifferentialOverOneTreeBatches: every query of the differential table
// returns its golden rows, as a bag, when each document arrives one tree
// per batch.
func TestDifferentialOverOneTreeBatches(t *testing.T) {
	m := deployOneTreeBatches(t, differentialN)
	if err := m.LoadProgram(datagen.View1Src); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join("testdata", differentialFile))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]goldenEntry{}
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatal(err)
	}
	for _, q := range diffQueries {
		for _, variant := range q.variants() {
			want := sortedCopy(golden[q.name+"/"+variant].Rows)
			for _, par := range []int{1, 4} {
				rows, _ := runDiff(t, m, q, variant, ExecOptions{Parallelism: par})
				if !reflect.DeepEqual(sortedCopy(rows), want) {
					t.Errorf("%s/%s/par%d: %d rows, golden %d", q.name, variant, par, len(rows), len(want))
				}
			}
		}
	}
}
