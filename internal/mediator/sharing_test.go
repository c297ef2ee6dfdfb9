package mediator

import (
	"context"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/feed"
)

// TestQueriesLeaveStoredTreesUnchanged guards the convention that lets a
// wrapper hand out the trees it stores instead of copies, as the feed
// wrapper's Fetch does: no tree is changed once stored or shipped. Q1 (naive
// and optimized), Q2 (naive and optimized) and the three-family union
// (serial and parallel) run in-process, and afterwards every stored Wais
// document and feed record is still equal to a copy taken before.
func TestQueriesLeaveStoredTreesUnchanged(t *testing.T) {
	w := datagen.Generate(datagen.DefaultParams(threeFamilyN))
	m, _, ww := setup(t, w.DB, w.Works)
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")
	fw := feed.New("bulkfeed", datagen.NewFeedStore(datagen.GenerateFeed(datagen.DefaultFeedParams(threeFamilyN))))
	if err := m.Connect(fw, fw.ExportInterface()); err != nil {
		t.Fatal(err)
	}
	m.ImportStructure("records", fw.ExportStructure(), "Records")
	var stored, before data.Forest
	for i := range ww.E.Size() {
		stored = append(stored, ww.E.Doc(i))
	}
	for i := range fw.S.Len() {
		stored = append(stored, fw.S.Record(i))
	}
	for _, n := range stored {
		before = append(before, n.Clone())
	}

	for _, q := range []string{datagen.Q1Src, datagen.Q2Src} {
		if _, err := queryNaive(m, q); err != nil {
			t.Fatal(err)
		}
		if res, err := m.Query(q); err != nil || res.Tab.Len() == 0 {
			t.Fatalf("%s: %v, %v", q, res, err)
		}
	}
	for _, par := range []int{1, 4} {
		res, err := m.ExecutePlan(context.Background(), threeFamilyUnion(), ExecOptions{Parallelism: par})
		if err != nil || res.Tab.Len() == 0 {
			t.Fatalf("union, parallelism %d: %v, %v", par, res, err)
		}
	}

	for i, n := range stored {
		if !data.Equal(n, before[i]) {
			t.Errorf("stored tree %d changed by the queries:\n%s\nwas\n%s", i, n, before[i])
		}
	}
}
