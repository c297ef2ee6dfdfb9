package filter_test

import (
	"testing"

	yat "repro"
	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/filter"
	"repro/internal/o2wrap"
	"repro/internal/tab"
	"repro/internal/waiswrap"
)

// workloadFilters are the Bind filters of the benchmark's workloads: the
// three whole-document fetches of union3_ship and feed_ingest_lookup's
// lookups. Q1's and Q2's are read from their plans below.
var workloadFilters = []string{
	`set[ *class[ artifact.tuple[ title: $t ] ] ]`,
	`works[ *work[ title: $t ] ]`,
	`records[ *record[ title: $t ] ]`,
	`records[ *record[ id: $id, title: $t ] ]`,
	`records[ *record[ issn: $issn, title: $t ] ]`,
}

// planFilters returns the filter of every Bind in plan, pushed subplans
// included.
func planFilters(plan algebra.Op) []*filter.Filter {
	var out []*filter.Filter
	algebra.Walk(plan, func(op algebra.Op) bool {
		// yat-lint:ignore intentionally partial: only a Bind holds a filter, only a SourceQuery hides a subplan
		switch x := op.(type) {
		case *algebra.Bind:
			out = append(out, x.F)
		case *algebra.SourceQuery:
			out = append(out, planFilters(x.Plan)...)
		}
		return true
	})
	return out
}

// corpus is one generated document with the store resolving its references.
type corpus struct {
	name   string
	forest data.Forest
	store  *data.Store
}

// subtrees returns every node of the forest, each as a forest of its own: a
// Bind over a column matches trees that some other Bind cut out of a
// document.
func subtrees(forest data.Forest) data.Forest {
	var out data.Forest
	for _, n := range forest {
		n.Walk(func(m *data.Node) bool {
			out = append(out, m)
			return true
		})
	}
	return out
}

// TestWorkloadFiltersAgreeWithOracle matches the workloads' filters and
// every filter of Q1's and Q2's plans, naive and optimized, over generated
// corpora: the artifacts and persons extents as o2wrap exports them, the
// works, the feed records and the materialized artworks view, whole and
// subtree by subtree.
func TestWorkloadFiltersAgreeWithOracle(t *testing.T) {
	p := datagen.DefaultParams(40)
	p.Seed = 7
	w := datagen.Generate(p)
	m, ow, ww, err := yat.NewCulturalMediator(w.DB, w.Works)
	if err != nil {
		t.Fatal(err)
	}
	var filters []*filter.Filter
	for _, src := range workloadFilters {
		filters = append(filters, filter.MustParse(src))
	}
	for _, q := range []string{datagen.Q1Src, datagen.Q2Src} {
		plan, err := m.Compose(q)
		if err != nil {
			t.Fatal(err)
		}
		filters = append(filters, planFilters(plan)...)
		filters = append(filters, planFilters(m.Optimize(plan))...)
	}

	objects := data.NewStore()
	var corpora []corpus
	for _, doc := range []string{"artifacts", "persons"} {
		f, err := ow.Fetch(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range f {
			objects.Register(n, nil)
		}
		corpora = append(corpora, corpus{doc, f, objects})
	}
	works, err := ww.Fetch("works")
	if err != nil {
		t.Fatal(err)
	}
	corpora = append(corpora, corpus{"works", works, nil})
	records, err := feed.New("feed", datagen.NewFeedStore(datagen.GenerateFeed(datagen.DefaultFeedParams(60)))).Fetch("records")
	if err != nil {
		t.Fatal(err)
	}
	corpora = append(corpora, corpus{"records", records, nil})
	views, store, err := m.MaterializeProgram()
	if err != nil {
		t.Fatal(err)
	}
	corpora = append(corpora, corpus{"artworks", views["artworks"], store})

	rows := make([]int, len(filters))
	for _, c := range corpora {
		if len(c.forest) == 0 {
			t.Fatalf("corpus %s is empty", c.name)
		}
		all := subtrees(c.forest)
		for i, f := range filters {
			filter.AgreesWithOracle(t, f, c.store, c.forest)
			filter.AgreesWithOracle(t, f, c.store, all)
			for _, n := range all {
				rows[i] += f.Match(c.store, n).Len()
			}
		}
	}
	// Every filter binds somewhere, or its agreement says nothing.
	for i, f := range filters {
		if rows[i] == 0 {
			t.Errorf("%s binds no row over any corpus", f)
		}
	}
	t.Logf("%d filters over %d corpora, %v rows", len(filters), len(corpora), rows)
}

// TestMatchAllocs holds a Bind's matching to a count of allocations that
// does not grow with its rows: one Matcher over a document, its arenas
// doubling to the size of one tree's bindings, one slab of cells for the
// tree's rows and the row list growing. Each bound is the count measured
// when it was set; `make allocs` runs it without the race detector too.
func TestMatchAllocs(t *testing.T) {
	w := datagen.Generate(datagen.DefaultParams(5000))
	works, err := waiswrap.New("xmlartwork", datagen.NewWaisEngine(w.Works)).Fetch("works")
	if err != nil {
		t.Fatal(err)
	}
	artifacts, err := o2wrap.New("o2artifact", w.DB).Fetch("artifacts")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		src    string
		forest data.Forest
		rows   int
		max    float64
	}{
		// measured: 53 for 2,648 rows, 54 under the race detector (26,513
		// with a binding environment, a content node and a child list per
		// match)
		{`works[ *work[ title: $t ] ]`, works, 2648, 54},
		// measured: 59 for 5,000 rows, 60 under the race detector (80,038)
		{`set[ *class[ artifact.tuple[ title: $t ] ] ]`, artifacts, 5000, 60},
	} {
		f := filter.MustParse(c.src)
		var rows []tab.Row
		n := testing.AllocsPerRun(5, func() {
			m := f.Matcher(nil)
			rows = rows[:0:0]
			for _, tree := range c.forest {
				rows = m.Append(rows, nil, tree)
			}
		})
		if len(rows) != c.rows {
			t.Fatalf("%s: %d rows, want %d", c.src, len(rows), c.rows)
		}
		if n > c.max {
			t.Errorf("%s over %d rows: %v allocations, want at most %v", c.src, c.rows, n, c.max)
		}
	}
}
