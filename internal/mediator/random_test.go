package mediator

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/o2"
)

// randomArtworkQueries generates a deterministic family of n YAT_L queries
// over the integrated artworks view — random field subsets, random
// predicates, with and without optional-field navigation. The family is
// shared by the optimizer's semantics-preservation test and the parallel
// engine's determinism test.
func randomArtworkQueries(n int) []string {
	fields := []struct{ name, v string }{
		{"title", "$t"}, {"artist", "$a"}, {"year", "$y"},
		{"price", "$p"}, {"style", "$s"}, {"size", "$si"},
	}
	preds := []string{
		`$s = "Impressionist"`,
		`$s != "Realist"`,
		`$p < 200000`,
		`$p >= 50000`,
		`$y > 1850`,
		`$a = "Claude Monet"`,
		`$cl = "Giverny"`,
		`contains($w, "Oil")`,
		``,
	}
	seed := uint64(12345)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(n))
	}
	var queries []string
	for i := 0; i < n; i++ {
		// choose 1-4 fields, always including those the predicate needs
		nf := 1 + next(4)
		chosen := map[int]bool{}
		for len(chosen) < nf {
			chosen[next(len(fields))] = true
		}
		pred := preds[next(len(preds))]
		items := []string{}
		vars := map[string]bool{}
		for fi := range chosen {
			items = append(items, fields[fi].name+": "+fields[fi].v)
			vars[fields[fi].v] = true
		}
		// predicates referencing unbound vars force the needed bindings
		if strings.Contains(pred, "$s") && !vars["$s"] {
			items = append(items, "style: $s")
		}
		if strings.Contains(pred, "$p") && !vars["$p"] {
			items = append(items, "price: $p")
		}
		if strings.Contains(pred, "$y") && !vars["$y"] {
			items = append(items, "year: $y")
		}
		if strings.Contains(pred, "$a") && !vars["$a"] {
			items = append(items, "artist: $a")
		}
		if strings.Contains(pred, "$cl") {
			items = append(items, "more.cplace: $cl")
		}
		workFilter := "work[ " + strings.Join(items, ", ") + " ]"
		if strings.Contains(pred, "$w") {
			workFilter = "work@$w[ " + strings.Join(items, ", ") + " ]"
		}
		where := ""
		if pred != "" {
			where = "WHERE " + pred
		}
		// One result tree per distinct binding: row order is irrelevant
		// (group-instance order inside a single tree is plan-dependent).
		query := fmt.Sprintf(`MAKE f: $t0
MATCH artworks WITH doc[ *%s ] %s`, workFilter, where)
		// The MAKE references $t0; bind the first chosen field under it.
		query = strings.Replace(query, "$t0", fields[firstKey(chosen)].v, -1)
		queries = append(queries, query)
	}
	return queries
}

// TestRandomQueriesNaiveVsOptimized checks that for every generated query
// the optimized evaluation returns exactly the rows of the naive strategy.
// This is the optimizer's end-to-end semantics-preservation property.
func TestRandomQueriesNaiveVsOptimized(t *testing.T) {
	w := datagen.Generate(datagen.DefaultParams(120))
	m, _, _ := setup(t, w.DB, w.Works)
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")

	queries := randomArtworkQueries(40)
	for i, query := range queries {
		naive, err := queryNaive(m, query)
		if err != nil {
			t.Fatalf("query %d (naive): %v\n%s", i, err, query)
		}
		opt, err := m.Query(query)
		if err != nil {
			t.Fatalf("query %d (optimized): %v\n%s", i, err, query)
		}
		if !naive.Tab.EqualUnordered(opt.Tab) {
			t.Errorf("query %d: naive %d rows, optimized %d rows\n%s\nplan:\n%s",
				i, naive.Tab.Len(), opt.Tab.Len(), query, opt.Plan)
		}
	}
	if len(queries) != 40 {
		t.Fatalf("generated %d queries", len(queries))
	}
}

func firstKey(m map[int]bool) int {
	min := -1
	for k := range m {
		if min < 0 || k < min {
			min = k
		}
	}
	return min
}

func o2Tuple(name string, auction float64) o2.Val {
	return o2.Tuple([]string{"name", "auction"}, o2.Str(name), o2.Float(auction))
}
