package mediator

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/optimizer"
	"repro/internal/tab"
)

// The differential table: every query below was run at the commit that still
// had three evaluators, and its rows and full Stats were checked in as
// testdata/differential_golden.json — the optimized variants and the union
// through StreamContext/StreamPlan, the naive variants through that commit's
// materialized walker, because its stream path split a grouping Tree per
// chunk and matched a streamed document before its referenced objects had
// arrived (27 of Q1's 30 rows on this deployment). The test holds the one
// remaining engine to that record across {naive, optimized} × Parallelism
// {1, 4} × BatchChunk {1, default}: rows byte-identical in order when serial,
// bag-equal when parallel (Union interleaves), naive ≡ optimized as bags, and
// Stats identical field for field at the default BatchChunk.

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/differential_golden.json from this build instead of checking against it")

const (
	differentialN    = 500
	differentialFile = "differential_golden.json"
)

// diffQuery is one row of the table: a query text, run naive and optimized,
// or a hand-built plan for shapes the query languages cannot express (Union),
// run as it stands — the optimizer's rewrites assume the projection a
// translated query always carries.
type diffQuery struct {
	name string
	src  string
	plan func() algebra.Op
}

func (q diffQuery) variants() []string {
	if q.plan != nil {
		return []string{"plan"}
	}
	return []string{"naive", "optimized"}
}

var diffQueries = []diffQuery{
	{name: "Q1", src: datagen.Q1Src},
	{name: "Q2", src: datagen.Q2Src},
	{name: "Q1-xquery", src: datagen.Q1XQuerySrc},
	{name: "Q2-xquery", src: datagen.Q2XQuerySrc},
	// The nodes route: axis predicates pushed to the wrapper, which answers
	// them through nodetab.Eval.
	{name: "descendant-xquery", src: `doc("works")/works//technique`},
	{name: "union3", plan: threeFamilyUnion},
}

// goldenEntry records one (query, variant): rows in serial order and the
// Stats at the default BatchChunk keyed by Parallelism.
type goldenEntry struct {
	Rows  []string                 `json:"rows"`
	Stats map[string]algebra.Stats `json:"stats"`
}

func rowStrings(t *tab.Tab) []string {
	out := make([]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		parts := make([]string, len(r))
		for i, c := range r {
			parts[i] = c.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func sortedCopy(rows []string) []string {
	out := append([]string(nil), rows...)
	sort.Strings(out)
	return out
}

// runDiff executes one cell of the table. The optimized variant of a query
// text goes through StreamContext — the entry point the front door and the
// benchmark use; everything else is Compose/Optimize + StreamPlan.
func runDiff(t *testing.T, m *Mediator, q diffQuery, variant string, opts ExecOptions) ([]string, algebra.Stats) {
	t.Helper()
	var s *Stream
	var err error
	if q.src != "" && variant == "optimized" {
		s, err = m.StreamContext(context.Background(), q.src, opts)
	} else {
		var plan algebra.Op
		if q.src != "" {
			plan, err = m.Compose(q.src)
		} else {
			plan = q.plan()
		}
		if err == nil && variant == "optimized" {
			plan, err = optimizer.New(m.OptimizerOptions()).OptimizeChecked(plan)
		}
		if err == nil {
			s, err = m.StreamPlan(context.Background(), plan, opts)
		}
	}
	if err != nil {
		t.Fatalf("%s/%s %+v: %v", q.name, variant, opts, err)
	}
	rows, res := drainStream(t, s)
	return rowStrings(rows), res.Stats
}

func TestDifferentialGolden(t *testing.T) {
	m, _ := deployThreeFamilies(t, differentialN)
	if err := m.LoadProgram(datagen.View1Src); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", differentialFile)

	if *updateGolden {
		golden := map[string]goldenEntry{}
		for _, q := range diffQueries {
			for _, variant := range q.variants() {
				e := goldenEntry{Stats: map[string]algebra.Stats{}}
				for _, par := range []int{1, 4} {
					rows, stats := runDiff(t, m, q, variant, ExecOptions{Parallelism: par})
					if par == 1 {
						e.Rows = rows
					} else if !reflect.DeepEqual(sortedCopy(rows), sortedCopy(e.Rows)) {
						t.Fatalf("%s/%s: parallel rows are not the serial bag", q.name, variant)
					}
					e.Stats[strconv.Itoa(par)] = stats
				}
				if len(e.Rows) == 0 {
					t.Fatalf("%s/%s: no rows; the record would be vacuous", q.name, variant)
				}
				golden[q.name+"/"+variant] = e
			}
		}
		buf, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]goldenEntry{}
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatal(err)
	}
	for _, q := range diffQueries {
		for _, variant := range q.variants() {
			want, ok := golden[q.name+"/"+variant]
			if !ok {
				t.Fatalf("golden has no entry %s/%s", q.name, variant)
			}
			if !reflect.DeepEqual(sortedCopy(want.Rows), sortedCopy(golden[q.name+"/"+q.variants()[0]].Rows)) {
				t.Errorf("%s: golden %s rows are not the %s bag", q.name, variant, q.variants()[0])
			}
			for _, par := range []int{1, 4} {
				for _, chunk := range []int{1, algebra.DefaultBatchChunk} {
					name := fmt.Sprintf("%s/%s/par%d/chunk%d", q.name, variant, par, chunk)
					rows, stats := runDiff(t, m, q, variant, ExecOptions{Parallelism: par, BatchChunk: chunk})
					if par == 1 {
						if !reflect.DeepEqual(rows, want.Rows) {
							t.Errorf("%s: serial rows differ from the golden (got %d, want %d rows)", name, len(rows), len(want.Rows))
						}
					} else if !reflect.DeepEqual(sortedCopy(rows), sortedCopy(want.Rows)) {
						t.Errorf("%s: parallel rows are not the golden bag (got %d, want %d rows)", name, len(rows), len(want.Rows))
					}
					if chunk == algebra.DefaultBatchChunk && stats != want.Stats[strconv.Itoa(par)] {
						t.Errorf("%s: stats = %+v, golden %+v", name, stats, want.Stats[strconv.Itoa(par)])
					}
				}
			}
		}
	}
}
