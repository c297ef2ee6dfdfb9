package mediator

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/tab"
)

// renderRows renders every row to its textual form, sorted, so two result
// tables can be compared byte for byte regardless of arrival order.
func renderRows(res *tab.Tab) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		var parts []string
		for _, c := range r {
			parts = append(parts, c.String())
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

// goldenAgainst runs the XQuery text and the hand-built YAT_L source on the
// serial and the parallel engine and requires all four row sets identical.
func goldenAgainst(t *testing.T, m *Mediator, xquerySrc, yatlSrc string, wantRows int) {
	t.Helper()
	hand, err := m.Query(yatlSrc)
	if err != nil {
		t.Fatal(err)
	}
	if hand.Tab.Len() != wantRows {
		t.Fatalf("hand-built rows = %d, want %d\n%s", hand.Tab.Len(), wantRows, hand.Tab)
	}
	want := renderRows(hand.Tab)

	compiled, err := m.Query(xquerySrc)
	if err != nil {
		t.Fatalf("compiled query: %v", err)
	}
	if got := renderRows(compiled.Tab); !reflect.DeepEqual(got, want) {
		t.Errorf("serial rows differ\ncompiled: %v\nhand:     %v\nplan:\n%s", got, want, compiled.Plan)
	}

	par, err := m.ExecuteContext(context.Background(), xquerySrc, ExecOptions{Parallelism: 4})
	if err != nil {
		t.Fatalf("compiled query (parallel): %v", err)
	}
	if got := renderRows(par.Tab); !reflect.DeepEqual(got, want) {
		t.Errorf("parallel rows differ\ncompiled: %v\nhand:     %v", got, want)
	}

	naive, err := queryNaive(m, xquerySrc)
	if err != nil {
		t.Fatalf("compiled query (naive): %v", err)
	}
	if got := renderRows(naive.Tab); !reflect.DeepEqual(got, want) {
		t.Errorf("naive rows differ\ncompiled: %v\nhand:     %v", got, want)
	}
}

func TestXQueryQ1Golden(t *testing.T) {
	m, _, _ := paperSetup(t)
	goldenAgainst(t, m, datagen.Q1XQuerySrc, datagen.Q1Src, 1)
}

func TestXQueryQ2Golden(t *testing.T) {
	m, _, _ := paperSetup(t)
	goldenAgainst(t, m, datagen.Q2XQuerySrc, datagen.Q2Src, 1)
}

// TestXQueryDescendantPushdown is the acceptance check for axis pushdown: a
// descendant step compiles to pre/post range predicates over the source's
// node table, and the optimizer ships them to the wrapper instead of
// fetching the whole table and filtering mediator-side.
func TestXQueryDescendantPushdown(t *testing.T) {
	m, _, _ := paperSetup(t)
	const src = `doc("works")/works//technique`

	naive, err := queryNaive(m, src)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := m.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	want := renderRows(naive.Tab)
	if len(want) != 1 || !strings.Contains(want[0], "Oil on canvas") {
		t.Fatalf("naive rows = %v", want)
	}
	if got := renderRows(opt.Tab); !reflect.DeepEqual(got, want) {
		t.Fatalf("optimized rows differ: %v vs %v\n%s", got, want, opt.Plan)
	}
	if !strings.Contains(opt.Plan, "SourceQuery") {
		t.Errorf("axis predicates not pushed:\n%s", opt.Plan)
	}
	if opt.Stats.SourcePushes == 0 {
		t.Errorf("stats = %+v, want at least one source push", opt.Stats)
	}
	// The pushed plan must ship strictly fewer mediator-side rows than the
	// fetch-everything naive plan (the whole point of pushing the axis).
	if naive.Stats.SourceFetches == 0 {
		t.Errorf("naive stats = %+v, expected table fetches", naive.Stats)
	}
	if opt.Stats.SourceFetches >= naive.Stats.SourceFetches {
		t.Errorf("pushdown did not reduce fetches: opt=%d naive=%d",
			opt.Stats.SourceFetches, naive.Stats.SourceFetches)
	}
}
