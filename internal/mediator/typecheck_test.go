package mediator

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/filter"
	"repro/internal/o2wrap"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/tab"
)

// lyingSource answers every push with a canned table — including rows that
// violate the schema its capability interface declares.
type lyingSource struct{ rows *tab.Tab }

func (s *lyingSource) Name() string        { return "liar" }
func (s *lyingSource) Documents() []string { return []string{"docs"} }
func (s *lyingSource) Fetch(string) (data.Forest, error) {
	return nil, fmt.Errorf("liar: no fetch")
}
func (s *lyingSource) Push(algebra.Op, map[string]tab.Cell) (*tab.Tab, error) {
	return s.rows, nil
}

// liarInterface declares bind capability over docs plus the structural
// schema doc[ *item[ name[String] ] ] — the claim the source then breaks.
func liarInterface() *capability.Interface {
	iface := capability.NewInterface("liar")
	fm := capability.NewFModel("F")
	fm.Define("Doc", &capability.FT{Kind: pattern.KAny})
	iface.FModels = []*capability.FModel{fm}
	iface.Binds["docs"] = capability.BindCap{FModel: "F", FPattern: "Doc"}
	iface.Operations = []capability.Operation{{Name: "bind", Kind: "algebra"}}
	m := pattern.NewModel("liar")
	m.Define("Doc", pattern.NodeItems("doc",
		pattern.Starred(pattern.Node("item", pattern.Node("name", pattern.Str())))))
	iface.Structures["docs"] = capability.StructureRef{Model: m, Pattern: "Doc"}
	return iface
}

// TestCheckTypesCatchesLyingSource: the wire conformance mode validates
// each shipped row against the pushed plan's inferred type. The structure
// is seeded purely from the capability interface on Connect — no explicit
// ImportStructure.
func TestCheckTypesCatchesLyingSource(t *testing.T) {
	rows := tab.New("$n")
	rows.AddRow(tab.Row{tab.AtomCell(data.String("fine"))})
	rows.AddRow(tab.Row{tab.AtomCell(data.Int(42))}) // violates name: String
	m := New()
	if err := m.Connect(&lyingSource{rows: rows}, liarInterface()); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.cat.Load().schemas.Doc("docs"); !ok {
		t.Fatal("Connect did not seed the structure from the capability interface")
	}
	m.SetMetrics(obs.NewRegistry())
	plan := &algebra.SourceQuery{Source: "liar", Plan: &algebra.Bind{
		Doc: "docs", F: filter.MustParse(`doc[ *item[ name: $n ] ]`),
	}}

	// Unchecked, the lie sails through.
	res, err := m.ExecutePlan(context.Background(), plan, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("unchecked execution: %v", err)
	}
	if res.Tab.Len() != 2 {
		t.Fatalf("unchecked rows = %d, want 2", res.Tab.Len())
	}

	// Checked, the query aborts with a structured violation and the
	// counter ticks.
	_, err = m.ExecutePlan(context.Background(), plan, ExecOptions{Parallelism: 1, CheckTypes: true})
	var ce *ConformanceError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ConformanceError", err)
	}
	if ce.Source != "liar" || ce.Column != "$n" || ce.Row != 1 {
		t.Errorf("violation = %+v", ce)
	}
	if got := m.Metrics().Counter("type_violations_total").Value(); got != 1 {
		t.Errorf("type_violations_total = %d, want 1", got)
	}
}

// TestCheckTypesWireEndToEnd runs Fig. 9's Q2 over live wire wrappers in
// wire conformance mode: with the truthfully imported structures the
// checked run returns exactly the unchecked result; after re-importing a
// deliberately wrong works schema (artist declared Int) the same query
// aborts with a ConformanceError naming the XML wrapper, planned or cached.
func TestCheckTypesWireEndToEnd(t *testing.T) {
	m, _ := deployFaulty(t, 40, nil, nil)
	ctx := context.Background()
	plain, err := m.ExecuteContext(ctx, datagen.Q2Src, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	checked, err := m.ExecuteContext(ctx, datagen.Q2Src, ExecOptions{Parallelism: 1, CheckTypes: true})
	if err != nil {
		t.Fatalf("conforming wire traffic rejected: %v", err)
	}
	if !plain.Tab.Equal(checked.Tab) {
		t.Fatal("type checking changed the result rows")
	}

	wrong := pattern.MustParseModel(`model Wrong
Works := works[ *&Work ]
Work  := work[ artist: Int, title: String, style: String, size: String,
               *&Field ]
Field := Symbol[ *( Int | Float | Bool | String | &Field ) ]`)
	m.ImportStructure("works", wrong, "Works")
	// The second run's plan, and the types it is checked against, come from
	// the plan map of the catalog the import published.
	for run := 0; run < 2; run++ {
		_, err = m.ExecuteContext(ctx, datagen.Q2Src, ExecOptions{Parallelism: 1, CheckTypes: true})
		var ce *ConformanceError
		if !errors.As(err, &ce) {
			t.Fatalf("run %d: err = %v, want *ConformanceError", run, err)
		}
		if ce.Source != "xmlartwork" {
			t.Errorf("run %d: violation source = %q, want xmlartwork", run, ce.Source)
		}
	}
	if p, cached, err := m.plan(m.cat.Load(), datagen.Q2Src); err != nil || !cached || p.ann == nil {
		t.Errorf("Q2's plan-map entry: cached = %v, annotation held = %v, err = %v", cached, p != nil && p.ann != nil, err)
	}
}

// TestCheckTypesCoversBatchedPushes: Q2's O₂ side is a batched DJoin push,
// and its rows are checked as a single push's are. With O₂'s price declared
// String — in the model both artifacts and persons import, since merged
// structures take each pattern from the first document to define it — Q2
// fails with a ConformanceError naming the O₂ wrapper on every schedule.
func TestCheckTypesCoversBatchedPushes(t *testing.T) {
	const n = 40
	m, _ := deployFaulty(t, n, nil, nil)
	schema := o2wrap.New("o2artifact", datagen.Generate(datagen.DefaultParams(n)).DB).ExportSchema().String()
	if !strings.Contains(schema, "price: Float") {
		t.Fatalf("O₂ schema declares no Float price:\n%s", schema)
	}
	wrong := pattern.MustParseModel(strings.Replace(schema, "price: Float", "price: String", 1))
	m.ImportStructure("artifacts", wrong, "Artifact")
	m.ImportStructure("persons", wrong, "Person")
	for _, par := range []int{1, 8} {
		for _, chunk := range []int{0, 1} {
			opts := ExecOptions{Parallelism: par, BatchChunk: chunk, CheckTypes: true, Timeout: time.Minute}
			_, err := m.ExecuteContext(context.Background(), datagen.Q2Src, opts)
			var ce *ConformanceError
			if !errors.As(err, &ce) || ce.Source != "o2artifact" {
				t.Errorf("Parallelism %d BatchChunk %d: err = %v, want a ConformanceError from o2artifact", par, chunk, err)
			}
		}
	}
}
