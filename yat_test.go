package yat

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/o2wrap"
	"repro/internal/waiswrap"
)

func TestQuickstartFlow(t *testing.T) {
	med, ow, ww, err := NewCulturalMediator(PaperDB(), PaperWorks())
	if err != nil {
		t.Fatal(err)
	}
	res, err := med.Query(Q1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tab.Len() != 1 {
		t.Fatalf("Q1 rows = %d", res.Tab.Len())
	}
	if a, _ := res.Tab.Rows[0][0].AsAtom(); a.S != "Nympheas" {
		t.Errorf("Q1 = %v", a)
	}
	q2, err := med.Query(Q2)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Tab.Len() != 1 {
		t.Fatalf("Q2 rows = %d", q2.Tab.Len())
	}
	if ww.LastSearch == "" {
		t.Error("Q2 must push a full-text search")
	}
	if ow.LastOQL == "" {
		t.Error("Q2 must push OQL")
	}
}

func TestFacadeXMLHelpers(t *testing.T) {
	n, err := ParseXML(`<work><title>Nympheas</title></work>`)
	if err != nil {
		t.Fatal(err)
	}
	s := SerializeXML(n)
	if !strings.Contains(s, "<title>Nympheas</title>") {
		t.Errorf("SerializeXML = %q", s)
	}
	if _, err := ParseXML("<broken"); err == nil {
		t.Error("broken XML must fail")
	}
}

func TestFacadeParsers(t *testing.T) {
	if _, err := ParseProgram(View1); err != nil {
		t.Errorf("View1: %v", err)
	}
	if _, err := ParseFilter(`works[ *work[ title: $t ] ]`); err != nil {
		t.Errorf("ParseFilter: %v", err)
	}
	if _, err := ParseFilter(`broken[`); err == nil {
		t.Error("broken filter must fail")
	}
}

func TestFacadeOptimize(t *testing.T) {
	med, _, _, err := NewCulturalMediator(PaperDB(), PaperWorks())
	if err != nil {
		t.Fatal(err)
	}
	naive, err := med.Compose(Q2)
	if err != nil {
		t.Fatal(err)
	}
	opt := med.Optimize(naive)
	if !strings.Contains(DescribePlan(opt), "SourceQuery") {
		t.Errorf("Optimize did not push:\n%s", DescribePlan(opt))
	}
}

func TestGenerateWorkloadFacade(t *testing.T) {
	db, works := GenerateWorkload(150)
	if db.ExtentSize("artifacts") != 150 || len(works) == 0 {
		t.Fatalf("workload: %d artifacts, %d works", db.ExtentSize("artifacts"), len(works))
	}
	med, _, _, err := NewCulturalMediator(db, works)
	if err != nil {
		t.Fatal(err)
	}
	w := datagen.Generate(datagen.DefaultParams(150))
	res, err := med.Query(Q1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tab.Len() != len(w.GivernyTitles) {
		t.Errorf("Q1 rows = %d, ground truth %d", res.Tab.Len(), len(w.GivernyTitles))
	}
}

func TestMaterializedViewMatchesFigure1Integration(t *testing.T) {
	med, _, _, err := NewCulturalMediator(PaperDB(), PaperWorks())
	if err != nil {
		t.Fatal(err)
	}
	view, err := med.Materialize("artworks")
	if err != nil {
		t.Fatal(err)
	}
	doc := view.Rows[0][0].Tree
	works := doc.Children("work")
	if len(works) != 2 {
		t.Fatalf("integrated works = %d", len(works))
	}
	// Each integrated work combines trading info (year, price, owners) with
	// descriptive info (style, size, optional fields).
	for _, w := range works {
		for _, field := range []string{"title", "artist", "year", "price", "style", "size", "owners", "more"} {
			if w.Child(field) == nil {
				t.Errorf("work %s lacks %s", w.Child("title"), field)
			}
		}
		if w.ID == "" {
			t.Error("works must carry Skolem identifiers")
		}
	}
}

// sourceCtx builds an evaluation context backed by the two wrappers.
func sourceCtx(w *datagen.Workload) *algebra.Context {
	ctx := algebra.NewContext()
	ow := o2wrap.New("o2artifact", w.DB)
	ww := waiswrap.New("xmlartwork", datagen.NewWaisEngine(w.Works))
	ctx.Sources["o2artifact"] = ow
	ctx.Sources["xmlartwork"] = ww
	ctx.Funcs["contains"] = waiswrap.Contains
	return ctx
}

// TestFig7PlansEquivalent pins the Figure 7 equivalence: the three plans
// return the same rows.
func TestFig7PlansEquivalent(t *testing.T) {
	w := datagen.Generate(datagen.DefaultParams(60))
	var results []*Tab
	for _, plan := range datagen.Fig7Plans() {
		res, err := exec.RunSerial(plan, sourceCtx(w))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if !results[0].EqualUnordered(results[1]) || !results[0].EqualUnordered(results[2]) {
		t.Fatalf("Figure 7 plans disagree: %d / %d / %d rows",
			results[0].Len(), results[1].Len(), results[2].Len())
	}
	if results[0].Len() == 0 {
		t.Fatal("empty fixture")
	}
}
