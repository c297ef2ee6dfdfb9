package datagen

import (
	"testing"

	"repro/internal/pattern"
	"repro/internal/wais"
	"repro/internal/yatl"
)

func TestPaperDBShape(t *testing.T) {
	db := PaperDB()
	if db.ExtentSize("artifacts") != 3 || db.ExtentSize("persons") != 2 {
		t.Fatalf("extents: %d artifacts, %d persons",
			db.ExtentSize("artifacts"), db.ExtentSize("persons"))
	}
	res, err := db.Execute(`select t: A.title from A in artifacts where A.year > 1800`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Elems) != 2 {
		t.Errorf("post-1800 artifacts = %d, want 2", len(res.Elems))
	}
	// current_price is registered
	if _, err := db.Execute(`select p: A.current_price() from A in artifacts`); err != nil {
		t.Errorf("current_price: %v", err)
	}
}

func TestPaperWorksFigure1Shapes(t *testing.T) {
	works := PaperWorks()
	if len(works) != 2 {
		t.Fatalf("works = %d", len(works))
	}
	nym := works[0]
	if nym.Child("title").Atom.S != "Nympheas" || nym.Child("cplace").Atom.S != "Giverny" {
		t.Errorf("Nympheas fixture = %s", nym)
	}
	bridge := works[1]
	hist := bridge.Child("history")
	if hist == nil || hist.Child("technique") == nil {
		t.Errorf("Waterloo Bridge must carry nested history/technique: %s", bridge)
	}
	// Works match the Artworks structure (mandatory fields + extras).
	m := pattern.MustParseModel(`model artworks
Work  := work[ artist: String, title: String, style: String, size: String, *&Field ]
Field := Symbol[ *( Int | Float | Bool | String | &Field ) ]`)
	for _, w := range works {
		if !pattern.MatchData(m, m.Lookup("Work"), w) {
			t.Errorf("fixture does not match the Artworks structure: %s", w)
		}
	}
}

func TestProgramsParse(t *testing.T) {
	if _, err := yatl.Parse(View1Src); err != nil {
		t.Errorf("View1Src: %v", err)
	}
	for _, q := range []string{Q1Src, Q2Src} {
		if _, err := yatl.ParseQuery(q); err != nil {
			t.Errorf("query %q: %v", q, err)
		}
	}
	if _, err := wais.ParseConfig(MuseumSrc); err != nil {
		t.Errorf("MuseumSrc: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultParams(200))
	b := Generate(DefaultParams(200))
	if a.DB.ExtentSize("artifacts") != b.DB.ExtentSize("artifacts") ||
		len(a.Works) != len(b.Works) ||
		len(a.GivernyTitles) != len(b.GivernyTitles) ||
		len(a.Q2Titles) != len(b.Q2Titles) {
		t.Error("generation must be deterministic for equal params")
	}
	c := Generate(Params{Artifacts: 200, Persons: 101, OverlapPct: 80,
		ImpressionistPct: 30, CplacePct: 40, GivernyPct: 25, CheapPct: 50, Seed: 7})
	if len(c.Works) == len(a.Works) && len(c.GivernyTitles) == len(a.GivernyTitles) {
		t.Log("different seeds produced identical counts (possible but unlikely)")
	}
}

func TestGenerateInvariants(t *testing.T) {
	p := DefaultParams(500)
	w := Generate(p)
	if w.DB.ExtentSize("artifacts") != 500 {
		t.Errorf("artifacts = %d", w.DB.ExtentSize("artifacts"))
	}
	if len(w.Works) == 0 || len(w.Works) >= 500 {
		t.Errorf("works = %d (should be a post-1800 overlap subset)", len(w.Works))
	}
	// Every work title exists in the trading database with year > 1800
	// (the Figure 8 containment guarantee).
	for _, work := range w.Works {
		title := work.Child("title").Atom.S
		res, err := w.DB.Execute(`select y: A.year from A in artifacts where A.title = "` + title + `"`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Elems) != 1 {
			t.Fatalf("work %q has %d artifacts", title, len(res.Elems))
		}
		if y, _ := res.Elems[0].Field("y"); y.I <= 1800 {
			t.Fatalf("work %q violates the containment guarantee", title)
		}
	}
	// Indexes built by default; NoIndexes disables them.
	if !w.DB.HasIndex("Artifact", "title") || !w.DB.HasIndex("Artifact", "creator") {
		t.Error("default workload must index title and creator")
	}
	p.NoIndexes = true
	if Generate(p).DB.HasIndex("Artifact", "title") {
		t.Error("NoIndexes must skip index construction")
	}
}

func TestGroundTruthSubsets(t *testing.T) {
	w := Generate(DefaultParams(400))
	titles := map[string]bool{}
	for _, work := range w.Works {
		titles[work.Child("title").Atom.S] = true
	}
	for _, tt := range w.GivernyTitles {
		if !titles[tt] {
			t.Errorf("Giverny title %q not among works", tt)
		}
	}
	for _, tt := range w.Q2Titles {
		if !titles[tt] {
			t.Errorf("Q2 title %q not among works", tt)
		}
	}
	if len(w.GivernyTitles) == 0 || len(w.Q2Titles) == 0 {
		t.Error("default parameters must produce non-empty answer sets")
	}
}

func TestNewWaisEngine(t *testing.T) {
	e := NewWaisEngine(PaperWorks())
	if e.Size() != 2 {
		t.Errorf("engine size = %d", e.Size())
	}
	if got := e.Search("Giverny"); len(got) != 1 {
		t.Errorf("search = %v", got)
	}
	if !e.Queryable("cplace") {
		t.Error("museum config must allow cplace queries")
	}
}
