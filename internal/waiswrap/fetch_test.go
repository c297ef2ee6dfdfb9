package waiswrap

import (
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/wais"
)

// perDocumentFetch is the works document as Fetch built it before it took
// one block: a root grown by Add, one Retrieve (and block) per document.
func perDocumentFetch(e *wais.Engine) *data.Node {
	root := data.Elem("works")
	for i := 0; i < e.Size(); i++ {
		root.Add(e.Retrieve(i))
	}
	return root
}

// generatedWorks is the works of a generated 300-artifact workload.
func generatedWorks() data.Forest {
	return datagen.Generate(datagen.DefaultParams(300)).Works
}

func TestFetchMatchesPerDocumentRetrieve(t *testing.T) {
	all := wais.New("all") // no configuration: every field retrievable
	for _, w := range generatedWorks() {
		all.Add(w)
	}
	restricted := datagen.NewWaisEngine(generatedWorks())
	cfg, err := wais.ParseConfig("source museum\nretrievable artist title history\n")
	if err != nil {
		t.Fatal(err)
	}
	restricted.Configure(cfg)
	for name, e := range map[string]*wais.Engine{
		"museum":                 datagen.NewWaisEngine(generatedWorks()),
		"every field":            all,
		"artist, title, history": restricted,
		"the paper's works":      datagen.NewWaisEngine(datagen.PaperWorks()),
		"an empty engine":        wais.New("empty"),
	} {
		f, err := New("xmlartwork", e).Fetch("works")
		if err != nil {
			t.Fatal(err)
		}
		if want := perDocumentFetch(e); len(f) != 1 || !data.Equal(f[0], want) {
			t.Errorf("%s: Fetch\n%s\nwant\n%s", name, f, want)
		}
	}
}

func TestFetchWorksAllocs(t *testing.T) {
	w := New("xmlartwork", datagen.NewWaisEngine(generatedWorks()))
	// measured: 4, the block's nodes, atoms and child lists and the forest
	// (482 for the 157 documents with a block each and a root grown by Add)
	if n := testing.AllocsPerRun(20, func() { _, _ = w.Fetch("works") }); n > 4 {
		t.Errorf("Fetch of a %d-document works collection: %v allocations, want at most 4", w.E.Size(), n)
	}
}
