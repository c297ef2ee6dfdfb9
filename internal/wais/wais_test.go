package wais

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/data"
)

func monet() *data.Node {
	return data.Elem("work",
		data.Text("artist", "Claude Monet"),
		data.Text("title", "Nympheas"),
		data.Text("style", "Impressionist"),
		data.Text("size", "21 x 61"),
		data.Text("cplace", "Giverny"),
	)
}

func waterloo() *data.Node {
	return data.Elem("work",
		data.Text("artist", "Claude Monet"),
		data.Text("title", "Waterloo Bridge"),
		data.Text("style", "Impressionist"),
		data.Elem("history",
			data.Text("", "Painted with"),
			data.Text("technique", "Oil on canvas"),
		),
	)
}

func dancers() *data.Node {
	return data.Elem("work",
		data.Text("artist", "Edgar Degas"),
		data.Text("title", "Dancers"),
		data.Text("style", "Realist"),
	)
}

func engine() *Engine {
	e := New("museum")
	e.Add(monet())
	e.Add(waterloo())
	e.Add(dancers())
	return e
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Painted with Oil-on-Canvas, in 1897!")
	want := []string{"painted", "with", "oil", "on", "canvas", "in", "1897"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
	if len(Tokenize("  ...  ")) != 0 {
		t.Error("punctuation-only text has no tokens")
	}
}

func TestSearchContains(t *testing.T) {
	e := engine()
	if got := e.Search("Impressionist"); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Search(Impressionist) = %v", got)
	}
	if got := e.Search("impressionist"); len(got) != 2 {
		t.Errorf("search must be case-insensitive: %v", got)
	}
	if got := e.Search("Oil canvas"); len(got) != 1 || got[0] != 1 {
		t.Errorf("multi-word search = %v", got)
	}
	if got := e.Search("Giverny"); len(got) != 1 || got[0] != 0 {
		t.Errorf("Search(Giverny) = %v", got)
	}
	if got := e.Search("nothing-here"); len(got) != 0 {
		t.Errorf("absent term = %v", got)
	}
	if got := e.Search(""); got != nil {
		t.Errorf("empty query = %v", got)
	}
	if !e.Contains(0, "Giverny") || e.Contains(1, "Giverny") {
		t.Error("Contains per-document check wrong")
	}
	if e.SearchesRun == 0 {
		t.Error("SearchesRun must count")
	}
}

func TestSearchField(t *testing.T) {
	e := engine()
	got, err := e.SearchField("style", "Impressionist")
	if err != nil || len(got) != 2 {
		t.Errorf("SearchField(style) = %v, %v", got, err)
	}
	// "Monet" appears under artist, not style.
	got, err = e.SearchField("style", "Monet")
	if err != nil || len(got) != 0 {
		t.Errorf("SearchField(style, Monet) = %v, %v", got, err)
	}
	got, err = e.SearchField("technique", "Oil")
	if err != nil || len(got) != 1 || got[0] != 1 {
		t.Errorf("nested field search = %v, %v", got, err)
	}
	if _, err := e.SearchField("ghostfield", "x"); err != nil {
		t.Errorf("unknown field is empty, not an error (all fields queryable): %v", err)
	}
}

func TestConfigQueryableRetrievable(t *testing.T) {
	cfg, err := ParseConfig(`
# museum.src
source museum
queryable style cplace technique
retrievable artist title style
`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "museum" || len(cfg.Queryable) != 3 || len(cfg.Retrievable) != 3 {
		t.Fatalf("config = %+v", cfg)
	}
	e := engine()
	e.Configure(cfg)
	if _, err := e.SearchField("artist", "Monet"); err == nil {
		t.Error("artist is not queryable under this configuration")
	}
	if _, err := e.SearchField("style", "Impressionist"); err != nil {
		t.Errorf("style must stay queryable: %v", err)
	}
	doc := e.Retrieve(0)
	if doc.Child("artist") == nil || doc.Child("title") == nil {
		t.Error("retrievable fields must be exported")
	}
	if doc.Child("cplace") != nil || doc.Child("size") != nil {
		t.Errorf("non-retrievable fields must be hidden: %s", doc)
	}
	// The original document is untouched.
	if e.Doc(0).Child("cplace") == nil {
		t.Error("Retrieve must not mutate the stored document")
	}
}

func TestParseConfigErrors(t *testing.T) {
	bad := []string{
		``,
		`queryable a b`,
		`source a b`,
		`wibble x`,
	}
	for _, src := range bad {
		if _, err := ParseConfig(src); err == nil {
			t.Errorf("ParseConfig(%q) should fail", src)
		}
	}
}

func TestBooleanOps(t *testing.T) {
	e := engine()
	imp := e.Search("Impressionist")
	monetDocs := e.Search("Monet")
	if got := And(imp, monetDocs); len(got) != 2 {
		t.Errorf("And = %v", got)
	}
	degas := e.Search("Degas")
	if got := Or(imp, degas); len(got) != 3 {
		t.Errorf("Or = %v", got)
	}
	if got := e.Not(imp); len(got) != 1 || got[0] != 2 {
		t.Errorf("Not = %v", got)
	}
	if got := Or(nil, degas); len(got) != 1 {
		t.Errorf("Or with empty = %v", got)
	}
	if got := And(nil, imp); len(got) != 0 {
		t.Errorf("And with empty = %v", got)
	}
}

func TestRetrieveBounds(t *testing.T) {
	e := engine()
	if e.Doc(-1) != nil || e.Doc(99) != nil || e.Retrieve(99) != nil {
		t.Error("out-of-range documents are nil")
	}
	if e.Size() != 3 || e.Terms() == 0 {
		t.Errorf("size=%d terms=%d", e.Size(), e.Terms())
	}
}

func TestDuplicateTermsIndexedOnce(t *testing.T) {
	e := New("t")
	e.Add(data.Elem("work", data.Text("note", "oil oil oil")))
	if got := e.Search("oil"); len(got) != 1 {
		t.Errorf("posting list = %v (duplicates must collapse)", got)
	}
}

func TestPropertySearchConsistentWithContains(t *testing.T) {
	f := func(seed int64) bool {
		words := []string{"monet", "degas", "oil", "giverny", "bridge", "dance"}
		s := seed
		next := func(n int64) int64 {
			s = s*6364136223846793005 + 1442695040888963407
			v := (s >> 33) % n
			if v < 0 {
				v = -v
			}
			return v
		}
		e := New("p")
		for d := 0; d < 8; d++ {
			doc := data.Elem("work")
			for w := int64(0); w < 1+next(5); w++ {
				doc.Add(data.Text("note", words[next(int64(len(words)))]))
			}
			e.Add(doc)
		}
		term := words[next(int64(len(words)))]
		hits := e.Search(term)
		for id := 0; id < e.Size(); id++ {
			if member(hits, id) != e.Contains(id, term) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBooleanLaws(t *testing.T) {
	f := func(seed int64) bool {
		e := engine()
		a := e.Search("Impressionist")
		b := e.Search("Monet")
		// And/Or are commutative; And(a,a)=a; Or(a,a)=a; Not(Not(a))=a.
		if !eqInts(And(a, b), And(b, a)) || !eqInts(Or(a, b), Or(b, a)) {
			return false
		}
		if !eqInts(And(a, a), a) || !eqInts(Or(a, a), a) {
			return false
		}
		return eqInts(e.Not(e.Not(a)), a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// retrieveOracle is Retrieve as it was before it built a document in one
// block: a node of its own and a clone per retrievable field.
func retrieveOracle(e *Engine, id int) *data.Node {
	doc := e.Doc(id)
	if e.retrievable == nil {
		return doc.Clone()
	}
	out := &data.Node{Label: doc.Label, ID: doc.ID}
	for _, k := range doc.Kids {
		if e.retrievable[k.Label] {
			out.Kids = append(out.Kids, k.Clone())
		}
	}
	return out
}

// restricted returns the three-work engine with only the given fields
// retrievable.
func restricted(t testing.TB, fields string) *Engine {
	cfg, err := ParseConfig("source museum\nretrievable " + fields + "\n")
	if err != nil {
		t.Fatal(err)
	}
	e := engine()
	e.Configure(cfg)
	return e
}

func TestRetrieveMatchesOracle(t *testing.T) {
	for _, fields := range []string{"artist title style", "history", "cplace size", "nothing"} {
		e := restricted(t, fields)
		for id := 0; id < e.Size(); id++ {
			// reflect.DeepEqual tells a document with no retrievable field
			// (nil Kids) from one with an empty child list.
			if got, want := e.Retrieve(id), retrieveOracle(e, id); !reflect.DeepEqual(got, want) {
				t.Errorf("retrievable %s, document %d: got %s, want %s", fields, id, got, want)
			}
		}
	}
}

func TestRetrieveAllocs(t *testing.T) {
	e := restricted(t, "artist title history")
	// measured: 3, the block's nodes, atoms and child lists (11 field by
	// field: a node, its child list grown three times, a block per field)
	if n := testing.AllocsPerRun(100, func() { _ = e.Retrieve(1) }); n > 3 {
		t.Errorf("Retrieve of a document: %v allocations, want at most 3", n)
	}
}
