package o2

import (
	"fmt"
	"testing"
)

// accessDB is a 600-object extent for watching the access path from outside:
// u is unique per object, g splits the extent in two halves of 300, n is
// unique and never indexed, and hit() counts its invocations, so a query
// whose first conjunct is X.hit() runs it once per candidate it visits.
func accessDB(t *testing.T, hits *int, indexed ...string) *DB {
	t.Helper()
	s := NewSchema()
	s.AddClass("A", TyTuple(F("u", TyStr()), F("g", TyStr()), F("n", TyStr())), "as")
	if err := s.AddMethod("A", "hit", TyBool(), func(*DB, *Object) (Val, error) {
		*hits++
		return Bool(true), nil
	}); err != nil {
		t.Fatal(err)
	}
	db := NewDB(s)
	for i := 0; i < 600; i++ {
		if _, err := db.NewObject("A", accessObj(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, attr := range indexed {
		if err := db.BuildIndex("A", attr); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func accessObj(i int) Val {
	return Tuple([]string{"u", "g", "n"},
		Str(fmt.Sprintf("u%d", i)), Str(fmt.Sprintf("g%d", i%2)), Str(fmt.Sprintf("n%d", i)))
}

func TestAccessPathVisitsTheShortestPostingList(t *testing.T) {
	cases := []struct {
		name, oql string
		visited   int
	}{
		{"selective conjunct last",
			`select v: X.n from X in as where X.hit() and X.g = "g1" and X.u = "u7"`, 1},
		{"selective conjunct first",
			`select v: X.n from X in as where X.hit() and X.u = "u7" and X.g = "g1"`, 1},
		{"literal on the left",
			`select v: X.n from X in as where X.hit() and "g1" = X.g and "u7" = X.u`, 1},
		{"only the long list applies",
			`select v: X.n from X in as where X.hit() and X.g = "g1" and X.n = "n7"`, 300},
		{"no row",
			`select v: X.n from X in as where X.hit() and X.g = "g0" and X.u = "u7"`, 1},
		{"no posting list",
			`select v: X.n from X in as where X.hit() and X.u = "nobody"`, 0},
		{"binding range outermost: once per binding",
			`select bi: B.i, v: X.n from B in bag(tuple(i: 0, k: "u7", h: "g1"), tuple(i: 1, k: "u8", h: "g0"), tuple(i: 2, k: "u7", h: "g1")), X in as
			 where X.hit() and X.g = B.h and X.u = B.k`, 3},
		{"index nested loop on an outer range",
			`select v: Y.n from X in as, Y in as where Y.hit() and X.u = "u7" and Y.u = X.u`, 1},
		{"fallback scan: no index on n",
			`select v: X.n from X in as where X.hit() and X.n = "n7"`, 600},
		{"fallback scan: not an equality",
			`select v: X.n from X in as where X.hit() and X.u != "u7" and X.n = "n7"`, 600},
		{"fallback scan: a disjunction pins nothing",
			`select v: X.n from X in as where X.hit() and (X.u = "u7" or X.u = "u8")`, 600},
	}
	var hits, scanHits int
	db, scan := accessDB(t, &hits, "u", "g"), accessDB(t, &scanHits)
	for _, c := range cases {
		hits = 0
		got, err := db.Execute(c.oql)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if hits != c.visited {
			t.Errorf("%s: visited %d candidates, want %d", c.name, hits, c.visited)
		}
		want, err := scan.Execute(c.oql)
		if err != nil {
			t.Fatalf("%s: scan: %v", c.name, err)
		}
		// String, not Equal: bags compare without order, and the order is
		// part of what the access path must keep.
		if got.String() != want.String() {
			t.Errorf("%s: indexed %s\nscan %s", c.name, got, want)
		}
	}
}

func TestNewObjectMaintainsIndexes(t *testing.T) {
	var hits int
	db, scan := accessDB(t, &hits, "u", "g"), accessDB(t, &hits)
	for _, d := range []*DB{db, scan} {
		if _, err := d.NewObject("A", accessObj(601)); err != nil {
			t.Fatal(err)
		}
	}
	for _, oql := range []string{
		`select v: X.n from X in as where X.u = "u601"`,
		`select v: X.n from X in as where X.g = "g1"`,
	} {
		got, err := db.Execute(oql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := scan.Execute(oql)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() || len(got.Elems) == 0 {
			t.Errorf("%s:\nindexed %s\nscan %s", oql, got, want)
		}
	}
}
