package o2_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/o2"
)

// q2Batch is DESIGN.md's Q2-shaped batched query over db: one binding per
// (creator, title) pair of its first n artifacts, the artifact and its owners
// projected.
func q2Batch(db *o2.DB, n int) string {
	var b strings.Builder
	b.WriteString("select bi: B.i, c0: R1.title, c1: R1.year, c2: R1.creator, c3: R1.price, c4: R2.name, c5: R2.auction\nfrom B in bag(")
	for i, oid := range db.Extents["artifacts"][:n] {
		v := db.Get(oid).Value
		creator, _ := v.Field("creator")
		title, _ := v.Field("title")
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "tuple(i: %d, p0: %s, p1: %s)", i, creator, title)
	}
	b.WriteString("), R1 in artifacts, R2 in R1.owners\nwhere ((R1.year > 1800 and R1.price < 200000) and R1.creator = B.p0) and R1.title = B.p1")
	return b.String()
}

func TestRunAllocs(t *testing.T) {
	db := datagen.Generate(datagen.DefaultParams(200)).DB
	q, err := o2.ParseOQL(q2Batch(db, 32))
	if err != nil {
		t.Fatal(err)
	}
	// measured: 156 (638 when each of the 21 rows built a field map from
	// boxed pairs): 128 for the 64 index probes, whose keys Val.String
	// formats, one value slice per row, and 7 for the environment and the
	// growing result
	if n := testing.AllocsPerRun(20, func() { _, _ = db.Run(q) }); n > 156 {
		t.Errorf("Run of a 32-binding Q2 batch: %v allocations, want at most 156", n)
	}
}

// TestRunLeavesQueryUnchanged runs every text of the FuzzParseOQL corpus on
// the paper's database and requires the query to print the same afterwards:
// a query's text can then be taken after it ran (Wrapper.LastOQL).
func TestRunLeavesQueryUnchanged(t *testing.T) {
	db := datagen.PaperDB()
	files, err := filepath.Glob("testdata/fuzz/FuzzParseOQL/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	ran := 0
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		q, err := o2.ParseOQL(src)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		before := q.String()
		if _, err := db.Run(q); err == nil {
			ran++
		}
		if after := q.String(); after != before {
			t.Errorf("%s: Run changed the query\nbefore %s\nafter  %s", f, before, after)
		}
	}
	if ran < 5 {
		t.Errorf("%d corpus queries ran on the paper's database, want at least 5", ran)
	}
}
