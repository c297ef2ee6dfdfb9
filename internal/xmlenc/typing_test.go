package xmlenc_test

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/o2wrap"
	"repro/internal/xmlenc"
)

// inferAtomsOracle is the typing InferAtoms did before it typed in place: a
// clone of the tree in which both number parses are tried on every string
// leaf.
func inferAtomsOracle(n *data.Node) *data.Node {
	c := n.Clone()
	c.Walk(func(m *data.Node) bool {
		if m.Atom != nil && m.Atom.Kind == data.KindString {
			s := strings.TrimSpace(m.Atom.S)
			if v, err := strconv.ParseInt(s, 10, 64); err == nil {
				a := data.Int(v)
				m.Atom = &a
			} else if v, err := strconv.ParseFloat(s, 64); err == nil {
				a := data.Float(v)
				m.Atom = &a
			} else if s == "true" || s == "false" {
				a := data.Bool(s == "true")
				m.Atom = &a
			}
		}
		return true
	})
	return c
}

// sameTyping reports the first leaf, in document order, whose atom differs in
// kind or value between two trees of one shape; "" when none does. NaN equals
// NaN here.
func sameTyping(got, want *data.Node) string {
	var g, w []*data.Atom
	got.Walk(func(m *data.Node) bool { g = append(g, m.Atom); return true })
	want.Walk(func(m *data.Node) bool { w = append(w, m.Atom); return true })
	if len(g) != len(w) {
		return "trees differ in shape"
	}
	for i := range g {
		a, b := g[i], w[i]
		if (a == nil) != (b == nil) {
			return "trees differ in shape"
		}
		if a != nil && (a.Kind != b.Kind || a.I != b.I || a.B != b.B || a.S != b.S ||
			math.Float64bits(a.F) != math.Float64bits(b.F)) {
			return strconv.Quote(b.Text()) + " typed " + a.Kind.String() + ", want " + b.Kind.String()
		}
	}
	return ""
}

// oracleLeaves are texts on either side of InferAtoms' no-parse shortcuts:
// padded numbers, ParseFloat's spellings of infinity and NaN, an overflow,
// hex and underscore forms, a leading zero, a padded boolean, words that
// start like a number or like inf/nan, signs in an exponent, and signs
// elsewhere (an ISSN, a trailing minus, a bare sign).
var oracleLeaves = []string{" 12 ", "+inf", "-Infinity", "NaN", "1e400", "0x1p3", "1_000", "007", "true ", "nice", "1990s",
	"0317-8471", "1e-5", "-0x1p-2", "12-", "1E+9", "-12", "+", "-", "99999999999999999999", "0x1e-5"}

func TestInferAtomsMatchesOracle(t *testing.T) {
	doc := data.Elem("leaves")
	for _, s := range oracleLeaves {
		doc.Add(data.Text("l", s))
	}
	want := inferAtomsOracle(doc)
	xmlenc.InferAtoms(doc)
	if diff := sameTyping(doc, want); diff != "" {
		t.Error(diff)
	}
}

// worksDocument is a generated Wais works document as a wrapper ships it.
func worksDocument() string {
	return xmlenc.Serialize(data.Elem("works", datagen.Generate(datagen.DefaultParams(300)).Works...))
}

// The allocation guards below hold the codec to allocating only the tree it
// returns, and Parse to building that tree in one data.Block: a few slices
// sized from counts over the input, not one object per node, atom and child
// list. Each bound is the count measured when it was set; `make allocs` runs
// them without the race detector too.

func TestEscapeAllocs(t *testing.T) {
	// measured: 0
	if n := testing.AllocsPerRun(100, func() { _ = xmlenc.Escape("Claude Monet, Nympheas (1897)") }); n != 0 {
		t.Errorf("Escape of text with no special character: %v allocations, want 0", n)
	}
}

func TestInferAtomsAllocs(t *testing.T) {
	records, err := feed.New("feed", datagen.NewFeedStore(datagen.GenerateFeed(datagen.DefaultFeedParams(300)))).Fetch("records")
	if err != nil {
		t.Fatal(err)
	}
	recordsDocument := xmlenc.Serialize(records[0])
	if !strings.Contains(recordsDocument, "<issn>") {
		t.Fatal("the records document holds no ISSN")
	}
	for _, doc := range []struct{ name, src string }{
		// measured: 0
		{"works", worksDocument()},
		// measured: 0 (1,430 before InferAtoms read the syntax first: both
		// number parses failed on each ISSN, and a failure allocates)
		{"feed records", recordsDocument},
	} {
		const runs = 20
		trees := make([]*data.Node, 0, runs+1) // AllocsPerRun makes one warm-up call
		for i := 0; i <= runs; i++ {
			n, err := xmlenc.Parse(doc.src)
			if err != nil {
				t.Fatal(err)
			}
			trees = append(trees, n)
		}
		next := 0
		if n := testing.AllocsPerRun(runs, func() { xmlenc.InferAtoms(trees[next]); next++ }); n != 0 {
			t.Errorf("InferAtoms over a parsed %s document: %v allocations, want 0", doc.name, n)
		}
	}
}

func TestParseAllocs(t *testing.T) {
	// measured: 2, the node and its atom
	if n := testing.AllocsPerRun(100, func() { _, _ = xmlenc.Parse("<t>plain text</t>") }); n > 2 {
		t.Errorf("Parse of one text element: %v allocations, want at most 2", n)
	}
}

func TestParseWorksAllocs(t *testing.T) {
	artifacts, err := o2wrap.New("o2artifact", datagen.Generate(datagen.DefaultParams(300)).DB).Fetch("artifacts")
	if err != nil {
		t.Fatal(err)
	}
	artifactsDocument := xmlenc.Serialize(data.Elem("doc", artifacts...))
	if !strings.Contains(artifactsDocument, ` refs="`) {
		t.Fatal("the artifacts document holds no refs attribute")
	}
	for _, doc := range []struct {
		name  string
		src   string
		bound float64
	}{
		// measured: 11 (2,491 node by node): the block's three slices, the
		// stack of open elements' children growing past 64 to the root's
		// works, and the text of the entities
		{"works document of 300 artifacts", worksDocument(), 11},
		// measured: 7 (307 with a slice of identifiers per refs attribute)
		{"exported artifacts document of 300 artifacts", artifactsDocument, 7},
	} {
		if n := testing.AllocsPerRun(20, func() { _, _ = xmlenc.Parse(doc.src) }); n > doc.bound {
			t.Errorf("Parse of a %s: %v allocations, want at most %v", doc.name, n, doc.bound)
		}
	}
}

// TestParseGarbageAllocs holds what Parse reserves from counts over its input
// to what valid XML of the same size could make the node-by-node parser
// allocate (one <a/> per four bytes): text that is not XML fails at once, but
// its reservation is made first.
func TestParseGarbageAllocs(t *testing.T) {
	src := strings.Repeat("<>", 1<<19)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := xmlenc.Parse(src); err == nil {
		t.Fatal("Parse accepted text that is not XML")
	}
	runtime.ReadMemStats(&m1)
	// measured: 22 bytes per input byte; 44 with a reservation from the
	// counts alone
	if per := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(src)); per > 25 {
		t.Errorf("Parse of 1 MiB that is not XML: %.1f bytes allocated per input byte, want at most 25", per)
	}
}
