package xmlenc_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/xmlenc"
)

// blockSizeOracle is a test-only copy of the sizing blockSize replaced: nine
// strings.Count passes over src and a loop over its refs attributes. Parse's
// one-pass counts must equal it on every input.
func blockSizeOracle(src string) (nodes, atoms int) {
	count := func(sub string) int { return strings.Count(src, sub) }
	attrs := count(`="`) - count(` id="`)
	nodes = count("<") - count("</") + attrs + count(`">`) - count(`"><`)
	atoms = count("</") - count("></") + attrs
	for r := src; ; {
		i := strings.Index(r, ` refs="`)
		if i < 0 {
			break
		}
		r = r[i+len(` refs="`):]
		atoms--
		nodes += strings.Count(r[:max(strings.IndexByte(r, '"'), 0)], " ")
	}
	return min(nodes, len(src)/4), min(atoms, len(src)/4)
}

// sameBlockSize reports how blockSize differs from the oracle on src, ""
// when both counts agree.
func sameBlockSize(src string) string {
	gn, ga := xmlenc.BlockSize(src)
	wn, wa := blockSizeOracle(src)
	if gn != wn || ga != wa {
		return fmt.Sprintf("blockSize (%d nodes, %d atoms), oracle (%d, %d)", gn, ga, wn, wa)
	}
	return ""
}

// TestBlockSizeMatchesOracle holds the one-pass sizing to the nine counts
// over the parser's oracle inputs (FuzzParseXML's seeds, the wire fuzz
// corpora, generated works and artifacts documents), every prefix of the
// short ones, and seeded random text — mostly not XML, so the len/4 cap
// decides — made of the bytes the counts look at.
func TestBlockSizeMatchesOracle(t *testing.T) {
	in := oracleInputs(t)
	in = append(in, xmlenc.Serialize(data.Elem("doc", artifacts(t)...)))
	for i, src := range in {
		if diff := sameBlockSize(src); diff != "" {
			t.Fatalf("input %d: %s\n%q", i, diff, src)
		}
		if len(src) > 2048 {
			continue
		}
		for j := range len(src) {
			if diff := sameBlockSize(src[:j]); diff != "" {
				t.Fatalf("input %d, prefix %d: %s\n%q", i, j, diff, src[:j])
			}
		}
	}
	pieces := []string{"<", ">", "/", `"`, "=", " ", "a", "\n", ` id="`, ` refs="`, `">`, `"><`, "></", "</"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(40); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		if diff := sameBlockSize(b.String()); diff != "" {
			t.Fatalf("random text %d: %s\n%q", i, diff, b.String())
		}
	}
}
