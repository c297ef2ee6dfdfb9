package xmlenc_test

import (
	"testing"

	"repro/internal/capability"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/o2wrap"
	"repro/internal/tab"
	"repro/internal/waiswrap"
	"repro/internal/xmlenc"
)

// FuzzParseXML feeds arbitrary text to xmlenc.Parse, the scanner under every
// wire frame, capability description and shipped document: it never panics,
// Parse and ParseForest return the trees and errors of the node-by-node
// oracle (oracle_test.go), Parse sizes its block as the nine-count oracle
// does (sizing_test.go), a tree it accepts serializes to text that parses to
// the same tree, and InferAtoms types that tree's leaves as inferAtomsOracle
// does.
func FuzzParseXML(f *testing.F) {
	for _, s := range parseSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if diff := sameParse(src); diff != "" {
			t.Fatalf("Parse differs from the oracle: %s\n%q", diff, src)
		}
		if diff := sameBlockSize(src); diff != "" {
			t.Fatalf("block sizing differs from the oracle: %s\n%q", diff, src)
		}
		n, err := xmlenc.Parse(src)
		if err != nil {
			return
		}
		text := xmlenc.Serialize(n)
		again, err := xmlenc.Parse(text)
		if err != nil {
			t.Fatalf("serialized tree does not parse: %v\n%s", err, text)
		}
		if !data.Equal(n, again) {
			t.Fatalf("tree changed through serialize:\n%s\nvs\n%s", n, again)
		}
		want := inferAtomsOracle(n)
		xmlenc.InferAtoms(n)
		if diff := sameTyping(n, want); diff != "" {
			t.Fatalf("InferAtoms differs from the oracle: %s\n%s", diff, src)
		}
	})
}

// parseSeeds are FuzzParseXML's seeds: the interfaces the three wrappers
// export, a wire reply frame, a works document, the branches of the parser's
// text paths and the typing oracle's leaves.
func parseSeeds() []string {
	var seeds []string
	for _, i := range []*capability.Interface{
		o2wrap.New("o2artifact", datagen.PaperDB()).ExportInterface(),
		waiswrap.New("xmlartwork", datagen.NewWaisEngine(datagen.PaperWorks())).ExportInterface(),
		feed.New("feed", feed.NewStore()).ExportInterface(),
	} {
		seeds = append(seeds, capability.Marshal(i))
	}
	rows := tab.New("$t", "$w")
	rows.AddRow(tab.Row{tab.AtomCell(data.String("Nympheas")), tab.TreeCell(datagen.PaperWorks()[0])})
	seeds = append(seeds, `<chunk end="1" obs-ns="1200">`+tab.Marshal(rows)+`</chunk>`)
	seeds = append(seeds, xmlenc.Serialize(datagen.PaperWorks()[0]))
	seeds = append(seeds, `<a id="x" refs="p1 p2" k='v &amp; w'>t<![CDATA[<c>]]><!-- c --><b ref="p3"/></a>`)
	// A reference after other content, and one with content of its own, are
	// not a refs attribute's.
	seeds = append(seeds, `<a><b/><ref ref="p"/></a>`)
	seeds = append(seeds, `<a><ref ref="p" x="1">t</ref></a>`)
	// Text in several pieces: around an entity, a CDATA section and a
	// comment, each in one element and all in one.
	seeds = append(seeds, `<a>x &lt; y</a>`)
	seeds = append(seeds, `<a>x<![CDATA[ <y> ]]>z</a>`)
	seeds = append(seeds, `<a>x<!-- c -->y</a>`)
	seeds = append(seeds, `<a> x &amp; y<![CDATA[z]]> w <!-- c --> v </a>`)
	// White space to collapse: a tab, a newline and a no-break space.
	seeds = append(seeds, "<a>x\ty\nz\u00a0w</a>")
	// A single text that stays a child: beside attributes, under a reference.
	seeds = append(seeds, `<a k="v">text</a>`)
	seeds = append(seeds, `<a ref="p">text</a>`)
	for _, s := range oracleLeaves {
		seeds = append(seeds, "<l>"+s+"</l>")
	}
	return seeds
}
