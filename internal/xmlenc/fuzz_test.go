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
// a tree it accepts serializes to text that parses to the same tree, and
// InferAtoms types that tree's leaves as inferAtomsOracle does. The seeds are
// the interfaces the three wrappers export, a wire reply frame, a works
// document, the branches of the parser's text paths and the oracle's leaves.
func FuzzParseXML(f *testing.F) {
	for _, i := range []*capability.Interface{
		o2wrap.New("o2artifact", datagen.PaperDB()).ExportInterface(),
		waiswrap.New("xmlartwork", datagen.NewWaisEngine(datagen.PaperWorks())).ExportInterface(),
		feed.New("feed", feed.NewStore()).ExportInterface(),
	} {
		f.Add(capability.Marshal(i))
	}
	rows := tab.New("$t", "$w")
	rows.AddRow(tab.Row{tab.AtomCell(data.String("Nympheas")), tab.TreeCell(datagen.PaperWorks()[0])})
	f.Add(`<chunk end="1" obs-ns="1200">` + tab.Marshal(rows) + `</chunk>`)
	f.Add(xmlenc.Serialize(datagen.PaperWorks()[0]))
	f.Add(`<a id="x" refs="p1 p2" k='v &amp; w'>t<![CDATA[<c>]]><!-- c --><b ref="p3"/></a>`)
	// A reference after other content, and one with content of its own, are
	// not a refs attribute's.
	f.Add(`<a><b/><ref ref="p"/></a>`)
	f.Add(`<a><ref ref="p" x="1">t</ref></a>`)
	// Text in several pieces: around an entity, a CDATA section and a
	// comment, each in one element and all in one.
	f.Add(`<a>x &lt; y</a>`)
	f.Add(`<a>x<![CDATA[ <y> ]]>z</a>`)
	f.Add(`<a>x<!-- c -->y</a>`)
	f.Add(`<a> x &amp; y<![CDATA[z]]> w <!-- c --> v </a>`)
	// White space to collapse: a tab, a newline and a no-break space.
	f.Add("<a>x\ty\nz\u00a0w</a>")
	// A single text that stays a child: beside attributes, under a reference.
	f.Add(`<a k="v">text</a>`)
	f.Add(`<a ref="p">text</a>`)
	for _, s := range oracleLeaves {
		f.Add("<l>" + s + "</l>")
	}
	f.Fuzz(func(t *testing.T, src string) {
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
