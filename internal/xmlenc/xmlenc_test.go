package xmlenc

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/data"
)

// figure1Object is the first object of Figure 1 of the paper.
const figure1Object = `
<object id="a1" class="artifact">
  <tuple>
    <title> Nympheas </title>
    <year> 1897 </year>
    <creator> Claude Monet </creator>
  </tuple>
  <owners refs="p1 p2 p3"/>
</object>`

func TestParseFigure1Object(t *testing.T) {
	n, err := Parse(figure1Object)
	if err != nil {
		t.Fatal(err)
	}
	if n.Label != "object" || n.ID != "a1" {
		t.Fatalf("root = %v", n)
	}
	if got := n.Child("@class").Atom.S; got != "artifact" {
		t.Errorf("class attr = %q", got)
	}
	tup := n.Child("tuple")
	if tup == nil || len(tup.Kids) != 3 {
		t.Fatalf("tuple = %v", tup)
	}
	if got := tup.Child("title").Atom.S; got != "Nympheas" {
		t.Errorf("title = %q (whitespace should be trimmed)", got)
	}
	owners := n.Child("owners")
	if len(owners.Kids) != 3 {
		t.Fatalf("owners = %v", owners)
	}
	for i, id := range []string{"p1", "p2", "p3"} {
		if owners.Kids[i].Ref != id {
			t.Errorf("owners[%d].Ref = %q, want %q", i, owners.Kids[i].Ref, id)
		}
	}
}

func TestParseMixedContent(t *testing.T) {
	src := `<history>Painted with <technique>Oil on canvas</technique> in ...</history>`
	n, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Kids) != 3 {
		t.Fatalf("mixed content kids = %d: %v", len(n.Kids), n)
	}
	if n.Kids[0].Atom.S != "Painted with" || n.Kids[1].Label != "technique" || n.Kids[2].Atom.S != "in ..." {
		t.Errorf("mixed parse = %v", n)
	}
	// Text in pieces before a child is one leaf, and nothing of it is left
	// over for the closing tag.
	n, err = Parse(`<a>x<!-- c --><![CDATA[<y>]]>&amp;<b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Kids) != 2 || n.Kids[0].Atom.S != "x<y>&" || n.Kids[1].Label != "b" || n.Atom != nil {
		t.Errorf("pieces then a child = %v", n)
	}
}

func TestParseEntitiesAndCDATA(t *testing.T) {
	n, err := Parse(`<size>21 &lt; 61 &amp; more &#65;<![CDATA[<raw>]]></size>`)
	if err != nil {
		t.Fatal(err)
	}
	want := "21 < 61 & more A<raw>"
	if got := n.TextContent(); got != want {
		t.Errorf("text = %q, want %q", got, want)
	}
	if _, err := Parse(`<a>&bogus;</a>`); err == nil {
		t.Error("unknown entity must fail")
	}
	if _, err := Parse(`<a>&#xZZ;</a>`); err == nil {
		t.Error("bad char ref must fail")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`plain text`,
		`<a>`,
		`<a></b>`,
		`<a attr></a>`,
		`<a attr=>`,
		`<a attr="x></a>`,
		`<a><!-- unterminated</a>`,
		`<a/><b/>`,
		`<a/>trailing`,
		`<1tag/>`,
		`<a /b>`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("<a>\n<b>\n</c>\n</a>")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("expected ParseError, got %v", err)
	}
	if pe.Line != 3 {
		t.Errorf("error line = %d, want 3", pe.Line)
	}
	if !strings.Contains(pe.Error(), "mismatched") {
		t.Errorf("error message = %q", pe.Error())
	}
}

func TestPrologCommentsDoctype(t *testing.T) {
	src := `<?xml version="1.0"?>
<!DOCTYPE doc [<!ELEMENT doc ANY>]>
<!-- a comment -->
<doc><x>1</x></doc>
<!-- trailing -->`
	n, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if n.Label != "doc" || n.Child("x").Atom.S != "1" {
		t.Errorf("parsed = %v", n)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	orig := data.Elem("object",
		data.Text("@class", "artifact"),
		data.Elem("tuple",
			data.Text("title", "Nymphéas & friends"),
			data.Text("creator", `Claude "Oscar" Monet`),
		),
		data.Elem("owners", data.RefNode("ref", "p1"), data.RefNode("ref", "p2")),
		data.Elem("empty"),
	).WithID("a1")
	xmlText := Serialize(orig)
	back, err := Parse(xmlText)
	if err != nil {
		t.Fatalf("reparse %q: %v", xmlText, err)
	}
	if !data.Equal(orig, back) {
		t.Errorf("round trip mismatch:\norig: %v\nback: %v\nxml: %s", orig, back, xmlText)
	}
}

func TestSerializeRefsAttribute(t *testing.T) {
	n := data.Elem("owners", data.RefNode("ref", "p1"), data.RefNode("ref", "p2"))
	s := Serialize(n)
	if s != `<owners refs="p1 p2"/>` {
		t.Errorf("Serialize = %q", s)
	}
}

func TestSerializeIndent(t *testing.T) {
	n := data.Elem("work", data.Text("artist", "Claude Monet"), data.Text("title", "Nympheas"))
	s := SerializeIndent(n)
	want := "<work>\n  <artist>Claude Monet</artist>\n  <title>Nympheas</title>\n</work>\n"
	if s != want {
		t.Errorf("SerializeIndent = %q, want %q", s, want)
	}
}

func TestSerializeRefNode(t *testing.T) {
	n := data.RefNode("owner", "p1")
	s := Serialize(n)
	back, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Ref != "p1" || back.Label != "owner" {
		t.Errorf("ref round trip = %v via %q", back, s)
	}
}

func TestForestRoundTrip(t *testing.T) {
	f := data.Forest{
		data.Text("a", "1"),
		data.Elem("b", data.Text("c", "2")),
	}
	s := SerializeForest(f)
	back, err := ParseForest(s)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(back) {
		t.Errorf("forest round trip: %v -> %q -> %v", f, s, back)
	}
	empty, err := ParseForest("  \n ")
	if err != nil || len(empty) != 0 {
		t.Errorf("empty forest parse = %v, %v", empty, err)
	}
}

func TestEscape(t *testing.T) {
	if got := Escape(`<a&"'>`); got != "&lt;a&amp;&quot;&apos;&gt;" {
		t.Errorf("Escape = %q", got)
	}
}

func TestInferAtoms(t *testing.T) {
	n := data.Elem("work",
		data.Text("year", "1897"),
		data.Text("price", "1500000.5"),
		data.Text("sold", "true"),
		data.Text("title", "Nympheas"),
	)
	year := n.Child("year").Atom
	InferAtoms(n)
	if n.Child("year").Atom.Kind != data.KindInt || n.Child("year").Atom.I != 1897 {
		t.Errorf("year = %v", n.Child("year").Atom)
	}
	if n.Child("price").Atom.Kind != data.KindFloat {
		t.Errorf("price = %v", n.Child("price").Atom)
	}
	if n.Child("sold").Atom.Kind != data.KindBool || !n.Child("sold").Atom.B {
		t.Errorf("sold = %v", n.Child("sold").Atom)
	}
	if n.Child("title").Atom.Kind != data.KindString {
		t.Errorf("title = %v", n.Child("title").Atom)
	}
	// typed in place: the leaf keeps its atom, which now holds the Int
	if n.Child("year").Atom != year || year.Kind != data.KindInt {
		t.Error("InferAtoms must type the tree's own atoms in place")
	}
}

// genXMLTree builds a random tree whose shape survives XML round-tripping:
// labels non-empty, string atoms space-collapsed, no bare text kids.
func genXMLTree(seed int64, depth int) *data.Node {
	labels := []string{"work", "title", "artist", "style", "owners", "person", "doc"}
	s := seed
	next := func(n int64) int64 {
		s = s*6364136223846793005 + 1442695040888963407
		v := (s >> 33) % n
		if v < 0 {
			v = -v
		}
		return v
	}
	var build func(d int) *data.Node
	build = func(d int) *data.Node {
		l := labels[next(int64(len(labels)))]
		if d <= 0 || next(3) == 0 {
			switch next(3) {
			case 0:
				return data.IntLeaf(l, next(100000))
			case 1:
				return data.Text(l, "v"+labels[next(int64(len(labels)))])
			default:
				return data.RefNode(l, "id"+labels[next(int64(len(labels)))])
			}
		}
		n := data.Elem(l)
		k := int(next(4))
		for i := 0; i < k; i++ {
			n.Add(build(d - 1))
		}
		return n
	}
	return build(depth)
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		orig := genXMLTree(seed, 4)
		back, err := Parse(Serialize(orig))
		if err != nil {
			t.Logf("seed %d: parse error %v on %q", seed, err, Serialize(orig))
			return false
		}
		// Int atoms come back as strings from XML; retype before comparing.
		InferAtoms(orig)
		InferAtoms(back)
		return data.EqualValue(orig, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEscapeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		// Serialize then parse a leaf containing arbitrary text.
		clean := strings.Join(strings.Fields(s), " ") // parser collapses whitespace
		if strings.ContainsAny(clean, "\x00") {
			return true
		}
		for _, r := range clean {
			if r < 0x20 {
				return true // control chars are not representable in XML 1.0
			}
		}
		n := data.Text("t", clean)
		back, err := Parse(Serialize(n))
		if err != nil {
			return false
		}
		if clean == "" {
			return true // <t></t> parses as empty element, not empty text
		}
		return back.Atom != nil && back.Atom.S == clean
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
