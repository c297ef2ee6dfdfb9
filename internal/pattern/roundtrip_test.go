package pattern

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/data"
)

// TestParseStringRoundTrip is the property test for the textual syntax:
// for randomly generated patterns (atoms, constants, unions, collections,
// wildcard labels, named refs, stars), re-parsing p.String() yields a
// pattern subsumption-equivalent to p under the same model. A seeded LCG
// keeps failures reproducible.

type patGen struct {
	state uint64
	n     int
}

func (g *patGen) next(n int) int {
	g.state = g.state*6364136223846793005 + 1442695040888963407
	return int((g.state >> 33) % uint64(n))
}

// genLabels includes names the printer must quote to survive re-parsing:
// XML-special characters ('.', ':', non-ASCII), digit-led names, reserved
// type names and collection constructor names used as plain element labels.
var genLabels = []string{
	"work", "artist", "title", "style", "price", "entry", "field",
	"xs:element", "my.tag", "Int", "Symbol", "set", "1862", "crémerie",
}

var genRefNames = []string{"RtA", "RtB", "RtC"}

func (g *patGen) pattern(depth int) *P {
	g.n++
	top := 10
	if depth <= 0 {
		top = 6 // atoms, consts and refs only
	}
	switch g.next(top) {
	case 0:
		return Int()
	case 1:
		return Float()
	case 2:
		return Str()
	case 3:
		return Bool()
	case 4:
		switch g.next(4) {
		case 0:
			return Const(data.Int(int64(g.next(100)) - 50))
		case 1:
			return Const(data.Float(float64(g.next(100)) + 0.5))
		case 2:
			return Const(data.Bool(g.next(2) == 0))
		default:
			return Const(data.String(fmt.Sprintf("s%d", g.next(10))))
		}
	case 5:
		return Ref(genRefNames[g.next(len(genRefNames))])
	case 6:
		// Two or more alternatives: a one-alt union renders as "(p)",
		// which the parser (correctly) collapses back to p.
		alts := make([]*P, 2+g.next(2))
		for i := range alts {
			alts[i] = g.pattern(depth - 1)
		}
		return Union(alts...)
	case 7:
		cols := []Col{ColSet, ColBag, ColList, ColArray}
		return Coll(cols[g.next(len(cols))], g.pattern(depth-1))
	case 8:
		p := NodeItems("", g.items(depth)...)
		p.AnyLabel = true
		return p
	default:
		return NodeItems(genLabels[g.next(len(genLabels))], g.items(depth)...)
	}
}

func (g *patGen) items(depth int) []Item {
	items := make([]Item, g.next(4))
	for i := range items {
		items[i] = Item{P: g.pattern(depth - 1), Star: g.next(3) == 0}
	}
	return items
}

func TestParseStringRoundTrip(t *testing.T) {
	g := &patGen{state: 20000531}
	m := NewModel("roundtrip")
	m.Define("RtA", Node("work", Str()))
	m.Define("RtB", Union(Int(), Ref("RtA")))
	m.Define("RtC", NodeItems("entry", Starred(Ref("RtC")), One(Int())))

	for i := 0; i < 1000; i++ {
		p := g.pattern(3)
		src := p.String()
		q, err := ParsePattern(src)
		if err != nil {
			t.Fatalf("#%d: ParsePattern(%q) failed: %v (from %#v)", i, src, err, p)
		}
		if !Subsumes(m, p, m, q) {
			t.Fatalf("#%d: reparsed pattern not subsumed by original\n  src: %s\n  got: %s", i, src, q)
		}
		if !Subsumes(m, q, m, p) {
			t.Fatalf("#%d: original not subsumed by reparsed pattern\n  src: %s\n  got: %s", i, src, q)
		}
		// String must be stable across the round trip, too.
		if q.String() != src {
			t.Fatalf("#%d: String not stable: %q -> %q", i, src, q.String())
		}
	}
}

// TestLabelRoundTrip pins the quoting rules for node labels that do not
// lex as plain identifiers or that collide with reserved spellings: XML
// qualified names, dotted names, digit-led names, names with quotes or
// backslashes, and reserved words used as element labels. Each must render,
// re-parse to an identical structure, and render stably.
func TestLabelRoundTrip(t *testing.T) {
	labels := []string{
		"xs:element", "my.tag", "svg.path.d", "1862", "crémerie",
		"a b", `qu"ote`, `back\slash`, "<angle>", "&amp;",
		"Int", "Float", "Bool", "String", "Any", "Symbol",
		"true", "false", "model", "set", "bag", "list", "array",
	}
	for _, label := range labels {
		for _, p := range []*P{
			Node(label),                             // leaf: renders as label[]
			Node(label, Str()),                      // scalar abbreviation: label: String
			Node(label, Node("work", Int()), Str()), // bracketed sequence
		} {
			src := p.String()
			q, err := ParsePattern(src)
			if err != nil {
				t.Fatalf("label %q: ParsePattern(%q) failed: %v", label, src, err)
			}
			if q.Kind != KNode || q.Label != label || q.AnyLabel || q.Col != ColNone {
				t.Fatalf("label %q: re-parsed %q to %#v", label, src, q)
			}
			if q.String() != src {
				t.Fatalf("label %q: String not stable: %q -> %q", label, src, q.String())
			}
			if !Subsumes(nil, p, nil, q) || !Subsumes(nil, q, nil, p) {
				t.Fatalf("label %q: not equivalent after round trip (%s)", label, src)
			}
		}
	}
	// A collection node keeps its bare spelling and its kind.
	c := Coll(ColSet, Str())
	if got := c.String(); !strings.HasPrefix(got, "set[") {
		t.Fatalf("collection rendering changed: %q", got)
	}
	q, err := ParsePattern(c.String())
	if err != nil || q.Col != ColSet {
		t.Fatalf("collection round trip: %v, col %v", err, q.Col)
	}
}

// TestParseModelRoundTrip does the same for whole models: render with
// Model.String, re-parse, and check every definition equivalent.
func TestParseModelRoundTrip(t *testing.T) {
	g := &patGen{state: 971112}
	for i := 0; i < 50; i++ {
		m := NewModel("m")
		m.Define("RtA", Node("work", Str()))
		// A definition that is a bare reference can form a pure ref cycle
		// (RtB := &RtB), which resolve() treats as undefined — wrap those.
		def := func(name string, p *P) {
			if p.Kind == KRef {
				p = Node("entry", p)
			}
			m.Define(name, p)
		}
		def("RtB", g.pattern(2))
		def("RtC", g.pattern(3))
		src := m.String()
		m2, err := ParseModel(src)
		if err != nil {
			t.Fatalf("#%d: ParseModel failed: %v\n%s", i, err, src)
		}
		for _, name := range m.Names() {
			p, q := m.Lookup(name), m2.Lookup(name)
			if q == nil {
				t.Fatalf("#%d: %s lost in round trip\n%s", i, name, src)
			}
			if !Subsumes(m, p, m2, q) || !Subsumes(m2, q, m, p) {
				t.Fatalf("#%d: %s not equivalent after round trip\n%s", i, name, src)
			}
		}
	}
}
