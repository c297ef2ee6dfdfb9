package pattern

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/xmlenc"
)

// artifactsSchema is the Artifacts schema of Figure 3, in textual syntax.
const artifactsSchemaSrc = `
model artifacts
Artifact := class[ artifact: tuple[ title: String, year: Int, creator: String,
                                    price: Float, owners: list[ *&Person ] ] ]
Person   := class[ person: tuple[ name: String, auction: Float ] ]
`

// artworksStructure is the partially structured Artworks structure of
// Figure 3: mandatory elements followed by any additional fields.
const artworksStructureSrc = `
model artworks
Works := works[ *&Work ]
Work  := work[ artist: String, title: String, style: String, size: String,
               *&Field ]
Field := Symbol[ *( Int | Float | Bool | String | &Field ) ]
`

func artifactsSchema() *Model   { return MustParseModel(artifactsSchemaSrc) }
func artworksStructure() *Model { return MustParseModel(artworksStructureSrc) }

func monetWork(extra ...*data.Node) *data.Node {
	w := data.Elem("work",
		data.Text("artist", "Claude Monet"),
		data.Text("title", "Nympheas"),
		data.Text("style", "Impressionist"),
		data.Text("size", "21 x 61"),
	)
	return w.Add(extra...)
}

func monetArtifact() *data.Node {
	return data.Elem("class",
		data.Elem("artifact",
			data.Elem("tuple",
				data.Text("title", "Nympheas"),
				data.IntLeaf("year", 1897),
				data.Text("creator", "Claude Monet"),
				data.FloatLeaf("price", 1500000),
				data.Elem("owners", data.Elem("list",
					data.RefNode("Person", "p1"),
					data.RefNode("Person", "p2"),
				)),
			),
		),
	).WithID("a1")
}

func TestParseRendersBack(t *testing.T) {
	cases := []string{
		"Int",
		"String",
		"Any",
		`"Giverny"`,
		"&Person",
		"(Int | Float)",
		"work[ title: String, *&Field ]",
		"set[ *&Type ]",
		"Symbol[ *&Tree ]",
		"tuple[]",
	}
	for _, src := range cases {
		p, err := ParsePattern(src)
		if err != nil {
			t.Errorf("ParsePattern(%q): %v", src, err)
			continue
		}
		back, err := ParsePattern(p.String())
		if err != nil {
			t.Errorf("reparse of %q (%q): %v", src, p.String(), err)
			continue
		}
		if back.String() != p.String() {
			t.Errorf("print/parse not stable: %q -> %q -> %q", src, p.String(), back.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"work[",
		"work[ *, ]",
		"&",
		"( Int | )",
		"]",
		`"unterminated`,
		"work[ Int ] extra",
		"1.2.3",
	}
	for _, src := range bad {
		if _, err := ParsePattern(src); err == nil {
			t.Errorf("ParsePattern(%q) should fail", src)
		}
	}
}

func TestParseModelErrors(t *testing.T) {
	bad := []string{
		"",
		"notmodel x",
		"model",
		"model m X = Int",
		"model m X := ",
		"model m 42 := Int",
	}
	for _, src := range bad {
		if _, err := ParseModel(src); err == nil {
			t.Errorf("ParseModel(%q) should fail", src)
		}
	}
}

func TestMatchDataAtoms(t *testing.T) {
	cases := []struct {
		p    *P
		n    *data.Node
		want bool
	}{
		{Int(), data.IntLeaf("x", 5), true},
		{Int(), data.FloatLeaf("x", 5), false},
		{Float(), data.IntLeaf("x", 5), true}, // numeric widening
		{Float(), data.FloatLeaf("x", 5), true},
		{Str(), data.Text("x", "hi"), true},
		{Str(), data.IntLeaf("x", 5), false},
		{Bool(), data.BoolLeaf("x", true), true},
		{Const(data.String("Giverny")), data.Text("x", "Giverny"), true},
		{Const(data.String("Giverny")), data.Text("x", "Paris"), false},
		{Any(), data.Elem("anything"), true},
	}
	for i, c := range cases {
		if got := MatchData(nil, c.p, c.n); got != c.want {
			t.Errorf("case %d: MatchData(%v, %v) = %v, want %v", i, c.p, c.n, got, c.want)
		}
	}
}

func TestMatchDataWork(t *testing.T) {
	m := artworksStructure()
	work := m.Lookup("Work")
	if !MatchData(m, work, monetWork()) {
		t.Error("mandatory-only work must match")
	}
	withExtra := monetWork(data.Text("cplace", "Giverny"), data.Text("history", "..."))
	if !MatchData(m, work, withExtra) {
		t.Error("work with extra fields must match (star of Field)")
	}
	missing := data.Elem("work", data.Text("artist", "X"))
	if MatchData(m, work, missing) {
		t.Error("work missing mandatory elements must not match")
	}
	wrongOrder := data.Elem("work",
		data.Text("title", "T"), data.Text("artist", "A"),
		data.Text("style", "S"), data.Text("size", "Z"))
	if MatchData(m, work, wrongOrder) {
		t.Error("ordered sequence: swapped mandatory elements must not match")
	}
}

func TestMatchDataArtifact(t *testing.T) {
	m := artifactsSchema()
	if !MatchData(m, m.Lookup("Artifact"), monetArtifact()) {
		t.Error("Monet artifact must match the Artifact schema")
	}
	bad := monetArtifact()
	bad.Kids[0].Kids[0].Kids[1] = data.Text("year", "not a number")
	if MatchData(m, m.Lookup("Artifact"), bad) {
		t.Error("string year must not match Int")
	}
}

func TestMatchDataSetUnordered(t *testing.T) {
	p := MustParse("set[ *Int ]")
	if !MatchData(nil, p, data.Elem("set", data.IntLeaf("x", 1), data.IntLeaf("y", 2))) {
		t.Error("set of ints should match")
	}
	mixed := MustParse("tuple[ a: Int, b: String ]")
	ordered := data.Elem("tuple", data.IntLeaf("a", 1), data.Text("b", "x"))
	if !MatchData(nil, mixed, ordered) {
		t.Error("tuple in order should match")
	}
}

func TestMatchUnorderedRequired(t *testing.T) {
	// set with one required and one starred member pattern
	p := &P{Kind: KNode, Label: "set", Col: ColSet, Items: []Item{
		{P: Node("a", Int())},
		{P: Node("b", Str()), Star: true},
	}}
	ok := data.Elem("set", data.Text("b", "x"), data.IntLeaf("a", 1))
	if !MatchData(nil, p, ok) {
		t.Error("unordered match with required item in any position")
	}
	missing := data.Elem("set", data.Text("b", "x"))
	if MatchData(nil, p, missing) {
		t.Error("required member missing must fail")
	}
	stranger := data.Elem("set", data.IntLeaf("a", 1), data.Text("c", "x"))
	if MatchData(nil, p, stranger) {
		t.Error("unmatched member must fail")
	}
}

func TestMatchDataRefs(t *testing.T) {
	m := artifactsSchema()
	// references inside data match node patterns shallowly
	listP := MustParse("list[ *&Person ]")
	n := data.Elem("list", data.RefNode("Person", "p1"))
	if !MatchData(m, listP, n) {
		t.Error("reference member should match class pattern shallowly")
	}
}

func TestSubsumesBasics(t *testing.T) {
	cases := []struct {
		p, q string
		want bool
	}{
		{"Any", "work[ Int ]", true},
		{"Int", "Int", true},
		{"Float", "Int", true},
		{"Int", "Float", false},
		{"Int", "42", true},
		{"String", `"Giverny"`, true},
		{"Int", `"Giverny"`, false},
		{"(Int | String)", "Int", true},
		{"(Int | String)", "(String | Int)", true},
		{"Int", "(Int | String)", false},
		{"work[ title: String ]", "work[ title: String ]", true},
		{"work[ title: String ]", "work[ title: Any ]", false},
		{"work[ title: Any ]", "work[ title: String ]", true},
		{"Symbol[ Int ]", "work[ Int ]", true},
		{"work[ Int ]", "Symbol[ Int ]", false},
		{"work[ *Int ]", "work[ Int, Int ]", true},
		{"work[ Int, Int ]", "work[ *Int ]", false},
		{"work[ a: Int, *Symbol[ String ] ]", "work[ a: Int, b: String, c: String ]", true},
		{"work[ *(Int | String) ]", "work[ *Int, *String ]", true},
		{"work[ *Int ]", "work[ *Int, *String ]", false},
		{"set[ *Int ]", "set[ *Int ]", true},
		{"set[ *Int ]", "bag[ *Int ]", false}, // collection kinds differ
		{"work[ *Int ]", "work[]", true},
		{"work[]", "work[ Int ]", false},
	}
	for i, c := range cases {
		p, q := MustParse(c.p), MustParse(c.q)
		if got := Subsumes(nil, p, nil, q); got != c.want {
			t.Errorf("case %d: Subsumes(%s, %s) = %v, want %v", i, c.p, c.q, got, c.want)
		}
	}
}

func TestFigure3Instantiation(t *testing.T) {
	yat := YATModel()
	odmg := ODMGModel()
	arts := artifactsSchema()
	works := artworksStructure()

	if !InstanceOfModel(yat, odmg) {
		t.Error("ODMG <: YAT must hold")
	}
	if !InstanceOfModel(odmg, arts) {
		t.Error("Artifacts <: ODMG must hold")
	}
	if !InstanceOfModel(yat, arts) {
		t.Error("Artifacts <: YAT must hold (transitivity through the chain)")
	}
	if !InstanceOfModel(yat, works) {
		t.Error("Artworks <: YAT must hold")
	}
	if InstanceOfModel(odmg, works) {
		t.Error("Artworks is partially structured; it is not an ODMG instance")
	}
	// And data-level: the Monet artifact instantiates its schema class,
	// whose pattern instantiates the ODMG Class.
	if !Subsumes(odmg, odmg.Lookup("Class"), arts, arts.Lookup("Artifact")) {
		t.Error("Artifact <: Class must hold")
	}
	if !MatchData(arts, arts.Lookup("Artifact"), monetArtifact()) {
		t.Error("data <: schema must hold")
	}
}

func TestSubsumesRecursive(t *testing.T) {
	// Mutually recursive patterns: Fields may nest fields.
	m1 := MustParseModel(`model a
F := Symbol[ *( String | &F ) ]`)
	m2 := MustParseModel(`model b
G := cplace[ *( "Giverny" | &G ) ]`)
	if !Subsumes(m1, m1.Lookup("F"), m2, m2.Lookup("G")) {
		t.Error("recursive G must instantiate recursive F")
	}
	m3 := MustParseModel(`model c
H := cplace[ *( Int | &H ) ]`)
	if Subsumes(m1, m1.Lookup("F"), m3, m3.Lookup("H")) {
		t.Error("Int fields do not instantiate String-only F")
	}
}

func TestSubsumesReflexiveOnSchemas(t *testing.T) {
	for _, m := range []*Model{artifactsSchema(), artworksStructure(), ODMGModel(), YATModel()} {
		for _, name := range m.Names() {
			if !Subsumes(m, m.Defs[name], m, m.Defs[name]) {
				t.Errorf("%s.%s must subsume itself", m.Name, name)
			}
		}
	}
}

func TestMatchImpliesSubsumedMatch(t *testing.T) {
	// If data matches q and q <: p then data matches p (soundness of
	// subsumption wrt matching) — checked on the cultural fixtures.
	m := artifactsSchema()
	odmg := ODMGModel()
	d := monetArtifact()
	if !MatchData(m, m.Lookup("Artifact"), d) {
		t.Fatal("fixture must match its schema")
	}
	if !Subsumes(odmg, odmg.Lookup("Class"), m, m.Lookup("Artifact")) {
		t.Fatal("Artifact <: Class")
	}
	if !MatchData(odmg, odmg.Lookup("Class"), d) {
		t.Error("data matching Artifact must match Class")
	}
}

// Every definition of the built-in and fixture models survives the XML codec
// (models themselves travel as text; see TestParseModelRoundTrip).
func TestModelPatternsXMLRoundTrip(t *testing.T) {
	for _, m := range []*Model{artifactsSchema(), artworksStructure(), ODMGModel(), YATModel()} {
		for _, n := range m.Names() {
			back, err := FromXML(ToXML(m.Defs[n]))
			if err != nil {
				t.Fatalf("model %s pattern %s: %v", m.Name, n, err)
			}
			if !reflect.DeepEqual(back, m.Defs[n]) {
				t.Errorf("model %s pattern %s: %s -> %s", m.Name, n, m.Defs[n], back)
			}
		}
	}
}

func TestPatternXMLErrors(t *testing.T) {
	bad := []string{
		`<leaf label="Complex"/>`,
		`<ref/>`,
		`<const type="Int" value="xx"/>`,
		`<const type="Float" value="xx"/>`,
		`<const type="Float" value="NaN"/>`,
		`<const type="Void" value="1"/>`,
		`<unknown/>`,
		`<node label="a"><star/></node>`,
	}
	for _, src := range bad {
		n, err := xmlenc.Parse(src)
		if err != nil {
			t.Fatalf("fixture %q: %v", src, err)
		}
		if _, err := FromXML(n); err == nil {
			t.Errorf("FromXML(%q) should fail", src)
		}
	}
}

// genPattern produces a pseudo-random closed pattern.
func genPattern(seed int64, depth int) *P {
	labels := []string{"work", "title", "artist", "owners", "set", "tuple"}
	s := seed
	next := func(n int64) int64 {
		s = s*6364136223846793005 + 1442695040888963407
		v := (s >> 33) % n
		if v < 0 {
			v = -v
		}
		return v
	}
	var build func(d int) *P
	build = func(d int) *P {
		if d <= 0 || next(4) == 0 {
			switch next(5) {
			case 0:
				return Int()
			case 1:
				return Str()
			case 2:
				return Float()
			case 3:
				return Const(data.String(labels[next(int64(len(labels)))]))
			default:
				return Any()
			}
		}
		switch next(5) {
		case 0:
			return Union(build(d-1), build(d-1))
		default:
			l := labels[next(int64(len(labels)))]
			n := &P{Kind: KNode, Label: l, Col: ColFromString(l)}
			if next(5) == 0 {
				n.Label, n.AnyLabel = "", true
			}
			k := int(next(3))
			for i := 0; i < k; i++ {
				n.Items = append(n.Items, Item{P: build(d - 1), Star: next(3) == 0})
			}
			return n
		}
	}
	return build(depth)
}

func TestPropertySubsumesReflexive(t *testing.T) {
	f := func(seed int64) bool {
		p := genPattern(seed, 4)
		return Subsumes(nil, p, nil, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAnySubsumesAll(t *testing.T) {
	f := func(seed int64) bool {
		return Subsumes(nil, Any(), nil, genPattern(seed, 4))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyXMLRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		p := genPattern(seed, 4)
		back, err := FromXML(ToXML(p))
		if err != nil {
			return false
		}
		return back.String() == p.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPrintParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		p := genPattern(seed, 4)
		back, err := ParsePattern(p.String())
		if err != nil {
			t.Logf("seed %d: %q: %v", seed, p.String(), err)
			return false
		}
		return back.String() == p.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
