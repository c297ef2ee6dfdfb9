package capability

import (
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/filter"
	"repro/internal/pattern"
	"repro/internal/xmlenc"
)

// o2InterfaceXML transcribes Figure 6 of the paper: the O₂ filter patterns
// and operational interface (extended with an Fextent pattern governing
// binds over the artifacts extent, and the persons extent used by the
// DJoin-to-Join rewriting of Figure 7).
const o2InterfaceXML = `
<interface name="o2artifact">
 <fmodel name="o2fmodel">
  <fpattern name="Fclass">
   <node label="class" bind="tree">
    <node label="Symbol" bind="none" inst="ground">
     <ref pattern="Ftype"/></node></node>
  </fpattern>
  <fpattern name="Ftype">
   <union>
    <leaf label="Int"/>
    <leaf label="Bool"/>
    <leaf label="Float"/>
    <leaf label="String"/>
    <node label="tuple" bind="tree">
     <star inst="ground">
      <node label="Symbol" bind="none">
       <ref pattern="Ftype"/></node></star></node>
    <node label="set" col="set" bind="tree">
     <star inst="none"><ref pattern="Ftype"/></star></node>
    <node label="bag" col="bag" bind="tree">
     <star inst="none"><ref pattern="Ftype"/></star></node>
    <node label="list" col="list" bind="tree">
     <star inst="none"><ref pattern="Ftype"/></star></node>
    <node label="array" col="array" bind="tree">
     <star inst="none"><ref pattern="Ftype"/></star></node>
    <ref pattern="Fclass"/>
   </union>
  </fpattern>
  <fpattern name="Fextent">
   <node label="set" col="set" bind="tree">
    <star inst="none"><ref pattern="Fclass"/></star></node>
  </fpattern>
 </fmodel>
 <bindcap doc="artifacts" fmodel="o2fmodel" fpattern="Fextent"/>
 <bindcap doc="persons" fmodel="o2fmodel" fpattern="Fextent"/>
 <operation name="bind" kind="algebra">
  <input>
   <value model="o2model" pattern="Type"/>
   <filter model="o2fmodel" pattern="Ftype"/></input>
  <output><value model="yat" pattern="Tab"/></output>
 </operation>
 <operation name="select" kind="algebra"></operation>
 <operation name="project" kind="algebra"></operation>
 <operation name="join" kind="algebra"></operation>
 <operation name="map" kind="algebra"></operation>
 <operation name="eq" kind="boolean"></operation>
 <operation name="leq" kind="boolean"></operation>
 <operation name="current_price" kind="method">
  <input><value model="artifacts" pattern="Artifact"/></input>
  <output><leaf label="Float"/></output>
 </operation>
</interface>`

// waisInterfaceXML transcribes the XML-Wais interface of Section 4.2.
const waisInterfaceXML = `
<interface name="xmlartwork">
 <fmodel name="waisfmodel">
  <fpattern name="Fworks">
   <node label="works" bind="none" inst="ground">
    <star inst="none">
     <ref pattern="work" bind="tree"/>
    </star></node>
  </fpattern>
 </fmodel>
 <bindcap doc="works" fmodel="waisfmodel" fpattern="Fworks"/>
 <operation name="bind" kind="algebra"></operation>
 <operation name="select" kind="algebra"></operation>
 <operation name="contains" kind="external">
  <input>
   <value model="Artworks_Structure" pattern="Work"/>
   <leaf label="String"/></input>
  <output><leaf label="Bool"/></output>
 </operation>
 <equivalence name="contains-eq" from="eq" to="contains" scope="work"/>
</interface>`

func o2Interface(t *testing.T) *Interface {
	t.Helper()
	i, err := Unmarshal(o2InterfaceXML)
	if err != nil {
		t.Fatal(err)
	}
	return i
}

func waisInterface(t *testing.T) *Interface {
	t.Helper()
	i, err := Unmarshal(waisInterfaceXML)
	if err != nil {
		t.Fatal(err)
	}
	return i
}

func TestFigure6ParseO2(t *testing.T) {
	i := o2Interface(t)
	if i.Name != "o2artifact" {
		t.Errorf("name = %q", i.Name)
	}
	m := i.FModel("o2fmodel")
	if m == nil {
		t.Fatal("missing fmodel")
	}
	if len(m.Names()) != 3 {
		t.Errorf("fpatterns = %v", m.Names())
	}
	ftype := m.Lookup("Ftype")
	if ftype == nil || len(ftype.Alts) != 10 {
		t.Fatalf("Ftype = %v", ftype)
	}
	if !i.HasOperation("bind") || !i.HasOperation("eq") || i.HasOperation("contains") {
		t.Error("operation set wrong")
	}
	op := i.Operation("current_price")
	if op == nil || op.Kind != "method" || op.Output == nil || op.Output.Leaf != "Float" {
		t.Errorf("current_price = %+v", op)
	}
}

func TestInterfaceXMLRoundTrip(t *testing.T) {
	for _, src := range []string{o2InterfaceXML, waisInterfaceXML} {
		i, err := Unmarshal(src)
		if err != nil {
			t.Fatal(err)
		}
		s := Marshal(i)
		back, err := Unmarshal(s)
		if err != nil {
			t.Fatalf("reparse: %v\n%s", err, s)
		}
		if Marshal(back) != s {
			t.Errorf("round trip unstable for %s", i.Name)
		}
		if len(back.Operations) != len(i.Operations) || len(back.Binds) != len(i.Binds) {
			t.Errorf("lost operations/binds in round trip")
		}
	}
}

// view1ArtifactsFilter is the artifacts-side Bind filter of the view1
// integration program; per Section 4.1 it is entirely acceptable to O₂.
const view1ArtifactsFilter = `set[ *class[ artifact.tuple[ title: $t, year: $y, creator: $c, price: $p,
	owners.list[ *class[ person.tuple[ name: $o, auction: $au ] ] ] ] ] ]`

func TestO2AcceptsView1Filter(t *testing.T) {
	i := o2Interface(t)
	f := filter.MustParse(view1ArtifactsFilter)
	if err := i.AcceptsFilter("artifacts", f); err != nil {
		t.Errorf("O2 must accept the view1 artifacts filter: %v", err)
	}
}

func TestO2Acceptance(t *testing.T) {
	i := o2Interface(t)
	cases := []struct {
		name string
		src  string
		ok   bool
	}{
		{"whole extent", `set[ *class@$c ]`, true},
		{"tree var on class", `set[ *class@$c[ artifact.tuple[ title: $t ] ] ]`, true},
		{"schema query (label var on class name)", `set[ *class[ ~$name: @Any ] ]`, false},
		{"label var on attributes", `set[ *class[ artifact.tuple[ *~$attr: $v ] ] ]`, false},
		{"wildcard class name ok if ground label", `set[ *class[ artifact: @Any ] ]`, true},
		{"generic class name not ground", `set[ *class[ %[ tuple[ title: $t ] ] ] ]`, false},
		{"enumerating set members", `set[ class[ artifact.tuple[ title: $t ] ] ]`, false},
		{"descend", `set[ *class[ **title: $t ] ]`, false},
		{"collect star over tuple attrs", `set[ *class[ artifact.tuple[ title: $t, *($rest) ] ] ]`, false},
		{"constant leaf", `set[ *class[ artifact.tuple[ creator: "Claude Monet" ] ] ]`, true},
		{"unknown doc", `set[ *class@$c ]`, true},
	}
	for _, c := range cases {
		f := filter.MustParse(c.src)
		err := i.AcceptsFilter("artifacts", f)
		if (err == nil) != c.ok {
			t.Errorf("%s: AcceptsFilter(%s) = %v, want ok=%v", c.name, c.src, err, c.ok)
		}
	}
	if err := i.AcceptsFilter("nosuchdoc", filter.MustParse(`set[ *class@$c ]`)); err == nil {
		t.Error("unknown document must be rejected")
	}
}

func TestWaisAcceptance(t *testing.T) {
	i := waisInterface(t)
	cases := []struct {
		name string
		src  string
		ok   bool
	}{
		{"bind whole documents", `works[ *work@$w ]`, true},
		{"navigate inside documents", `works[ *work[ title: $t ] ]`, false},
		{"bind the works root", `works@$all[ *work@$w ]`, false},
		{"single work", `works[ work@$w ]`, false},
		{"collect works", `works[ *($docs) ]`, true},
	}
	for _, c := range cases {
		f := filter.MustParse(c.src)
		err := i.AcceptsFilter("works", f)
		if (err == nil) != c.ok {
			t.Errorf("%s: AcceptsFilter(%s) = %v, want ok=%v", c.name, c.src, err, c.ok)
		}
	}
}

func TestEquivalenceLookup(t *testing.T) {
	i := waisInterface(t)
	eq := i.EquivalenceTo("contains")
	if eq == nil || eq.From != "eq" || eq.Scope != "work" {
		t.Fatalf("equivalence = %+v", eq)
	}
	if o2Interface(t).EquivalenceTo("contains") != nil {
		t.Error("O2 declares no contains equivalence")
	}
}

// An Fpattern that does not read fails the interface, naming the fpattern.
func TestFTXMLErrors(t *testing.T) {
	bad := []string{
		`<leaf label="Void"/>`,
		`<ref/>`,
		`<mystery/>`,
		`<node label="a"><star/></node>`,
	}
	for _, src := range bad {
		err := unmarshalErr(`<interface name="x"><fmodel name="m"><fpattern name="p">` + src + `</fpattern></fmodel></interface>`)
		if err == nil || !strings.Contains(err.Error(), `fpattern "p"`) {
			t.Errorf("fpattern %q: error %v must name the fpattern", src, err)
		}
	}
	if unmarshalErr(`<notaninterface/>`) == nil {
		t.Error("non-interface root must fail")
	}
	if unmarshalErr(`<interface name="x"><fmodel name="m"><fpattern name="p"></fpattern></fmodel></interface>`) == nil {
		t.Error("empty fpattern must fail")
	}
}

func unmarshalErr(src string) error {
	_, err := Unmarshal(src)
	return err
}

func parseXMLFixture(src string) (*data.Node, error) { return xmlenc.Parse(src) }

// TestStructureXMLRoundTrip covers the piece TestInterfaceXMLRoundTrip's
// fixtures predate: structural schemas (Interface.Structures) must survive
// the wire — the mediator's plan typing is seeded entirely from what
// arrives here, so a schema lost or corrupted in transit silently turns
// every type check into a no-op.
func TestStructureXMLRoundTrip(t *testing.T) {
	works, err := pattern.ParseModel(
		`model wrapworks
		Works := works[ *work[ artist[String], title[String], style[String] ] ]`)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := pattern.ParseModel(
		`model wrapdocs
		Doc := doc[ *item[ name[String], num[Int] ] ]`)
	if err != nil {
		t.Fatal(err)
	}
	i := NewInterface("structured")
	i.Structures["works"] = StructureRef{Model: works, Pattern: "Works"}
	i.Structures["docs"] = StructureRef{Model: docs, Pattern: "Doc"}
	// A nil-model ref must be skipped, not serialized as an empty element.
	i.Structures["untyped"] = StructureRef{Pattern: "Nope"}

	s := Marshal(i)
	back, err := Unmarshal(s)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, s)
	}
	if Marshal(back) != s {
		t.Error("round trip unstable")
	}
	if len(back.Structures) != 2 {
		t.Fatalf("structures after round trip: %d, want 2 (nil-model ref dropped)", len(back.Structures))
	}
	for doc, want := range map[string]string{"works": "Works", "docs": "Doc"} {
		ref, ok := back.Structures[doc]
		if !ok {
			t.Fatalf("structure %s lost in round trip", doc)
		}
		if ref.Pattern != want {
			t.Errorf("%s pattern = %q, want %q", doc, ref.Pattern, want)
		}
		if ref.Model == nil || ref.Model.String() != i.Structures[doc].Model.String() {
			t.Errorf("%s model changed in round trip:\n got %v\nwant %v",
				doc, ref.Model, i.Structures[doc].Model)
		}
	}
	// The reparsed model is semantically usable, not just textually equal:
	// the declared pattern resolves and subsumes itself.
	wp := back.Structures["works"].Model.Lookup("Works")
	if wp == nil {
		t.Fatal("Works pattern unresolvable after round trip")
	}
	if !pattern.Subsumes(back.Structures["works"].Model, wp, back.Structures["works"].Model, wp) {
		t.Error("reparsed pattern does not subsume itself")
	}
}

// ---------------------------------------------------------------------------
// Document-scoped operations (PR 7)
// ---------------------------------------------------------------------------

func TestOperationDocScoping(t *testing.T) {
	i := NewInterface("scoped")
	i.Operations = append(i.Operations,
		Operation{Name: "bind", Kind: "algebra"}, // unscoped: all docs
		Operation{Name: "join", Kind: "algebra", Docs: []string{"artifacts", "persons"}},
		Operation{Name: "join", Kind: "algebra", Docs: []string{"artifacts.nodes"}},
		Operation{Name: "lt", Kind: "boolean", Docs: []string{"artifacts.nodes"}},
	)
	if !i.CoversOperation("bind", []string{"artifacts", "artifacts.nodes"}) {
		t.Fatalf("unscoped operation must cover every doc")
	}
	if !i.CoversOperation("join", []string{"artifacts", "persons"}) {
		t.Fatalf("join should cover the extent family")
	}
	if !i.CoversOperation("join", []string{"artifacts.nodes"}) {
		t.Fatalf("join should cover the node-table family")
	}
	// The crucial case: both families are individually joinable, but no
	// single declaration covers a mix, so a merged cross-family join is out.
	if i.CoversOperation("join", []string{"artifacts", "artifacts.nodes"}) {
		t.Fatalf("cross-family join must not be covered")
	}
	if i.HasOperationFor("lt", "artifacts") {
		t.Fatalf("lt is scoped to the node table only")
	}
	if !i.HasOperationFor("lt", "artifacts.nodes") {
		t.Fatalf("lt should be available on the node table")
	}
	// Empty doc set degenerates to plain presence.
	if !i.CoversOperation("lt", nil) {
		t.Fatalf("empty doc set should behave like HasOperation")
	}
	if i.CoversOperation("gt", nil) {
		t.Fatalf("undeclared operation must not be covered")
	}
}

func TestOperationDocsXMLRoundTrip(t *testing.T) {
	i := NewInterface("scoped")
	i.Operations = append(i.Operations,
		Operation{Name: "select", Kind: "algebra"},
		Operation{Name: "lt", Kind: "boolean", Docs: []string{"works.nodes", "extra.nodes"}},
	)
	back, err := Unmarshal(Marshal(i))
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	op := back.OperationFor("lt", []string{"works.nodes", "extra.nodes"})
	if op == nil {
		t.Fatalf("scoped lt lost in round-trip:\n%s", Marshal(i))
	}
	if len(op.Docs) != 2 || op.Docs[0] != "works.nodes" || op.Docs[1] != "extra.nodes" {
		t.Fatalf("docs mangled: %v", op.Docs)
	}
	if sel := back.Operation("select"); sel == nil || len(sel.Docs) != 0 {
		t.Fatalf("unscoped select should stay unscoped")
	}
	if back.CoversOperation("lt", []string{"works"}) {
		t.Fatalf("round-tripped scope must still exclude other docs")
	}
}
