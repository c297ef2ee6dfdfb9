package pattern

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/xmlenc"
)

func TestFlagParsing(t *testing.T) {
	for _, c := range []struct {
		s string
		b BindFlag
	}{{"tree", BindTree}, {"label", BindLabel}, {"none", BindNone}, {"", BindAny}, {"junk", BindAny}} {
		if got := BindFlagFromString(c.s); got != c.b {
			t.Errorf("BindFlagFromString(%q) = %v", c.s, got)
		}
		if c.s != "junk" && c.b.String() != c.s {
			t.Errorf("%v.String() = %q", c.b, c.b.String())
		}
	}
	for _, c := range []struct {
		s string
		f InstFlag
	}{{"ground", InstGround}, {"none", InstNone}, {"", InstAny}} {
		if got := InstFlagFromString(c.s); got != c.f {
			t.Errorf("InstFlagFromString(%q) = %v", c.s, got)
		}
		if c.f.String() != c.s {
			t.Errorf("%v.String() = %q", c.f, c.f.String())
		}
	}
}

// flagged is an Fpattern with a flag in every position one can take: node
// bind and inst, ref bind, star inst. plain is the same pattern unflagged.
func flagged() *P {
	return &P{Kind: KNode, AnyLabel: true, Bind: BindLabel, Inst: InstGround, Items: []Item{
		{Star: true, Inst: InstNone, P: &P{Kind: KRef, Name: "work", Bind: BindTree}},
		{P: &P{Kind: KNode, Label: "title", Bind: BindNone, Items: []Item{{P: Str()}}}},
	}}
}

func plain() *P {
	p := Symbol(Ref("work"), Node("title", Str()))
	p.Items[0].Star = true
	return p
}

func TestFlagsXMLRoundTrip(t *testing.T) {
	src := xmlenc.Serialize(ToXML(flagged()))
	want := `<node label="Symbol" bind="label" inst="ground"><star inst="none"><ref pattern="work" bind="tree"/></star>` +
		`<node label="title" bind="none"><leaf label="String"/></node></node>`
	if src != want {
		t.Errorf("flagged pattern writes\n%s\nwant\n%s", src, want)
	}
	n, err := xmlenc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromXML(n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, flagged()) {
		t.Errorf("flags lost in round trip: %#v", back)
	}
	if s := xmlenc.Serialize(ToXML(plain())); strings.Contains(s, "bind=") || strings.Contains(s, "inst=") {
		t.Errorf("an unflagged pattern writes flag attributes: %s", s)
	}
}

// Matching, subsumption, intersection and the text form read an Fpattern as
// the pattern it is with its flags ignored.
func TestFlagsIgnoredByJudgements(t *testing.T) {
	m := MustParseModel(`model w
work := work[ title: String ]`)
	f, p := flagged(), plain()
	if f.String() != p.String() {
		t.Errorf("text form shows flags: %s vs %s", f, p)
	}
	if !Subsumes(m, f, m, p) || !Subsumes(m, p, m, f) {
		t.Error("a flagged pattern and its unflagged form must subsume each other")
	}
	if Disjoint(m, f, m, p) || Empty(m, f) != Empty(m, p) {
		t.Error("flags changed intersection")
	}
	tree := data.Elem("works",
		data.Elem("work", data.Text("title", "Nympheas")),
		data.Text("title", "catalog"))
	if !MatchData(m, f, tree) || !MatchData(m, p, tree) {
		t.Error("flags changed matching")
	}
}
