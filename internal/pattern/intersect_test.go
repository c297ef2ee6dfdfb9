package pattern

import (
	"testing"

	"repro/internal/data"
)

func TestEmpty(t *testing.T) {
	m := NewModel("m")
	m.Define("Loop", Node("a", Ref("Loop")))            // no finite base case
	m.Define("Grounded", Union(Ref("Grounded"), Int())) // base case via union
	m.Define("Dead", Node("a", Ref("Missing")))

	cases := []struct {
		name string
		p    *P
		want bool
	}{
		{"any", Any(), false},
		{"int", Int(), false},
		{"node", Node("a", Str()), false},
		{"empty union", Union(), true},
		{"union with live alt", Union(Node("a"), Ref("Missing")), false},
		{"union all dead", Union(Ref("Missing"), Union()), true},
		{"unresolved ref", Ref("Missing"), true},
		{"structural cycle", Ref("Loop"), true},
		{"cycle with base case", Ref("Grounded"), false},
		{"node with dead mandatory item", Node("a", Union()), true},
		{"node with dead starred item", NodeItems("a", Starred(Union())), false},
		{"node via dead ref", Ref("Dead"), true},
	}
	for _, c := range cases {
		if got := Empty(m, c.p); got != c.want {
			t.Errorf("%s: Empty(%s) = %v, want %v", c.name, c.p, got, c.want)
		}
	}
}

func TestDisjoint(t *testing.T) {
	m := MustParseModel(`model m
Work  := work[ artist: String, title: String ]
Class := class[ artifact: tuple[ title: String, year: Int ] ]
Loop  := loop[ &Loop ]`)

	cases := []struct {
		name string
		p, q *P
		want bool
	}{
		{"int/string", Int(), Str(), true},
		{"int/float overlap", Int(), Float(), false},
		{"int/bool", Int(), Bool(), true},
		{"const/kind compatible", Const(data.Int(3)), Float(), false},
		{"const/kind incompatible", Const(data.String("x")), Int(), true},
		{"const/const equal", Const(data.Int(3)), Const(data.Int(3)), false},
		{"const/const distinct", Const(data.Int(3)), Const(data.Int(4)), true},
		{"any overlaps inhabited", Any(), Node("a", Str()), false},
		{"empty union disjoint from any", Any(), Union(), true},
		{"distinct labels", Node("a", Str()), Node("b", Str()), true},
		{"same label same item", Node("a", Str()), Node("a", Str()), false},
		{"same label disjoint items", Node("a", Str()), Node("a", Int()), true},
		{"anylabel absorbs label", Symbol(Str()), Node("a", Str()), false},
		{"arity mismatch", Node("a", Str(), Int()), Node("a", Str()), true},
		{"star absorbs arity", NodeItems("a", Starred(Str())), Node("a", Str()), false},
		{"named refs", Ref("Work"), Ref("Class"), true},
		{"ref against self", Ref("Work"), Ref("Work"), false},
		{"cyclic ref is empty hence disjoint", Ref("Loop"), Ref("Loop"), true},
		{"union splits", Union(Node("a"), Node("b")), Node("c"), true},
		{"union overlap", Union(Node("a"), Node("b")), Node("b"), false},
		{"node/atom via leaf", Node("price", Float()), Int(), false},
		{"node/atom leaf blocked", Node("price", Float()), Str(), true},
		{"node without items vs atom", Node("a"), Int(), true},
	}
	for _, c := range cases {
		if got := Disjoint(m, c.p, m, c.q); got != c.want {
			t.Errorf("%s: Disjoint(%s, %s) = %v, want %v", c.name, c.p, c.q, got, c.want)
		}
		if got := Disjoint(m, c.q, m, c.p); got != c.want {
			t.Errorf("%s (sym): Disjoint(%s, %s) = %v, want %v", c.name, c.q, c.p, got, c.want)
		}
	}
}

// TestDisjointSoundOnData cross-checks Disjoint against MatchData: whenever
// Disjoint claims two patterns share no instance, no sample tree may match
// both.
func TestDisjointSoundOnData(t *testing.T) {
	m := MustParseModel(`model m
Work := work[ artist: String, title: String ]`)
	pats := []*P{
		Int(), Float(), Str(), Bool(), Const(data.Int(5)), Const(data.String("x")),
		Any(), Node("a", Str()), Node("a", Int()), Node("b", Str()),
		NodeItems("a", Starred(Any())), Symbol(Int()), Ref("Work"),
		Union(Node("a", Str()), Int()),
	}
	trees := []*data.Node{
		data.IntLeaf("a", 5),
		data.Text("a", "x"),
		data.Text("b", "x"),
		data.FloatLeaf("a", 1.5),
		data.BoolLeaf("a", true),
		data.Elem("a", data.Text("b", "x")),
		data.Elem("work", data.Text("artist", "p"), data.Text("title", "q")),
		{Atom: &data.Atom{Kind: data.KindInt, I: 5}},
	}
	for _, p := range pats {
		for _, q := range pats {
			if !Disjoint(m, p, m, q) {
				continue
			}
			for _, tr := range trees {
				if MatchData(m, p, tr) && MatchData(m, q, tr) {
					t.Errorf("Disjoint(%s, %s) but tree matches both", p, q)
				}
			}
		}
	}
}
