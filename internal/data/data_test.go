package data

import (
	"math"
	"math/big"
	"strings"
	"testing"
	"testing/quick"
)

func sampleWork() *Node {
	return Elem("work",
		Text("artist", "Claude Monet"),
		Text("title", "Nympheas"),
		Text("style", "Impressionist"),
		Text("size", "21 x 61"),
		Text("cplace", "Giverny"),
	)
}

func TestAtomText(t *testing.T) {
	cases := []struct {
		a    Atom
		want string
	}{
		{Int(42), "42"},
		{Int(-7), "-7"},
		{Float(1.5), "1.5"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{String("Giverny"), "Giverny"},
	}
	for _, c := range cases {
		if got := c.a.Text(); got != c.want {
			t.Errorf("Text(%v) = %q, want %q", c.a, got, c.want)
		}
	}
}

func TestAtomEqualNumericCoercion(t *testing.T) {
	if !Int(3).Equal(Float(3.0)) {
		t.Error("Int(3) should equal Float(3.0)")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("Int(3) should not equal Float(3.5)")
	}
	if Int(3).Equal(String("3")) {
		t.Error("Int(3) should not equal String(\"3\")")
	}
	if !String("a").Equal(String("a")) {
		t.Error("identical strings must be equal")
	}
}

func TestAtomCompare(t *testing.T) {
	if Int(1).Compare(Float(2)) != -1 {
		t.Error("1 < 2.0 expected")
	}
	if Float(2).Compare(Int(1)) != 1 {
		t.Error("2.0 > 1 expected")
	}
	if String("a").Compare(String("b")) != -1 {
		t.Error("a < b expected")
	}
	if Bool(false).Compare(Bool(true)) != -1 {
		t.Error("false < true expected")
	}
	if Bool(true).Compare(Bool(true)) != 0 {
		t.Error("true == true expected")
	}
	// Cross-kind ordering is stable and antisymmetric.
	if Bool(true).Compare(String("x")) == String("x").Compare(Bool(true)) {
		t.Error("cross-kind comparison must be antisymmetric")
	}
}

// TestNumbersCompareExactly holds Equal, Compare and Hash to the exact value
// of a number, as math/big compares it: Ints beyond a float64's precision,
// and the Float 2^63 that MaxInt64 rounds to, are not the value they round
// to.
func TestNumbersCompareExactly(t *testing.T) {
	const big53 = 1 << 53
	nums := []Atom{
		Int(math.MinInt64), Float(-0x1p63), Float(-1e300), Float(-big53 - 2), Int(-big53 - 1), Int(-big53), Float(-big53),
		Int(-1), Float(math.Copysign(0, -1)), Int(0), Float(0), Float(0.5), Int(5), Float(5),
		Float(big53), Int(big53), Int(big53 + 1), Float(big53 + 2), Int(big53 + 2),
		Int(math.MaxInt64 - 1), Int(math.MaxInt64), Float(0x1p63), Float(1e300),
	}
	exact := func(a Atom) *big.Float {
		if a.Kind == KindInt {
			return new(big.Float).SetInt64(a.I)
		}
		return big.NewFloat(a.F)
	}
	for _, a := range nums {
		for _, b := range nums {
			want := exact(a).Cmp(exact(b))
			if c := a.Compare(b); c != want {
				t.Errorf("%s %v Compare %s %v = %d, want %d", a.Kind, a.Text(), b.Kind, b.Text(), c, want)
			}
			if a.Equal(b) != (want == 0) {
				t.Errorf("%s %v Equal %s %v = %v", a.Kind, a.Text(), b.Kind, b.Text(), a.Equal(b))
			}
			if (Hash(Leaf("p", a)) == Hash(Leaf("p", b))) != (want == 0) {
				t.Errorf("%s %v and %s %v: Hash shared = %v", a.Kind, a.Text(), b.Kind, b.Text(), want != 0)
			}
		}
	}
}

func TestNodeConstructionAndAccess(t *testing.T) {
	w := sampleWork()
	if w.Label != "work" || len(w.Kids) != 5 {
		t.Fatalf("unexpected shape: %v", w)
	}
	if got := w.Child("title").TextContent(); got != "Nympheas" {
		t.Errorf("title = %q", got)
	}
	if w.Child("missing") != nil {
		t.Error("missing child should be nil")
	}
	if got := w.Path("title"); got == nil || got.Atom.S != "Nympheas" {
		t.Errorf("Path(title) = %v", got)
	}
	if w.Path("title", "nothing") != nil {
		t.Error("Path through a leaf should be nil")
	}
}

func TestChildren(t *testing.T) {
	n := Elem("works", sampleWork(), sampleWork(), Text("other", "x"))
	if got := len(n.Children("work")); got != 2 {
		t.Errorf("Children(work) = %d, want 2", got)
	}
	if got := len(n.Children("absent")); got != 0 {
		t.Errorf("Children(absent) = %d, want 0", got)
	}
}

func TestAtomValue(t *testing.T) {
	leaf := Text("title", "Nympheas")
	if a, ok := leaf.AtomValue(); !ok || a.S != "Nympheas" {
		t.Errorf("AtomValue(leaf) = %v %v", a, ok)
	}
	wrapped := Elem("title", &Node{Atom: &Atom{Kind: KindString, S: "X"}})
	if a, ok := wrapped.AtomValue(); !ok || a.S != "X" {
		t.Errorf("AtomValue(wrapped) = %v %v", a, ok)
	}
	if _, ok := sampleWork().AtomValue(); ok {
		t.Error("interior node should have no atom value")
	}
}

func TestTextContent(t *testing.T) {
	n := Elem("history",
		Text("", "Painted with"),
		Text("technique", "Oil on canvas"),
		Text("", "in ..."),
	)
	want := "Painted with Oil on canvas in ..."
	if got := n.TextContent(); got != want {
		t.Errorf("TextContent = %q, want %q", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	w := sampleWork().WithID("w1")
	c := w.Clone()
	if !Equal(w, c) {
		t.Fatal("clone must be Equal to original")
	}
	c.Kids[0].Atom.S = "mutated"
	if Equal(w, c) {
		t.Error("mutating the clone must not affect the original")
	}
	if w.Kids[0].Atom.S != "Claude Monet" {
		t.Error("original mutated through clone")
	}
}

func TestEqualVsEqualValue(t *testing.T) {
	a := sampleWork().WithID("a1")
	b := sampleWork().WithID("a2")
	if Equal(a, b) {
		t.Error("different IDs must break Equal")
	}
	if !EqualValue(a, b) {
		t.Error("EqualValue must ignore IDs")
	}
	c := sampleWork()
	c.Kids[1].Atom.S = "Waterloo Bridge"
	if EqualValue(a, c) {
		t.Error("different titles must break EqualValue")
	}
}

func TestEqualNilAndRef(t *testing.T) {
	if !Equal(nil, nil) {
		t.Error("nil == nil")
	}
	if Equal(nil, Elem("x")) || Equal(Elem("x"), nil) {
		t.Error("nil != non-nil")
	}
	r1, r2 := RefNode("owner", "p1"), RefNode("owner", "p2")
	if Equal(r1, r2) {
		t.Error("refs to different ids differ")
	}
	if !Equal(r1, RefNode("owner", "p1")) {
		t.Error("identical refs are equal")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	nodes := []*Node{
		nil,
		Text("a", "x"),
		Text("a", "y"),
		Text("b", "x"),
		Elem("a", Text("k", "v")),
		Elem("a", Text("k", "v"), Text("k2", "v")),
		RefNode("a", "p1"),
	}
	for i, a := range nodes {
		for j, b := range nodes {
			cab, cba := Compare(a, b), Compare(b, a)
			if cab != -cba {
				t.Errorf("Compare not antisymmetric for %d,%d: %d vs %d", i, j, cab, cba)
			}
			if i == j && cab != 0 {
				t.Errorf("Compare(x,x) != 0 for %d", i)
			}
		}
	}
}

func TestHashConsistentWithEqualValue(t *testing.T) {
	a := sampleWork().WithID("a1")
	b := sampleWork().WithID("zzz")
	if Hash(a) != Hash(b) {
		t.Error("Hash must ignore IDs (consistent with EqualValue)")
	}
	c := sampleWork()
	c.Kids[0].Atom.S = "Degas"
	if Hash(a) == Hash(c) {
		t.Error("different content should hash differently (with high probability)")
	}
}

// TestHashNumbersByValue holds Hash to EqualValue where numbers meet: an Int
// and a Float of one value, and -0 and 0, are equal values and hash alike,
// as a leaf and deeper in a tree.
func TestHashNumbersByValue(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for i, c := range []struct{ a, b *Node }{
		{IntLeaf("p", 5), FloatLeaf("p", 5)},
		{IntLeaf("p", 0), FloatLeaf("p", negZero)},
		{FloatLeaf("p", 0), FloatLeaf("p", negZero)},
		{Elem("w", Text("t", "x"), IntLeaf("y", 1897)), Elem("w", Text("t", "x"), FloatLeaf("y", 1897))},
		{Elem("w", IntLeaf("z", 0)), Elem("w", FloatLeaf("z", negZero))},
	} {
		if !EqualValue(c.a, c.b) {
			t.Fatalf("case %d: %s and %s must be equal values", i, c.a, c.b)
		}
		if Hash(c.a) != Hash(c.b) {
			t.Errorf("case %d: Hash(%s) = %#x, Hash(%s) = %#x", i, c.a, Hash(c.a), c.b, Hash(c.b))
		}
	}
	if Hash(IntLeaf("p", 5)) == Hash(FloatLeaf("p", 5.5)) {
		t.Error("different numbers should hash differently (with high probability)")
	}
}

func TestHashDistinguishesStructure(t *testing.T) {
	// label nesting vs flat must differ
	a := Elem("a", Elem("b", Text("c", "x")))
	b := Elem("a", Elem("b"), Text("c", "x"))
	if Hash(a) == Hash(b) {
		t.Error("nesting should affect hash")
	}
}

func TestSizeDepth(t *testing.T) {
	w := sampleWork()
	if w.Size() != 6 {
		t.Errorf("Size = %d, want 6", w.Size())
	}
	if w.Depth() != 2 {
		t.Errorf("Depth = %d, want 2", w.Depth())
	}
	var nilNode *Node
	if nilNode.Size() != 0 || nilNode.Depth() != 0 {
		t.Error("nil node has size/depth 0")
	}
}

func TestWalkOrderAndPruning(t *testing.T) {
	w := sampleWork()
	var labels []string
	w.Walk(func(n *Node) bool {
		labels = append(labels, n.Label)
		return true
	})
	want := "work artist title style size cplace"
	if got := strings.Join(labels, " "); got != want {
		t.Errorf("walk order = %q, want %q", got, want)
	}
	count := 0
	w.Walk(func(n *Node) bool {
		count++
		return false // prune at root
	})
	if count != 1 {
		t.Errorf("pruned walk visited %d nodes, want 1", count)
	}
}

func TestSortKids(t *testing.T) {
	n := Elem("set", Text("x", "c"), Text("x", "a"), Text("x", "b"))
	n.SortKids()
	got := n.Kids[0].Atom.S + n.Kids[1].Atom.S + n.Kids[2].Atom.S
	if got != "abc" {
		t.Errorf("SortKids produced %q", got)
	}
}

func TestStringRendering(t *testing.T) {
	n := Elem("object",
		Text("name", "Doctor X"),
		IntLeaf("auction", 1500000),
		RefNode("owner", "p1"),
	).WithID("p3")
	s := n.String()
	for _, frag := range []string{"p3=object", `name:"Doctor X"`, "auction:1500000", "owner:&p1"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
	var nilNode *Node
	if nilNode.String() != "nil" {
		t.Error("nil String")
	}
}

func TestIndentRendering(t *testing.T) {
	s := sampleWork().Indent()
	if !strings.Contains(s, "work\n  artist: Claude Monet\n") {
		t.Errorf("Indent = %q", s)
	}
}

func TestForest(t *testing.T) {
	f := Forest{Text("a", "1"), Text("b", "2")}
	g := f.Clone()
	if !f.Equal(g) {
		t.Error("cloned forest equal")
	}
	g[0].Atom.S = "mut"
	if f.Equal(g) {
		t.Error("mutation must break equality")
	}
	if f.Equal(f[:1]) {
		t.Error("different lengths differ")
	}
	if s := f.String(); !strings.Contains(s, `a:"1"`) {
		t.Errorf("forest String = %q", s)
	}
}

func TestStoreRegisterLookupDeref(t *testing.T) {
	st := NewStore()
	p1 := Elem("person", Text("name", "Doctor X")).WithID("p1")
	root := Elem("db", p1, Elem("artifact", RefNode("owner", "p1")).WithID("a1"))
	st.Register(root, nil)
	if st.Len() != 2 {
		t.Errorf("store Len = %d, want 2", st.Len())
	}
	if st.Lookup("p1") != p1 {
		t.Error("lookup p1 failed")
	}
	ref := root.Kids[1].Kids[0]
	if got := st.Deref(ref); got != p1 {
		t.Errorf("Deref = %v", got)
	}
	if st.Deref(p1) != p1 {
		t.Error("Deref of non-ref is identity")
	}
	if st.Deref(RefNode("x", "nope")) != nil {
		t.Error("dangling ref derefs to nil")
	}
}

// genTree builds a pseudo-random tree from a seed; used in property tests.
func genTree(seed int64, depth int) *Node {
	labels := []string{"work", "title", "artist", "style", "owners", "person"}
	s := seed
	next := func(n int64) int64 {
		s = s*6364136223846793005 + 1442695040888963407
		v := (s >> 33) % n
		if v < 0 {
			v = -v
		}
		return v
	}
	var build func(d int) *Node
	build = func(d int) *Node {
		l := labels[next(int64(len(labels)))]
		if d <= 0 || next(3) == 0 {
			switch next(3) {
			case 0:
				return IntLeaf(l, next(1000))
			case 1:
				return Text(l, labels[next(int64(len(labels)))])
			default:
				return FloatLeaf(l, float64(next(100))/4)
			}
		}
		n := Elem(l)
		k := int(next(4))
		for i := 0; i < k; i++ {
			n.Add(build(d - 1))
		}
		return n
	}
	return build(depth)
}

func TestPropertyCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		n := genTree(seed, 4)
		c := n.Clone()
		return Equal(n, c) && EqualValue(n, c) && Hash(n) == Hash(c) && Compare(n, c) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCompareConsistentWithEqual(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a, b := genTree(s1, 3), genTree(s2, 3)
		if Compare(a, b) == 0 {
			// Compare==0 implies EqualValue (ids absent in generated trees)
			return EqualValue(a, b)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyHashRespectsEqualValue(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a, b := genTree(s1, 3), genTree(s2, 3)
		if EqualValue(a, b) {
			return Hash(a) == Hash(b)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
