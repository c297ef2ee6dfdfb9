package data

import (
	"math"
	"reflect"
	"testing"
)

// oracleClone is a test-only copy of the node-by-node Clone that the block
// builder replaced.
func oracleClone(n *Node) *Node {
	if n == nil {
		return nil
	}
	c := &Node{Label: n.Label, Ref: n.Ref, ID: n.ID}
	if n.Atom != nil {
		a := *n.Atom
		c.Atom = &a
	}
	if len(n.Kids) > 0 {
		c.Kids = make([]*Node, len(n.Kids))
		for i, k := range n.Kids {
			c.Kids[i] = oracleClone(k)
		}
	}
	return c
}

// oracleTrees holds every node shape: atoms of the four kinds, references,
// identifiers, an interior node with an empty (non-nil) child list, which a
// clone gives no list, and unlabeled text.
func oracleTrees() []*Node {
	empty := Elem("empty")
	empty.Kids = []*Node{}
	return []*Node{
		sampleWork(),
		Elem("class",
			Elem("artifact", Elem("tuple",
				Text("title", "Nympheas"), IntLeaf("year", 1897), FloatLeaf("price", 1.5e6),
				BoolLeaf("sold", true), Elem("owners", RefNode("ref", "p1"), RefNode("ref", "p2")),
				empty, Elem("none"), &Node{Atom: &Atom{Kind: KindString, S: "text"}},
			)),
		).WithID("a1"),
		IntLeaf("n", math.MinInt64),
		RefNode("owner", "p3").WithID("r"),
		nil,
	}
}

func TestCloneMatchesOracle(t *testing.T) {
	for i, n := range oracleTrees() {
		if got, want := n.Clone(), oracleClone(n); !reflect.DeepEqual(got, want) {
			t.Errorf("tree %d: Clone\n%s\noracle\n%s", i, got, want)
		}
	}
}

// TestHashValuesPinned pins Hash over the oracle trees: the values the
// node-by-node FNV-1a hash gave, with the two trees that hold a number
// repinned when numbers came to hash by value.
func TestHashValuesPinned(t *testing.T) {
	want := []uint64{0x6a41fd4b7bf0ed5f, 0x8bf9e2b986cd4224, 0xcad388ce9a68762b, 0xbb7eeffdebb47376, 0xaf63bd4c8601b7df}
	for i, n := range oracleTrees() {
		if got := Hash(n); got != want[i] {
			t.Errorf("tree %d: Hash = %#x, want %#x", i, got, want[i])
		}
	}
}

func TestCloneAllocs(t *testing.T) {
	work := oracleTrees()[1]
	// measured: 3 (22 node by node), the block's three slices
	if n := testing.AllocsPerRun(20, func() { _ = work.Clone() }); n > 3 {
		t.Errorf("Clone of a work: %v allocations, want at most 3", n)
	}
}

func TestHashAllocs(t *testing.T) {
	work := oracleTrees()[1]
	// measured: 0 (77 when each write went through an interface)
	if n := testing.AllocsPerRun(20, func() { _ = Hash(work) }); n != 0 {
		t.Errorf("Hash of a work: %v allocations, want 0", n)
	}
}
