package filter

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/pattern"
	"repro/internal/tab"
)

// The oracle is the filter matcher as it stood before its bindings moved
// into arenas: one heap-allocated environment per binding, merged by copy.
// Kept test-only, as it was, so that the matcher in use is held to the
// same tabs — columns, row order, cell kinds and the very tree pointers —
// on every input below.

type oracleEnv []oracleBinding

type oracleBinding struct {
	v string
	c tab.Cell
}

func (e oracleEnv) index(v string) int {
	for i := range e {
		if e[i].v == v {
			return i
		}
	}
	return -1
}

func (e oracleEnv) merge(f oracleEnv) (oracleEnv, bool) {
	out := make(oracleEnv, len(e), len(e)+len(f))
	copy(out, e)
	for _, b := range f {
		switch i := out.index(b.v); {
		case i < 0:
			out = append(out, b)
		case out[i].c.Equal(b.c):
			out[i].c = b.c
		default:
			return nil, false
		}
	}
	return out, true
}

// oracleMatch matches f against the trees of forest in order.
func oracleMatch(f *Filter, store *data.Store, forest data.Forest) *tab.Tab {
	t := tab.New(f.Vars()...)
	m := &oracleCtx{model: f.Model, store: store}
	for _, n := range forest {
		for _, e := range m.matchNode(f.Root, n) {
			row := make(tab.Row, len(t.Cols))
			for i, c := range t.Cols {
				if j := e.index(c); j >= 0 {
					row[i] = e[j].c
				} else {
					row[i] = tab.Null()
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

type oracleCtx struct {
	model *pattern.Model
	store *data.Store
}

func (m *oracleCtx) matchNode(fn *FNode, n *data.Node) []oracleEnv {
	if fn == nil || n == nil {
		return nil
	}
	if n.IsRef() && (len(fn.Items) > 0 || fn.Type != nil || fn.Const != nil) {
		if m.store == nil {
			return nil
		}
		target := m.store.Deref(n)
		if target == nil {
			return nil
		}
		n = target
	}
	switch {
	case fn.AnyLabel:
		if n.Label == "" {
			return nil
		}
	case fn.Label != "":
		if n.Label != fn.Label {
			return nil
		}
	}
	if fn.Const != nil {
		a, ok := n.AtomValue()
		if !ok || !a.Equal(*fn.Const) {
			return nil
		}
	}
	if fn.Type != nil && !pattern.MatchData(m.model, fn.Type, n) {
		return nil
	}
	var base oracleEnv
	if fn.LabelVar != "" && fn.LabelVar != fn.Var {
		base = append(base, oracleBinding{fn.LabelVar, tab.AtomCell(data.String(n.Label))})
	}
	if fn.Var != "" {
		c := tab.TreeCell(n)
		if n.Atom != nil && n.Label == "" {
			c = tab.AtomCell(*n.Atom)
		}
		base = append(base, oracleBinding{fn.Var, c})
	}
	if len(fn.Items) == 0 {
		return []oracleEnv{base}
	}
	kids := n.Kids
	if n.IsLeaf() {
		kids = []*data.Node{{Atom: n.Atom}}
	}
	return m.matchItems(fn.Items, kids, base)
}

func (m *oracleCtx) matchItems(items []FItem, kids []*data.Node, base oracleEnv) []oracleEnv {
	claimed := make([]bool, len(kids))
	perItem := make([][]oracleEnv, 0, len(items))
	for _, it := range items {
		if it.CollectVar != "" {
			continue
		}
		var envs []oracleEnv
		if it.Descend {
			for _, k := range kids {
				m.descend(it.F, k, &envs)
			}
		} else {
			for ki, k := range kids {
				if sub := m.matchNode(it.F, k); len(sub) > 0 {
					claimed[ki] = true
					envs = append(envs, sub...)
				}
			}
		}
		if len(envs) == 0 {
			return nil
		}
		perItem = append(perItem, envs)
	}
	for _, it := range items {
		if it.CollectVar == "" {
			continue
		}
		var seq data.Forest
		for ki, k := range kids {
			if claimed[ki] {
				continue
			}
			if it.F != nil && !m.shapeMatches(it.F, k) {
				continue
			}
			seq = append(seq, k)
		}
		perItem = append(perItem, []oracleEnv{{{it.CollectVar, tab.SeqCell(seq)}}})
	}
	if len(perItem) == 1 && len(base) == 0 {
		return perItem[0]
	}
	allSingle := true
	for _, envs := range perItem {
		if len(envs) != 1 {
			allSingle = false
			break
		}
	}
	if allSingle {
		merged := base
		for _, envs := range perItem {
			var ok bool
			if merged, ok = merged.merge(envs[0]); !ok {
				return nil
			}
		}
		return []oracleEnv{merged}
	}
	out := []oracleEnv{base}
	for _, envs := range perItem {
		next := make([]oracleEnv, 0, len(out)*len(envs))
		for _, acc := range out {
			for _, e := range envs {
				if merged, ok := acc.merge(e); ok {
					next = append(next, merged)
				}
			}
		}
		out = next
		if len(out) == 0 {
			return nil
		}
	}
	return out
}

func (m *oracleCtx) descend(fn *FNode, k *data.Node, envs *[]oracleEnv) {
	if k == nil {
		return
	}
	if sub := m.matchNode(fn, k); len(sub) > 0 {
		*envs = append(*envs, sub...)
	}
	target := k
	if k.IsRef() && m.store != nil {
		if t := m.store.Deref(k); t != nil {
			target = t
		}
	}
	for _, kid := range target.Kids {
		m.descend(fn, kid, envs)
	}
}

func (m *oracleCtx) shapeMatches(fn *FNode, n *data.Node) bool {
	if fn.Label == "" && !fn.AnyLabel && fn.Const == nil && fn.Type == nil && len(fn.Items) == 0 {
		return true
	}
	return len(m.matchNode(fn, n)) > 0
}

// oracleDiff reports how the matcher in use departs from the oracle over
// forest: with one Matcher reused over the forest, the way the algebra binds
// a batch, after a prefix as Bind.Apply writes rows and, tree by tree,
// through Match; "" when it does not.
func oracleDiff(f *Filter, store *data.Store, forest data.Forest) string {
	m := f.Matcher(store)
	want := oracleMatch(f, store, forest)
	got := tab.New(f.Vars()...)
	for _, n := range forest {
		got.Rows = m.Append(got.Rows, nil, n)
	}
	if d := tabDiff(got, want); d != "" {
		return fmt.Sprintf("%s over %d trees: %s", f, len(forest), d)
	}
	prefix := tab.Row{tab.AtomCell(data.Int(7)), tab.Null()}
	for i, r := range want.Rows {
		want.Rows[i] = append(prefix.Clone(), r...)
	}
	got = &tab.Tab{Cols: want.Cols}
	for _, n := range forest {
		got.Rows = m.Append(got.Rows, prefix, n)
	}
	if d := tabDiff(got, want); d != "" {
		return fmt.Sprintf("%s after a prefix: %s", f, d)
	}
	for i, n := range forest {
		want := oracleMatch(f, store, data.Forest{n})
		if d := tabDiff(f.Match(store, n), want); d != "" {
			return fmt.Sprintf("%s: Match of tree %d: %s", f, i, d)
		}
	}
	return ""
}

// tabDiff compares two tabs deeply (reflect.DeepEqual tells a nil sequence
// from an empty one, and no rows from an empty row list) and, beyond that,
// by the identity of every tree a cell holds. The one tree a match makes
// rather than finds, the content of a leaf seen as its unlabeled child, is
// made afresh by each matcher: two of those are the same when they share
// the leaf's atom.
func tabDiff(got, want *tab.Tab) string {
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("tabs differ:\n got %#v\nwant %#v", got, want)
	}
	for i, r := range want.Rows {
		for j, c := range r {
			g := got.Rows[i][j]
			if c.Tree != g.Tree {
				return fmt.Sprintf("row %d column %s: tree %p, oracle %p", i, want.Cols[j], g.Tree, c.Tree)
			}
			for k := range c.Seq {
				if c.Seq[k] != g.Seq[k] && !sameContent(c.Seq[k], g.Seq[k]) {
					return fmt.Sprintf("row %d column %s: sequence item %d is another tree", i, want.Cols[j], k)
				}
			}
		}
	}
	return ""
}

// sameContent reports whether a and b are both the unlabeled content child
// of one leaf.
func sameContent(a, b *data.Node) bool {
	return a.Label == "" && b.Label == "" && a.Atom != nil && a.Atom == b.Atom &&
		a.Kids == nil && b.Kids == nil && a.ID == "" && b.ID == "" && a.Ref == "" && b.Ref == ""
}

// AgreesWithOracle fails t when the matcher in use and the oracle differ
// over forest. It is exported to the package's external tests, which match
// the workloads' filters over generated corpora.
func AgreesWithOracle(t testing.TB, f *Filter, store *data.Store, forest data.Forest) {
	t.Helper()
	if d := oracleDiff(f, store, forest); d != "" {
		t.Fatal(d)
	}
}

// match is Match, checked against the oracle.
func match(t testing.TB, f *Filter, store *data.Store, n *data.Node) *tab.Tab {
	t.Helper()
	AgreesWithOracle(t, f, store, data.Forest{n})
	return f.Match(store, n)
}

// ---------------------------------------------------------------------------
// Random filters over random trees
// ---------------------------------------------------------------------------

// randCase is a generated filter, forest and store.
type randCase struct {
	f      *Filter
	forest data.Forest
	store  *data.Store
}

// genCase builds a filter, a forest and a store from seed. Labels, variables
// and atoms come from small sets, so that filters match often, variables
// repeat (the parser refuses that; a filter built in code may not), and
// equal and unequal cells meet on one variable. Some references point at
// registered objects and some at ids nothing registers.
func genCase(seed int64) randCase {
	r := rand.New(rand.NewSource(seed))
	g := &caseGen{r: r}
	c := randCase{f: New(g.fnode(0)), store: data.NewStore()}
	if r.Intn(4) == 0 {
		c.f.Model = pattern.MustParseModel("model gen\nNum := Int")
	}
	for i := 1 + r.Intn(3); i > 0; i-- {
		c.forest = append(c.forest, g.tree(0))
	}
	objects := data.Elem("objects")
	for i := 0; i < 3; i++ {
		if r.Intn(3) > 0 {
			o := g.tree(1)
			o.ID = fmt.Sprintf("o%d", i)
			objects.Add(o)
		}
	}
	c.store.Register(objects, nil)
	if r.Intn(2) == 0 {
		c.store = nil
	}
	return c
}

// dangles reports whether a reference in c's forest does not resolve.
func (c randCase) dangles() bool {
	var refs []string
	for _, n := range c.forest {
		refs = data.NewStore().Register(n, refs)
	}
	for _, id := range refs {
		if c.store == nil || c.store.Lookup(id) == nil {
			return true
		}
	}
	return false
}

type caseGen struct{ r *rand.Rand }

var (
	genLabels = []string{"a", "b", "c"}
	genVars   = []string{"$x", "$y", "$z"}
	genAtoms  = []data.Atom{data.String("s"), data.String("t"), data.Int(1), data.Int(2), data.Float(1)}
)

func (g *caseGen) pick(n int) int { return g.r.Intn(n) }

func (g *caseGen) atom() data.Atom { return genAtoms[g.pick(len(genAtoms))] }

// tree returns a random tree at most four levels below depth 0.
func (g *caseGen) tree(depth int) *data.Node {
	switch k := g.pick(10); {
	case depth >= 3 || k < 3:
		if k == 0 {
			return &data.Node{Atom: ptr(g.atom())} // unlabeled content
		}
		return data.Leaf(genLabels[g.pick(len(genLabels))], g.atom())
	case k == 3:
		return data.RefNode(genLabels[g.pick(len(genLabels))], fmt.Sprintf("o%d", g.pick(4)))
	default:
		n := data.Elem(genLabels[g.pick(len(genLabels))])
		for i := g.pick(4); i > 0; i-- {
			n.Add(g.tree(depth + 1))
		}
		return n
	}
}

func ptr[T any](v T) *T { return &v }

// fnode returns a random filter node at most three levels below depth 0.
func (g *caseGen) fnode(depth int) *FNode {
	n := &FNode{}
	switch g.pick(6) {
	case 0:
		n.AnyLabel = true
	case 1: // content position
	default:
		n.Label = genLabels[g.pick(len(genLabels))]
	}
	if g.pick(5) == 0 {
		n.LabelVar = genVars[g.pick(len(genVars))]
	}
	if g.pick(3) == 0 {
		n.Var = genVars[g.pick(len(genVars))]
	}
	if g.pick(12) == 0 {
		n.Const = ptr(g.atom())
	}
	if g.pick(10) == 0 {
		n.Type = []*pattern.P{pattern.Int(), pattern.Str(), pattern.Any(), pattern.Ref("Num")}[g.pick(4)]
	}
	if depth < 3 {
		for i := g.pick(3); i > 0; i-- {
			n.Items = append(n.Items, g.item(depth+1))
		}
	}
	return n
}

func (g *caseGen) item(depth int) FItem {
	if g.pick(6) == 0 {
		it := FItem{Star: true, CollectVar: genVars[g.pick(len(genVars))]}
		if g.pick(2) == 0 {
			it.F = &FNode{Label: genLabels[g.pick(len(genLabels))]}
		}
		return it
	}
	return FItem{F: g.fnode(depth), Star: g.pick(2) == 0, Descend: g.pick(6) == 0}
}

// maxOracleRows keeps generated cases whose cross products explode out of
// the comparison: they test nothing the smaller ones do not.
const maxOracleRows = 5000

func checkRandCase(t testing.TB, seed int64) randCase {
	c := genCase(seed)
	if oracleMatch(c.f, c.store, c.forest).Len() > maxOracleRows {
		return randCase{}
	}
	if d := oracleDiff(c.f, c.store, c.forest); d != "" {
		t.Fatalf("seed %d: %s", seed, d)
	}
	return c
}

func TestMatcherAgreesWithOracleOnRandomFilters(t *testing.T) {
	nonEmpty, dangling := 0, 0
	for seed := int64(0); seed < 3000; seed++ {
		c := checkRandCase(t, seed)
		if c.f == nil {
			continue
		}
		if oracleMatch(c.f, c.store, c.forest).Len() > 0 {
			nonEmpty++
		}
		if c.dangles() {
			dangling++
		}
	}
	// The generator must make filters that match, and references that do
	// not resolve, or agreement is vacuous.
	t.Logf("of 3000 cases, %d bind a row and %d hold a dangling reference", nonEmpty, dangling)
	if nonEmpty < 500 || dangling < 50 {
		t.Fatalf("only %d of 3000 generated cases bind a row and %d hold a dangling reference", nonEmpty, dangling)
	}
}

// FuzzMatch holds the matcher to the oracle on the filter, forest and store
// generated from each seed.
func FuzzMatch(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkRandCase(t, seed) })
}

// TestRepeatedVariableKeepsLaterBinding binds $x twice in one row, to a
// leaf and to an equal atom: of two equal cells the later is kept, so the
// row holds the atom. The parser refuses such a filter; one built in code
// is matched all the same.
func TestRepeatedVariableKeepsLaterBinding(t *testing.T) {
	n := data.Elem("r", data.Text("b", "s"), data.Text("c", "s"))
	f := New(&FNode{Label: "r", Items: []FItem{
		{F: &FNode{Label: "b", Var: "$x"}},
		{F: &FNode{Label: "c", Items: []FItem{{F: &FNode{Var: "$x"}}}}},
	}})
	got := match(t, f, nil, n)
	if got.Len() != 1 || got.Rows[0][0].Kind != tab.CAtom {
		t.Fatalf("rows = %v, want one row binding $x to the atom", got.Rows)
	}
}
