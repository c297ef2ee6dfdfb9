// Package nodetab implements the pre/post-order node-numbering tables that
// let XPath axes compile to algebraic predicates instead of mediator-side
// tree walks. For every document <d> a source exports, it can additionally
// export a synthetic document <d>.nodes holding one row per node of <d>:
//
//	node[ pre: Int, post: Int, parent: Int, name: String, pos: Int,
//	      value: <atom>?, tree[ <subtree> ] ]
//
// pre/post are global DFS entry/exit ranks, parent is the parent's pre rank
// (-1 at roots), name is the node label, pos the 1-based index among
// same-label siblings, value the atomic content of leaves, and tree wraps
// the original subtree (shared, not copied). With this encoding the XPath
// axes become ordinary comparisons the three-round optimizer can push:
//
//	child      s/t:   t.parent = s.pre
//	parent     s/t:   t.pre    = s.parent
//	descendant s//t:  s.pre < t.pre  AND  t.post < s.post
//	ancestor   t//s:  t.pre < s.pre  AND  s.post < t.post
//
// (the interval containment of the pre/post plane; see DESIGN.md §12).
// The package also centralizes the capability fragments both wrappers
// export for their node tables (filter pattern, structural schema, scoped
// operations) and Eval, which answers a pushed plan over the built tables
// with the algebra.
package nodetab

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/pattern"
	"repro/internal/tab"
)

// Suffix distinguishes node-table documents from the documents they number.
const Suffix = ".nodes"

// Doc returns the node-table document name for a base document.
func Doc(base string) string { return base + Suffix }

// IsNodes reports whether name denotes a node-table document.
func IsNodes(name string) bool { return strings.HasSuffix(name, Suffix) }

// Base returns the numbered document's name ("works.nodes" -> "works").
func Base(name string) string { return strings.TrimSuffix(name, Suffix) }

// Build numbers a forest: one node[...] tree per node of the input, in
// document order, with global pre/post ranks across the whole forest. The
// tree child shares the original subtree pointers; callers must treat built
// tables as read-only, like any fetched document.
func Build(forest data.Forest) data.Forest {
	var out data.Forest
	pre, post := 0, 0
	var walk func(n *data.Node, parent int, pos int)
	walk = func(n *data.Node, parent int, pos int) {
		myPre := pre
		pre++
		row := data.Elem("node",
			data.IntLeaf("pre", int64(myPre)),
			// post is patched after the children are numbered.
			data.IntLeaf("post", 0),
			data.IntLeaf("parent", int64(parent)),
			data.Text("name", n.Label),
			data.IntLeaf("pos", int64(pos)),
		)
		if n.Atom != nil {
			row.Add(data.Leaf("value", *n.Atom))
		}
		row.Add(data.Elem("tree", n))
		out = append(out, row)
		counts := map[string]int{}
		for _, k := range n.Kids {
			counts[k.Label]++
			walk(k, myPre, counts[k.Label])
		}
		row.Child("post").Atom.I = int64(post)
		post++
	}
	counts := map[string]int{}
	for _, n := range forest {
		counts[n.Label]++
		walk(n, -1, counts[n.Label])
	}
	return out
}

// FPattern returns the Fnodes capability pattern: any subset of the
// canonical fields may be constrained or content-bound, and tree binds the
// original subtree. Every field position is atomic except tree, so filters
// cannot navigate below the row fields — navigation happens via joins on the
// numbering, which is the point of the encoding.
func FPattern() *pattern.P {
	field := func(label string, content *pattern.P) *pattern.P {
		f := pattern.Node(label, content)
		f.Bind = pattern.BindNone
		return f
	}
	row := pattern.Node("node",
		field("pre", pattern.Int()),
		field("post", pattern.Int()),
		field("parent", pattern.Int()),
		field("name", pattern.Str()),
		field("pos", pattern.Int()),
		field("value", pattern.Union(pattern.Int(), pattern.Float(), pattern.Bool(), pattern.Str())),
		field("tree", pattern.Any()),
	)
	row.Bind = pattern.BindTree
	return row
}

// FPatternName is the name node-table bind capabilities refer to.
const FPatternName = "Fnodes"

// StructureModel returns the structural schema of a node table, for plan
// typing and the pattern check on document Binds.
func StructureModel() *pattern.Model {
	m := pattern.NewModel("Nodes_Structure")
	row := pattern.Node("node",
		pattern.Node("pre", pattern.Int()),
		pattern.Node("post", pattern.Int()),
		pattern.Node("parent", pattern.Int()),
		pattern.Node("name", pattern.Str()),
		pattern.Node("pos", pattern.Int()),
	)
	row.Items = append(row.Items,
		pattern.Starred(pattern.Node("value",
			pattern.Union(pattern.Int(), pattern.Float(), pattern.Bool(), pattern.Str()))),
		pattern.Item{P: pattern.Node("tree", pattern.Any())},
	)
	m.Define("Nodes", row)
	return m
}

// StructurePatternName is the pattern name within StructureModel.
const StructurePatternName = "Nodes"

// Operations returns the capability entries a source should declare for its
// node-table documents, scoped to exactly those documents: the comparison
// predicates axis joins compile to, plus select/project/join so the
// optimizer may push them. Scoping matters — a source whose extents support
// join must not thereby claim it can join an extent against a node table.
func Operations(nodesDocs []string) []capability.Operation {
	docs := append([]string(nil), nodesDocs...)
	names := []struct{ name, kind string }{
		{"select", "algebra"}, {"project", "algebra"}, {"join", "algebra"},
		{"eq", "boolean"}, {"neq", "boolean"},
		{"lt", "boolean"}, {"leq", "boolean"},
		{"gt", "boolean"}, {"geq", "boolean"},
	}
	out := make([]capability.Operation, 0, len(names))
	for _, n := range names {
		out = append(out, capability.Operation{Name: n.name, Kind: n.kind, Docs: docs})
	}
	return out
}

// Export adds node-table documents for every base document of iface: a bind
// capability over the Fnodes pattern (defined into the interface's first
// fmodel), the structural schema, and the scoped operations. It returns the
// node-table document names.
func Export(iface *capability.Interface, baseDocs []string) []string {
	var nodesDocs []string
	for _, b := range baseDocs {
		nodesDocs = append(nodesDocs, Doc(b))
	}
	if len(iface.FModels) == 0 {
		iface.FModels = append(iface.FModels, pattern.NewModel(iface.Name+"-fmodel"))
	}
	fm := iface.FModels[0]
	fm.Define(FPatternName, FPattern())
	sm := StructureModel()
	for _, nd := range nodesDocs {
		iface.Binds[nd] = capability.BindCap{FModel: fm.Name, FPattern: FPatternName}
		iface.Structures[nd] = capability.StructureRef{Model: sm, Pattern: StructurePatternName}
	}
	iface.Operations = append(iface.Operations, Operations(nodesDocs)...)
	return nodesDocs
}

// ---------------------------------------------------------------------------
// Pushed-plan evaluation
// ---------------------------------------------------------------------------

// Eval answers a pushed plan over node-table documents: Bind/Select/Project/
// Join shapes only, comparison predicates only — exactly the operations
// Operations declares. Building the tables is all a wrapper does itself:
// table resolves a base document to its already-built node table (typically
// Cache.Get over the wrapper's ordinary fetch path), and exec.RunSerial
// answers the plan over them, as feed's and Wais's pushes are answered over
// their candidates.
func Eval(plan algebra.Op, params map[string]tab.Cell, table func(base string) (data.Forest, error)) (*tab.Tab, error) {
	docs := map[string]bool{}
	if err := validate(plan, docs); err != nil {
		return nil, err
	}
	ctx := algebra.NewContext()
	ctx.Params = params
	for nd := range docs {
		built, err := table(Base(nd))
		if err != nil {
			return nil, fmt.Errorf("nodetab: building table for %s: %w", Base(nd), err)
		}
		ctx.Catalog[nd] = built
	}
	return exec.RunSerial(plan, ctx)
}

// validate walks a pushed plan, collecting the node-table documents it binds
// and rejecting shapes outside the declared capability.
func validate(op algebra.Op, docs map[string]bool) error {
	// yat-lint:ignore intentionally partial: the default rejects everything outside the declared pushable shapes
	switch x := op.(type) {
	case *algebra.Bind:
		if x.From != nil {
			return fmt.Errorf("nodetab: dependent binds cannot be pushed")
		}
		if !IsNodes(x.Doc) {
			return fmt.Errorf("nodetab: bind over %q is not a node table", x.Doc)
		}
		docs[x.Doc] = true
		return nil
	case *algebra.Select:
		if err := validPred(x.Pred); err != nil {
			return err
		}
		return validate(x.From, docs)
	case *algebra.Project:
		return validate(x.From, docs)
	case *algebra.Join:
		if err := validPred(x.Pred); err != nil {
			return err
		}
		if err := validate(x.L, docs); err != nil {
			return err
		}
		return validate(x.R, docs)
	default:
		return fmt.Errorf("nodetab: operator %T cannot be pushed", op)
	}
}

// validPred accepts boolean combinations of comparisons over variables and
// constants — no function calls, which node tables do not declare.
func validPred(e algebra.Expr) error {
	switch x := e.(type) {
	case algebra.Cmp:
		return nil
	case algebra.And:
		if err := validPred(x.L); err != nil {
			return err
		}
		return validPred(x.R)
	case algebra.Or:
		if err := validPred(x.L); err != nil {
			return err
		}
		return validPred(x.R)
	case algebra.Not:
		return validPred(x.E)
	default:
		return fmt.Errorf("nodetab: predicate %T cannot be pushed", e)
	}
}

// TouchesPlan reports whether any Bind in the plan targets a node table;
// wrappers use it to route pushes to Eval.
func TouchesPlan(plan algebra.Op) bool {
	found := false
	algebra.Walk(plan, func(op algebra.Op) bool {
		if b, ok := op.(*algebra.Bind); ok && IsNodes(b.Doc) {
			found = true
		}
		return !found
	})
	return found
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

// Cache memoizes built node tables per base document so repeated pushes
// (batched DJoin chunks, retries) do not renumber the document every time.
// Invalidate must be called if the underlying document changes.
type Cache struct {
	mu sync.Mutex
	m  map[string]data.Forest
}

// Get returns the cached table for base, building it via fetch on a miss.
func (c *Cache) Get(base string, fetch func(string) (data.Forest, error)) (data.Forest, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.m[base]; ok {
		return f, nil
	}
	forest, err := fetch(base)
	if err != nil {
		return nil, err
	}
	built := Build(forest)
	if c.m == nil {
		c.m = map[string]data.Forest{}
	}
	c.m[base] = built
	return built, nil
}

// Invalidate drops the cached table for base (all tables when base is "").
func (c *Cache) Invalidate(base string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if base == "" {
		c.m = nil
		return
	}
	delete(c.m, base)
}
