// Package waiswrap implements the generic XML-Wais wrapper of the paper
// (`xmlwais-wrapper` in Figure 2): it exports the Artworks structure
// (Figure 3), the restrictive capability interface of Section 4.2 — only
// whole documents can be bound, the only pushable predicate is the
// full-text contains — and the declared equivalence connecting contains
// with the algebra's equality predicate. A pushed plan is answered in two
// steps: the full-text search answers its contains conjuncts, and the
// algebra answers the rest of the plan over the documents the search found.
package waiswrap

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/data"
	"repro/internal/filter"
	"repro/internal/nodetab"
	"repro/internal/pattern"
	"repro/internal/tab"
	"repro/internal/wais"
)

// Wrapper wraps one Wais engine.
type Wrapper struct {
	E         *wais.Engine
	SourceNme string
	// LastSearch records the text of the most recent pushed full-text
	// search (observability for tests and examples). Writes are serialized
	// by lastMu so concurrent pushes do not race; read it only after the
	// pushes of interest have completed.
	LastSearch string
	lastMu     sync.Mutex
	// nodes caches the pre/post-order node table of the works document
	// (rebuilt lazily; the engine is append-only in the experiments).
	nodes nodetab.Cache
}

// New returns a wrapper over the engine.
func New(name string, e *wais.Engine) *Wrapper {
	return &Wrapper{E: e, SourceNme: name}
}

// Name implements algebra.Source.
func (w *Wrapper) Name() string { return w.SourceNme }

// Documents implements algebra.Source: the works document and its
// pre/post-order node table (PR 7: pushable XPath axes).
func (w *Wrapper) Documents() []string { return []string{"works", nodetab.Doc("works")} }

// Fetch implements algebra.Source: it ships the entire indexed collection
// (in its retrievable view) under a works root — the costly path the
// optimizer tries to avoid. The root and every document are built in one
// data.Block, sized by summing the documents' wais.(*Engine).RetrieveSize.
func (w *Wrapper) Fetch(doc string) (data.Forest, error) {
	if nodetab.IsNodes(doc) && nodetab.Base(doc) == "works" {
		return w.nodeTable("works")
	}
	if doc != "works" {
		return nil, fmt.Errorf("waiswrap: unknown document %q", doc)
	}
	nodes, atoms := 1, 0
	for i := 0; i < w.E.Size(); i++ {
		n, a := w.E.RetrieveSize(i)
		nodes, atoms = nodes+n, atoms+a
	}
	b := data.NewBlock(nodes, atoms, nodes-1)
	root := b.Elem("works")
	root.Kids = b.List(w.E.Size())
	for i := range root.Kids {
		root.Kids[i] = w.E.RetrieveInto(&b, i)
	}
	return data.Forest{root}, nil
}

// nodeTable returns the cached node table of a base document.
func (w *Wrapper) nodeTable(base string) (data.Forest, error) {
	return w.nodes.Get(base, func(b string) (data.Forest, error) {
		if b != "works" {
			return nil, fmt.Errorf("waiswrap: unknown document %q", b)
		}
		return w.Fetch(b)
	})
}

// ExportStructure returns the Artworks structure of Figure 3: works with
// mandatory artist/title/style/size elements followed by arbitrary
// additional fields.
func (w *Wrapper) ExportStructure() *pattern.Model {
	return pattern.MustParseModel(`model Artworks_Structure
Works := works[ *&Work ]
Work  := work[ artist: String, title: String, style: String, size: String,
               *&Field ]
Field := Symbol[ *( Int | Float | Bool | String | &Field ) ]`)
}

// ExportInterface builds the Section 4.2 interface: the Fworks pattern
// (bind whole documents only), bind/select operations, the contains
// external predicate and the contains/equality equivalence.
func (w *Wrapper) ExportInterface() *capability.Interface {
	i := capability.NewInterface(w.SourceNme)
	fm := pattern.NewModel("waisfmodel")
	fm.Define("Fworks", &pattern.P{
		Kind: pattern.KNode, Label: "works",
		Bind: pattern.BindNone, Inst: pattern.InstGround,
		Items: []pattern.Item{{Star: true, Inst: pattern.InstNone,
			P: &pattern.P{Kind: pattern.KRef, Name: "work", Bind: pattern.BindTree}}},
	})
	i.FModels = append(i.FModels, fm)
	i.Binds["works"] = capability.BindCap{FModel: "waisfmodel", FPattern: "Fworks"}
	i.Structures["works"] = capability.StructureRef{Model: w.ExportStructure(), Pattern: "Works"}
	i.Operations = append(i.Operations,
		capability.Operation{Name: "bind", Kind: "algebra",
			Inputs: []capability.Sig{
				{Model: "Artworks_Structure", Pattern: "Works"},
				{Model: "waisfmodel", Pattern: "Fworks", IsFilter: true},
			},
			Output: &capability.Sig{Model: "yat", Pattern: "Tab"}},
		capability.Operation{Name: "select", Kind: "algebra"},
		capability.Operation{Name: "contains", Kind: "external",
			Inputs: []capability.Sig{
				{Model: "Artworks_Structure", Pattern: "Work"},
				{Leaf: "String"},
			},
			Output: &capability.Sig{Leaf: "Bool"}},
	)
	i.Equivalences = append(i.Equivalences, capability.Equivalence{
		Name: "contains-eq", From: "eq", To: "contains", Scope: "work",
	})
	// Node table: pushable XPath-axis predicates over pre/post numbering.
	nodetab.Export(i, []string{"works"})
	return i
}

// Contains is the external predicate's local semantics: the tree's text
// contains every word of the argument. The mediator registers it so that
// contains can also be evaluated mediator-side when it cannot be pushed.
func Contains(args []tab.Cell) (tab.Cell, error) {
	if len(args) != 2 {
		return tab.Null(), fmt.Errorf("contains expects (tree, string)")
	}
	text, ok := args[1].AsAtom()
	if !ok || text.Kind != data.KindString {
		return tab.Null(), fmt.Errorf("contains expects a string argument")
	}
	var hay strings.Builder
	for _, n := range args[0].AsForest() {
		hay.WriteString(n.TextContent())
		hay.WriteByte(' ')
	}
	tokens := wais.Tokenize(hay.String())
	set := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		set[t] = true
	}
	for _, t := range wais.Tokenize(text.S) {
		if !set[t] {
			return tab.AtomCell(data.Bool(false)), nil
		}
	}
	return tab.AtomCell(data.Bool(true)), nil
}

// compilePush is PushStream's capability check and full-text search: it
// validates the plan against the declared shapes, runs one search per
// contains conjunct and intersects the answers. It returns the plan the
// search leaves for the algebra — the plan without its contains conjuncts,
// which the search has answered — and the matching document ids. A contains
// whose text has no search terms restricts nothing, as Contains holds for
// every work.
func (w *Wrapper) compilePush(plan algebra.Op, params map[string]tab.Cell) (algebra.Op, []int, error) {
	var docVar string
	var searches []string
	var walk func(op algebra.Op) (algebra.Op, error)
	walk = func(op algebra.Op) (algebra.Op, error) {
		// yat-lint:ignore intentionally partial: accepts exactly the declared capability shapes; the default refuses the push
		switch x := op.(type) {
		case *algebra.Project:
			from, err := walk(x.From)
			if err != nil {
				return nil, err
			}
			return &algebra.Project{From: from, Cols: x.Cols}, nil
		case *algebra.Select:
			from, err := walk(x.From)
			if err != nil {
				return nil, err
			}
			for _, conj := range algebra.SplitConj(x.Pred) {
				call, ok := conj.(algebra.Call)
				if !ok || call.Name != "contains" || len(call.Args) != 2 {
					return nil, fmt.Errorf("waiswrap: only contains predicates can be pushed, got %s", conj)
				}
				v, ok := call.Args[0].(algebra.Var)
				if !ok || v.Name != docVar {
					return nil, fmt.Errorf("waiswrap: contains must apply to the bound document variable")
				}
				text, err := stringArg(call.Args[1], params)
				if err != nil {
					return nil, err
				}
				if len(wais.Tokenize(text)) > 0 {
					searches = append(searches, text)
				}
			}
			return from, nil
		case *algebra.Bind:
			if x.Doc != "works" {
				return nil, fmt.Errorf("waiswrap: only binds over works can be pushed")
			}
			v, err := docVarOf(x.F.Root)
			if err != nil {
				return nil, err
			}
			docVar = v
			return x, nil
		default:
			return nil, fmt.Errorf("waiswrap: operator %T cannot be pushed", op)
		}
	}
	rest, err := walk(plan)
	if err != nil {
		return nil, nil, err
	}
	// Evaluate: full-text search for each contains, intersected.
	var ids []int
	if len(searches) == 0 {
		ids = make([]int, w.E.Size())
		for i := range ids {
			ids[i] = i
		}
	} else {
		ids = w.E.Search(searches[0])
		for _, s := range searches[1:] {
			ids = wais.And(ids, w.E.Search(s))
		}
		w.lastMu.Lock()
		w.LastSearch = strings.Join(searches, " AND ")
		w.lastMu.Unlock()
	}
	return rest, ids, nil
}

// docVarOf checks the Fworks shape works[ *work@$w ] and returns $w.
func docVarOf(root *filter.FNode) (string, error) {
	if root.Label != "works" || root.Var != "" || root.LabelVar != "" {
		return "", fmt.Errorf("waiswrap: filter must match the works root without binding it")
	}
	if len(root.Items) != 1 || !root.Items[0].Star {
		return "", fmt.Errorf("waiswrap: filter must iterate documents (*work@$w)")
	}
	it := root.Items[0]
	if it.CollectVar != "" {
		return "", fmt.Errorf("waiswrap: collect-star push is not supported")
	}
	wn := it.F
	if wn.Label != "work" || wn.Var == "" || len(wn.Items) > 0 {
		return "", fmt.Errorf("waiswrap: only whole documents can be bound (work@$w)")
	}
	return wn.Var, nil
}

func stringArg(e algebra.Expr, params map[string]tab.Cell) (string, error) {
	switch x := e.(type) {
	case algebra.Const:
		if x.Atom.Kind != data.KindString {
			return "", fmt.Errorf("waiswrap: contains expects a string constant")
		}
		return x.Atom.S, nil
	case algebra.Var:
		if c, ok := params[x.Name]; ok {
			if a, ok := c.AsAtom(); ok && a.Kind == data.KindString {
				return a.S, nil
			}
		}
		return "", fmt.Errorf("waiswrap: contains argument %s is not a bound string", x.Name)
	default:
		return "", fmt.Errorf("waiswrap: unsupported contains argument %T", e)
	}
}
