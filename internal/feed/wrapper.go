package feed

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/data"
	"repro/internal/filter"
	"repro/internal/pattern"
	"repro/internal/tab"
)

// Wrapper serves one ingested store over the source interfaces: the records
// document, the restricted capability profile (field-enumerating binds,
// equality and prefix selections, nothing else) and pushes narrowed by the
// field indexes. The store must be fully ingested before the wrapper starts
// serving; reads are lock-free.
type Wrapper struct {
	S         *Store
	SourceNme string
}

// New returns a wrapper over the store.
func New(name string, s *Store) *Wrapper {
	return &Wrapper{S: s, SourceNme: name}
}

// Name implements algebra.Source.
func (w *Wrapper) Name() string { return w.SourceNme }

// Documents implements algebra.Source: one bulk document.
func (w *Wrapper) Documents() []string { return []string{"records"} }

// Fetch implements algebra.Source: the whole feed under a records root —
// the costly path the optimizer avoids when the filter can be pushed.
func (w *Wrapper) Fetch(doc string) (data.Forest, error) {
	if doc != "records" {
		return nil, fmt.Errorf("feed: unknown document %q", doc)
	}
	root := data.Elem("records")
	root.Kids = append(root.Kids, w.S.recs...)
	return data.Forest{root}, nil
}

// ExportStructure returns the structural model of the normalized feed.
func (w *Wrapper) ExportStructure() *pattern.Model {
	return pattern.MustParseModel(`model Feed_Structure
Records := records[ *&Record ]
Record  := record[ id: String, title: String, issn: String, journal: String,
                   year: Int, publisher: String ]`)
}

// ExportInterface declares the bulk-feed capability profile, deliberately
// different from both existing families. Unlike o2 (full filters, joins,
// all comparison operators) and wais (whole-document binds, contains only),
// a feed source accepts field-enumerating binds — the filter may iterate
// records, bind whole records, and bind or constrain ground-labelled atomic
// fields — and exactly two predicates: equality (the indexed
// filter-by-field / fetch-by-id lookups) and the external prefix operation.
// No project, no join, no ordering comparisons: those stay mediator-side.
func (w *Wrapper) ExportInterface() *capability.Interface {
	i := capability.NewInterface(w.SourceNme)
	fm := capability.NewFModel("feedfmodel")
	fm.Define("Frecords", &capability.FT{
		Kind: pattern.KNode, Label: "records",
		Bind: capability.BindNone, Inst: capability.InstGround,
		Items: []capability.FTItem{{Star: true, Inst: capability.InstNone,
			F: &capability.FT{Kind: pattern.KRef, Name: "Frecord", Bind: capability.BindTree}}},
	})
	fm.Define("Frecord", &capability.FT{
		Kind: pattern.KNode, Label: "record", Bind: capability.BindTree,
		Items: []capability.FTItem{{Star: true, Inst: capability.InstAny,
			F: &capability.FT{Kind: pattern.KRef, Name: "Ffield"}}},
	})
	// Fields must be named concretely (inst=ground) and cannot carry
	// variables themselves; their single atomic child position takes a
	// content variable or a constant, and navigation below it is refused.
	fm.Define("Ffield", &capability.FT{
		Kind: pattern.KNode, AnyLabel: true,
		Bind: capability.BindNone, Inst: capability.InstGround,
		Items: []capability.FTItem{{F: &capability.FT{Kind: pattern.KUnion,
			Alts: []*capability.FT{{Kind: pattern.KInt}, {Kind: pattern.KString}}}}},
	})
	i.FModels = append(i.FModels, fm)
	i.Binds["records"] = capability.BindCap{FModel: "feedfmodel", FPattern: "Frecords"}
	i.Structures["records"] = capability.StructureRef{Model: w.ExportStructure(), Pattern: "Records"}
	i.Operations = append(i.Operations,
		capability.Operation{Name: "bind", Kind: "algebra",
			Inputs: []capability.Sig{
				{Model: "Feed_Structure", Pattern: "Records"},
				{Model: "feedfmodel", Pattern: "Frecords", IsFilter: true},
			},
			Output: &capability.Sig{Model: "yat", Pattern: "Tab"}},
		capability.Operation{Name: "select", Kind: "algebra", Docs: []string{"records"}},
		capability.Operation{Name: "eq", Kind: "boolean", Docs: []string{"records"}},
		capability.Operation{Name: "prefix", Kind: "external", Docs: []string{"records"},
			Inputs: []capability.Sig{{Leaf: "String"}, {Leaf: "String"}},
			Output: &capability.Sig{Leaf: "Bool"}},
	)
	return i
}

// Prefix is the external predicate's semantics: the first argument's text
// starts with the second. The mediator registers it so prefix predicates
// can also be evaluated mediator-side when they cannot be pushed.
func Prefix(args []tab.Cell) (tab.Cell, error) {
	if len(args) != 2 {
		return tab.Null(), fmt.Errorf("prefix expects (value, string)")
	}
	p, ok := args[1].AsAtom()
	if !ok || p.Kind != data.KindString {
		return tab.Null(), fmt.Errorf("prefix expects a string prefix argument")
	}
	return tab.AtomCell(data.Bool(strings.HasPrefix(cellText(args[0]), p.S))), nil
}

// cellText is the text a predicate sees for a cell: the atom's text, or the
// concatenated text content of a bound tree.
func cellText(c tab.Cell) string {
	if a, ok := c.AsAtom(); ok {
		return a.Text()
	}
	var b strings.Builder
	for _, n := range c.AsForest() {
		b.WriteString(n.TextContent())
	}
	return b.String()
}

// indexLookup is the index probe one pushed conjunct allows: the records
// whose field equals key, or starts with it for prefix.
type indexLookup struct {
	prefix     bool
	field, key string
}

// compilePush validates a pushed plan against the declared capability
// shapes — Select*/Project* over Bind(records) with a field-enumerating
// filter, predicates limited to eq and prefix over bound variables,
// constants and DJoin parameters — and returns the index lookups its
// conjuncts allow. The lookups only narrow the records: the algebra answers
// the whole plan over the records they leave.
func (w *Wrapper) compilePush(plan algebra.Op, params map[string]tab.Cell) ([]indexLookup, error) {
	var varField map[string]string
	var lookups []indexLookup
	var walk func(op algebra.Op) error
	walk = func(op algebra.Op) error {
		// yat-lint:ignore intentionally partial: accepts exactly the declared capability shapes; the default refuses the push
		switch x := op.(type) {
		case *algebra.Project:
			return walk(x.From)
		case *algebra.Select:
			if err := walk(x.From); err != nil {
				return err
			}
			for _, conj := range algebra.SplitConj(x.Pred) {
				l, ok, err := w.compilePred(varField, conj, params)
				if err != nil {
					return err
				}
				if ok {
					lookups = append(lookups, l)
				}
			}
			return nil
		case *algebra.Bind:
			if x.Doc != "records" || x.From != nil {
				return fmt.Errorf("feed: only binds over records can be pushed")
			}
			vf, err := fieldVarsOf(x.F.Root)
			if err != nil {
				return err
			}
			varField = vf
			return nil
		default:
			return fmt.Errorf("feed: operator %T cannot be pushed", op)
		}
	}
	if err := walk(plan); err != nil {
		return nil, err
	}
	return lookups, nil
}

// compilePred checks one conjunct — an equality comparison or a prefix
// call — and returns the index lookup it allows, if any.
func (w *Wrapper) compilePred(varField map[string]string, e algebra.Expr, params map[string]tab.Cell) (indexLookup, bool, error) {
	switch x := e.(type) {
	case algebra.Cmp:
		if x.Op != algebra.OpEq {
			return indexLookup{}, false, fmt.Errorf("feed: only equality comparisons can be pushed, got %s", e)
		}
		l, ok := w.annotateIndex(varField, false, x.L, x.R, params)
		if !ok {
			l, ok = w.annotateIndex(varField, false, x.R, x.L, params)
		}
		return l, ok, nil
	case algebra.Call:
		if x.Name != "prefix" || len(x.Args) != 2 {
			return indexLookup{}, false, fmt.Errorf("feed: only prefix predicates can be pushed, got %s", e)
		}
		l, ok := w.annotateIndex(varField, true, x.Args[0], x.Args[1], params)
		return l, ok, nil
	default:
		return indexLookup{}, false, fmt.Errorf("feed: predicate %s cannot be pushed", e)
	}
}

// annotateIndex returns the index lookup of a predicate whose operand fe is
// a field-bound variable and whose operand ge resolves to a ground atom.
// Equality is symmetric, so compilePred tries both orders; prefix only
// indexes through its first argument.
func (w *Wrapper) annotateIndex(varField map[string]string, prefix bool, fe, ge algebra.Expr, params map[string]tab.Cell) (indexLookup, bool) {
	v, ok := fe.(algebra.Var)
	if !ok {
		return indexLookup{}, false
	}
	field, bound := varField[v.Name]
	if !bound || field == "" || !w.S.Indexed(field) {
		return indexLookup{}, false
	}
	key, ok := groundText(ge, varField, params)
	return indexLookup{prefix: prefix, field: field, key: key}, ok
}

// groundText resolves an expression to ground text: a constant, or a
// variable answered by the DJoin parameters (a variable the filter binds is
// not ground — it varies per row).
func groundText(e algebra.Expr, varField map[string]string, params map[string]tab.Cell) (string, bool) {
	switch x := e.(type) {
	case algebra.Const:
		return x.Atom.Text(), true
	case algebra.Var:
		if _, bound := varField[x.Name]; bound {
			return "", false
		}
		if c, ok := params[x.Name]; ok {
			if a, ok := c.AsAtom(); ok {
				return a.Text(), true
			}
		}
		return "", false
	default:
		return "", false
	}
}

// fieldVarsOf validates the bind filter against the exported shape —
// records[ *record(@$r)[ field: $v | field: const ... ] ] — and maps every
// variable to the field it binds ("" for the record tree variable).
func fieldVarsOf(root *filter.FNode) (map[string]string, error) {
	if root.Label != "records" || root.Var != "" || root.LabelVar != "" {
		return nil, fmt.Errorf("feed: filter must match the records root without binding it")
	}
	if len(root.Items) != 1 || !root.Items[0].Star {
		return nil, fmt.Errorf("feed: filter must iterate records (*record[...])")
	}
	it := root.Items[0]
	if it.CollectVar != "" {
		return nil, fmt.Errorf("feed: collect-star push is not supported")
	}
	rec := it.F
	if rec.Label != "record" || rec.LabelVar != "" {
		return nil, fmt.Errorf("feed: only record elements can be iterated")
	}
	vars := map[string]string{}
	if rec.Var != "" {
		vars[rec.Var] = ""
	}
	for _, fi := range rec.Items {
		if fi.Star || fi.Descend || fi.CollectVar != "" {
			return nil, fmt.Errorf("feed: record fields must be enumerated concretely")
		}
		fn := fi.F
		if fn.Label == "" || fn.AnyLabel || fn.LabelVar != "" || fn.Var != "" {
			return nil, fmt.Errorf("feed: fields must be named concretely and not bound as trees")
		}
		if len(fn.Items) == 0 {
			continue // bare existence requirement, nothing to bind
		}
		if len(fn.Items) != 1 || fn.Items[0].Star || fn.Items[0].F == nil {
			return nil, fmt.Errorf("feed: field %s must constrain its content only", fn.Label)
		}
		content := fn.Items[0].F
		if len(content.Items) > 0 || content.Label != "" {
			return nil, fmt.Errorf("feed: navigation below field %s is not supported", fn.Label)
		}
		if content.Var != "" {
			if prev, dup := vars[content.Var]; dup && prev != fn.Label {
				return nil, fmt.Errorf("feed: variable %s bound to two fields", content.Var)
			}
			vars[content.Var] = fn.Label
		}
	}
	return vars, nil
}

// candidates returns the record positions the index lookups allow,
// intersecting them; with no lookup every record is a candidate (a bare
// bind is a scan — still correct, just not narrowed).
func (w *Wrapper) candidates(lookups []indexLookup) []int {
	var ids []int
	first := true
	for _, p := range lookups {
		var hit []int
		if p.prefix {
			hit = w.S.ByPrefix(p.field, p.key)
		} else {
			hit = w.S.ByField(p.field, p.key)
		}
		if first {
			ids, first = hit, false
			continue
		}
		ids = intersect(ids, hit)
	}
	if first {
		ids = make([]int, w.S.Len())
		for i := range ids {
			ids[i] = i
		}
	}
	return ids
}

// intersect merges two ascending id lists.
func intersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
