// Package o2wrap implements the generic O₂ wrapper of the paper
// (`o2-wrapper` in Figure 2): it exports an O₂ database's structural
// information as YAT patterns (Figure 3), its query capabilities as a
// capability interface (Figure 6), ships extents as XML trees, and — the
// heart of Section 4.1 — translates pushed algebraic subplans into OQL
// queries executed natively by the database.
package o2wrap

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/data"
	"repro/internal/nodetab"
	"repro/internal/o2"
	"repro/internal/pattern"
	"repro/internal/tab"
)

// Wrapper wraps one O₂ database.
type Wrapper struct {
	DB   *o2.DB
	name string
	// LastOQL records the text of the most recently pushed OQL query
	// (observability: tests and examples print it, as the paper does).
	// Writes are serialized by lastMu so concurrent pushes do not race;
	// read it only after the pushes of interest have completed.
	LastOQL string
	lastMu  sync.Mutex
	// nodes caches the pre/post-order node tables of the extents.
	nodes nodetab.Cache
}

// setLastOQL records the most recent pushed query under its lock.
func (w *Wrapper) setLastOQL(q string) {
	w.lastMu.Lock()
	w.LastOQL = q
	w.lastMu.Unlock()
}

// New returns a wrapper over db, named after the source (e.g. "o2artifact").
func New(name string, db *o2.DB) *Wrapper {
	return &Wrapper{DB: db, name: name}
}

// Name implements algebra.Source.
func (w *Wrapper) Name() string { return w.name }

// Documents implements algebra.Source: one document per extent, plus the
// pre/post-order node table of each (PR 7: pushable XPath axes).
func (w *Wrapper) Documents() []string {
	out := w.extentDocuments()
	for _, d := range w.extentDocuments() {
		out = append(out, nodetab.Doc(d))
	}
	return out
}

// extentDocuments lists the base extent documents only.
func (w *Wrapper) extentDocuments() []string {
	var out []string
	for _, cn := range w.DB.Schema.Order {
		out = append(out, w.DB.Schema.Classes[cn].Extent)
	}
	return out
}

// ---------------------------------------------------------------------------
// Structural export (Figure 3)
// ---------------------------------------------------------------------------

// ExportModel returns the ODMG metamodel the schema conforms to.
func (w *Wrapper) ExportModel() *pattern.Model { return pattern.ODMGModel() }

// ExportSchema converts the O₂ schema into a YAT pattern model: each class
// becomes `Class := class[ classname: <type> ]`, with collections, tuples
// and references mapped onto the corresponding YAT patterns.
func (w *Wrapper) ExportSchema() *pattern.Model {
	m := pattern.NewModel(w.name)
	for _, cn := range w.DB.Schema.Order {
		c := w.DB.Schema.Classes[cn]
		body := typePattern(c.Type)
		m.Define(cn, pattern.Node("class", pattern.Node(strings.ToLower(cn), body)))
	}
	return m
}

func typePattern(t *o2.Type) *pattern.P {
	switch t.Kind {
	case o2.TInt:
		return pattern.Int()
	case o2.TFloat:
		return pattern.Float()
	case o2.TBool:
		return pattern.Bool()
	case o2.TStr:
		return pattern.Str()
	case o2.TTuple:
		kids := make([]*pattern.P, len(t.Fields))
		for i, f := range t.Fields {
			kids[i] = pattern.Node(f.Name, typePattern(f.Type))
		}
		return pattern.Node("tuple", kids...)
	case o2.TColl:
		col := pattern.ColFromString(t.Col.String())
		return pattern.Coll(col, typePattern(t.Elem))
	case o2.TClass:
		return pattern.Ref(t.Class)
	default:
		return pattern.Any()
	}
}

// ---------------------------------------------------------------------------
// Data export (Figure 1 / Figure 3 data level)
// ---------------------------------------------------------------------------

// ExportObject converts an object to its YAT tree:
// class[ classname[ <value> ] ] carrying the oid as identifier; references
// stay references.
func (w *Wrapper) ExportObject(o *o2.Object) *data.Node {
	var c exportCount
	c.object(o)
	b := c.block()
	return exportObject(&b, map[string]string{}, o)
}

// ExportVal converts a value to its YAT tree.
func (w *Wrapper) ExportVal(v o2.Val) *data.Node {
	var c exportCount
	c.val(v)
	b := c.block()
	return exportVal(&b, v)
}

// Fetch implements algebra.Source: it ships a whole extent as a set tree,
// followed by the transitive closure of referenced objects (so that the
// mediator can resolve references while navigating), all built in one block.
func (w *Wrapper) Fetch(doc string) (data.Forest, error) {
	if nodetab.IsNodes(doc) {
		return w.nodeTable(nodetab.Base(doc))
	}
	cls := w.DB.Schema.ClassByExtent(doc)
	if cls == nil {
		return nil, fmt.Errorf("o2wrap: unknown extent %q", doc)
	}
	// The extent's objects, then the referenced closure breadth first.
	extent := w.DB.Extents[doc]
	objs := make([]*o2.Object, len(extent))
	shipped := map[string]bool{}
	for i, oid := range extent {
		objs[i], shipped[oid] = w.DB.Get(oid), true
	}
	c := exportCount{nodes: 1}
	for i := 0; i < len(objs); i++ {
		c.object(objs[i])
		collectRefs(objs[i].Value.Val, func(ref string) {
			if !shipped[ref] {
				shipped[ref] = true
				objs = append(objs, w.DB.Get(ref))
			}
		})
	}
	c.kids += 1 + len(objs)
	b := c.block()
	set := b.Elem("set")
	set.Kids = b.List(len(extent))
	forest := data.Forest(b.List(1 + len(objs) - len(extent)))
	forest[0] = set
	labels := map[string]string{}
	for i, o := range objs {
		if i < len(extent) {
			set.Kids[i] = exportObject(&b, labels, o)
		} else {
			forest[1+i-len(extent)] = exportObject(&b, labels, o)
		}
	}
	return forest, nil
}

// exportCount counts the nodes, atoms and child pointers of exported trees.
type exportCount struct{ nodes, atoms, kids int }

func (c *exportCount) block() data.Block { return data.NewBlock(c.nodes, c.atoms, c.kids) }

func (c *exportCount) object(o *o2.Object) {
	c.nodes, c.kids = c.nodes+2, c.kids+2
	c.val(o.Value.Val)
}

func (c *exportCount) val(v o2.Val) {
	c.nodes++
	if _, ok := valToAtom(v); ok {
		c.atoms++
	} else if v.Kind == o2.VTuple || v.Kind == o2.VColl {
		c.kids += len(v.Elems)
		for _, e := range v.Elems {
			if _, ok := valToAtom(e); !ok && v.Kind == o2.VTuple {
				c.nodes, c.kids = c.nodes+1, c.kids+1 // the field over the value
			}
			c.val(e)
		}
	}
}

// exportObject builds o's tree. labels holds the element label of each
// class met so far, its name in lower case, so that a label is made once per
// class, not once per object.
func exportObject(b *data.Block, labels map[string]string, o *o2.Object) *data.Node {
	label, ok := labels[o.Class]
	if !ok {
		label = strings.ToLower(o.Class)
		labels[o.Class] = label
	}
	return b.Elem("class", b.Elem(label, exportVal(b, o.Value.Val))).WithID(o.OID)
}

// exportVal builds v's tree. An atom is an unlabeled leaf, but the leaf of
// its field in a tuple and an item leaf in a collection.
func exportVal(b *data.Block, v o2.Val) *data.Node {
	if a, ok := valToAtom(v); ok {
		return b.Leaf("", a)
	}
	var n *data.Node
	switch v.Kind {
	case o2.VOid:
		n = b.Elem("ref")
		n.Ref = v.S
	case o2.VTuple:
		n = b.Elem("tuple")
		n.Kids = b.List(len(v.Names))
		for i, name := range v.Names {
			if a, ok := valToAtom(v.Elems[i]); ok {
				n.Kids[i] = b.Leaf(name, a)
			} else {
				n.Kids[i] = b.Elem(name, exportVal(b, v.Elems[i]))
			}
		}
	case o2.VColl:
		n = b.Elem(v.Col.String())
		n.Kids = b.List(len(v.Elems))
		for i, e := range v.Elems {
			if n.Kids[i] = exportVal(b, e); n.Kids[i].Atom != nil {
				n.Kids[i].Label = "item"
			}
		}
	default:
		n = b.Elem("nil")
	}
	return n
}

// nodeTable returns the cached node table of an extent document.
func (w *Wrapper) nodeTable(base string) (data.Forest, error) {
	return w.nodes.Get(base, func(b string) (data.Forest, error) {
		if w.DB.Schema.ClassByExtent(b) == nil {
			return nil, fmt.Errorf("o2wrap: unknown extent %q", b)
		}
		return w.Fetch(b)
	})
}

func collectRefs(v o2.Val, fn func(string)) {
	switch v.Kind {
	case o2.VOid:
		fn(v.S)
	case o2.VTuple, o2.VColl:
		for _, e := range v.Elems {
			collectRefs(e, fn)
		}
	}
}

// ---------------------------------------------------------------------------
// Capability export (Figure 6)
// ---------------------------------------------------------------------------

// ExportInterface builds the operational interface of Figure 6: the O₂
// Fpatterns (Fclass, Ftype, Fextent), a bind capability per extent, the
// algebraic operations OQL evaluates, the boolean predicates, and one
// method declaration per schema method.
func (w *Wrapper) ExportInterface() *capability.Interface {
	i := capability.NewInterface(w.name)
	fm := pattern.NewModel("o2fmodel")
	fm.Define("Fclass", &pattern.P{
		Kind: pattern.KNode, Label: "class", Bind: pattern.BindTree,
		Items: []pattern.Item{{P: &pattern.P{
			Kind: pattern.KNode, AnyLabel: true,
			Bind: pattern.BindNone, Inst: pattern.InstGround,
			Items: []pattern.Item{{P: &pattern.P{Kind: pattern.KRef, Name: "Ftype"}}},
		}}},
	})
	ftype := &pattern.P{Kind: pattern.KUnion}
	ftype.Alts = append(ftype.Alts,
		&pattern.P{Kind: pattern.KInt},
		&pattern.P{Kind: pattern.KBool},
		&pattern.P{Kind: pattern.KFloat},
		&pattern.P{Kind: pattern.KString},
		&pattern.P{
			Kind: pattern.KNode, Label: "tuple", Bind: pattern.BindTree,
			Items: []pattern.Item{{Star: true, Inst: pattern.InstGround,
				P: &pattern.P{
					Kind: pattern.KNode, AnyLabel: true, Bind: pattern.BindNone,
					Items: []pattern.Item{{P: &pattern.P{Kind: pattern.KRef, Name: "Ftype"}}},
				}}},
		})
	for _, col := range []pattern.Col{pattern.ColSet, pattern.ColBag, pattern.ColList, pattern.ColArray} {
		ftype.Alts = append(ftype.Alts, &pattern.P{
			Kind: pattern.KNode, Label: col.String(), Col: col, Bind: pattern.BindTree,
			Items: []pattern.Item{{Star: true, Inst: pattern.InstNone,
				P: &pattern.P{Kind: pattern.KRef, Name: "Ftype"}}},
		})
	}
	ftype.Alts = append(ftype.Alts, &pattern.P{Kind: pattern.KRef, Name: "Fclass"})
	fm.Define("Ftype", ftype)
	fm.Define("Fextent", &pattern.P{
		Kind: pattern.KNode, Label: "set", Col: pattern.ColSet, Bind: pattern.BindTree,
		Items: []pattern.Item{{Star: true, Inst: pattern.InstNone,
			P: &pattern.P{Kind: pattern.KRef, Name: "Fclass"}}},
	})
	i.FModels = append(i.FModels, fm)
	for _, doc := range w.Documents() {
		i.Binds[doc] = capability.BindCap{FModel: "o2fmodel", FPattern: "Fextent"}
	}
	schema := w.ExportSchema()
	for _, cn := range w.DB.Schema.Order {
		i.Structures[w.DB.Schema.Classes[cn].Extent] =
			capability.StructureRef{Model: schema, Pattern: cn}
	}
	// The OQL-backed operations are scoped to the extent documents: a join
	// the database evaluates natively ranges over extents, not over the
	// synthetic node tables below (those have their own scoped entries), and
	// a single declaration never covers a mix of the two families.
	extents := w.extentDocuments()
	i.Operations = append(i.Operations,
		capability.Operation{Name: "bind", Kind: "algebra",
			Inputs: []capability.Sig{
				{Model: "o2model", Pattern: "Type"},
				{Model: "o2fmodel", Pattern: "Ftype", IsFilter: true},
			},
			Output: &capability.Sig{Model: "yat", Pattern: "Tab"}},
		capability.Operation{Name: "select", Kind: "algebra", Docs: extents},
		capability.Operation{Name: "project", Kind: "algebra", Docs: extents},
		capability.Operation{Name: "join", Kind: "algebra", Docs: extents},
		capability.Operation{Name: "djoin", Kind: "algebra", Docs: extents},
		capability.Operation{Name: "map", Kind: "algebra", Docs: extents},
		capability.Operation{Name: "eq", Kind: "boolean", Docs: extents},
		capability.Operation{Name: "neq", Kind: "boolean", Docs: extents},
		capability.Operation{Name: "lt", Kind: "boolean", Docs: extents},
		capability.Operation{Name: "leq", Kind: "boolean", Docs: extents},
		capability.Operation{Name: "gt", Kind: "boolean", Docs: extents},
		capability.Operation{Name: "geq", Kind: "boolean", Docs: extents},
	)
	// Node tables: pushable XPath-axis predicates over pre/post numbering.
	nodetab.Export(i, extents)
	for _, cn := range w.DB.Schema.Order {
		c := w.DB.Schema.Classes[cn]
		names := make([]string, 0, len(c.Methods))
		for mn := range c.Methods {
			names = append(names, mn)
		}
		sort.Strings(names) // the interface marshals the same every time
		for _, mn := range names {
			m := c.Methods[mn]
			leaf := "String"
			switch m.Output.Kind {
			case o2.TInt:
				leaf = "Int"
			case o2.TFloat:
				leaf = "Float"
			case o2.TBool:
				leaf = "Bool"
			}
			i.Operations = append(i.Operations, capability.Operation{
				Name: mn, Kind: "method",
				Inputs: []capability.Sig{{Model: w.name, Pattern: cn}},
				Output: &capability.Sig{Leaf: leaf},
			})
		}
	}
	return i
}

// Funcs exports the schema's methods as mediator-callable functions: when a
// method predicate cannot be pushed, the mediator evaluates it by calling
// back into the source with the object's identifier.
func (w *Wrapper) Funcs() map[string]algebra.Func {
	out := map[string]algebra.Func{}
	for _, cn := range w.DB.Schema.Order {
		for mn, m := range w.DB.Schema.Classes[cn].Methods {
			method := m
			out[mn] = func(args []tab.Cell) (tab.Cell, error) {
				if len(args) != 1 || args[0].Kind != tab.CTree || args[0].Tree.ID == "" {
					return tab.Null(), fmt.Errorf("o2wrap: method %s expects an identified object", method.Name)
				}
				obj := w.DB.Get(args[0].Tree.ID)
				if obj == nil {
					return tab.Null(), fmt.Errorf("o2wrap: unknown object %s", args[0].Tree.ID)
				}
				v, err := method.Fn(w.DB, obj)
				if err != nil {
					return tab.Null(), err
				}
				return w.valToCell(varBinding{kind: kAtom}, v)
			}
		}
	}
	return out
}
