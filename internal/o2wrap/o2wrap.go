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
	"repro/internal/xmlenc"
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
	// labels holds the element label of each class, its name in lower case,
	// made once for the classes the schema had when the wrapper was made.
	labels map[string]string
}

// setLastOQL records the most recent pushed query under its lock.
func (w *Wrapper) setLastOQL(q string) {
	w.lastMu.Lock()
	w.LastOQL = q
	w.lastMu.Unlock()
}

// New returns a wrapper over db, named after the source (e.g. "o2artifact").
func New(name string, db *o2.DB) *Wrapper {
	labels := map[string]string{}
	for _, cn := range db.Schema.Order {
		labels[cn] = strings.ToLower(cn)
	}
	return &Wrapper{DB: db, name: name, labels: labels}
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
	return w.export(func(e *emitter) { e.object(o) })
}

// ExportVal converts a value to its YAT tree.
func (w *Wrapper) ExportVal(v o2.Val) *data.Node {
	return w.export(func(e *emitter) { e.val(&v, "") })
}

// export builds the one tree that emit emits, in a block of its own.
func (w *Wrapper) export(emit func(*emitter)) *data.Node {
	e := w.emitter()
	emit(&e)
	e.build(1)
	emit(&e)
	return e.roots[0]
}

// Fetch implements algebra.Source: it ships a whole extent as a set tree,
// followed by the transitive closure of referenced objects (so that the
// mediator can resolve references while navigating), all built in one block.
func (w *Wrapper) Fetch(doc string) (data.Forest, error) {
	if nodetab.IsNodes(doc) {
		return w.nodeTable(nodetab.Base(doc))
	}
	objs, extent, err := w.closure(doc)
	if err != nil {
		return nil, err
	}
	e := w.emitter()
	trees := 1 + len(objs) - extent
	for i := range trees {
		e.tree(objs, extent, i)
	}
	e.build(trees)
	for i := range trees {
		e.tree(objs, extent, i)
	}
	return e.roots, nil
}

// WriteDoc is Fetch for a source that writes the document's XML itself:
// doc has trees trees, and appendTree appends the text of the i-th,
// byte for byte what xmlenc.AppendSerialize writes for Fetch's i-th tree,
// without building it. The wire server ships an extent this way. Trees may
// be written in any order, and again, but one call at a time.
func (w *Wrapper) WriteDoc(doc string) (trees int, appendTree func(dst []byte, i int) []byte, err error) {
	if nodetab.IsNodes(doc) {
		f, err := w.nodeTable(nodetab.Base(doc))
		return len(f), func(dst []byte, i int) []byte { return xmlenc.AppendSerialize(dst, f[i]) }, err
	}
	objs, extent, err := w.closure(doc)
	if err != nil {
		return 0, nil, err
	}
	e := w.emitter()
	e.mode = writing
	return 1 + len(objs) - extent, func(dst []byte, i int) []byte {
		e.xml = dst
		e.tree(objs, extent, i)
		return e.xml
	}, nil
}

// closure returns the objects an extent document ships: the extent's, then
// the referenced closure breadth first; extent is how many are the extent's.
// The extent holds every object of its class, so only an object of another
// class is looked up among those shipped.
func (w *Wrapper) closure(doc string) (objs []*o2.Object, extent int, err error) {
	cls := w.DB.Schema.ClassByExtent(doc)
	if cls == nil {
		return nil, 0, fmt.Errorf("o2wrap: unknown extent %q", doc)
	}
	oids := w.DB.Extents[doc]
	objs = make([]*o2.Object, len(oids))
	for i, oid := range oids {
		objs[i] = w.DB.Get(oid)
	}
	shipped := map[string]bool{}
	for i := 0; i < len(objs); i++ {
		collectRefs(objs[i].Value.Val, func(ref string) {
			if o := w.DB.Get(ref); o.Class != cls.Name && !shipped[ref] {
				shipped[ref] = true
				objs = append(objs, o)
			}
		})
	}
	return objs, len(oids), nil
}

// emitter is the output of the one export walk (tree, object, val), which
// tells it each node in document order. Its mode says what it makes of them:
// it counts them, so that a block can be reserved; builds the trees in that
// block; or appends their XML text, the text xmlenc.AppendSerialize writes
// for the built trees.
type emitter struct {
	mode   emitMode
	labels map[string]string // the wrapper's class labels

	nodes, atoms int // counting

	b     data.Block   // building: the block,
	open  []*data.Node // the elements being filled, innermost last,
	roots []*data.Node // and the trees made

	xml []byte // writing: the text so far;
	// tag: the innermost element's start tag is not closed yet, so a
	// reference that comes next joins its refs attribute, of refs so far
	tag  bool
	refs int
}

// emitter returns a counting emitter.
func (w *Wrapper) emitter() emitter {
	return emitter{labels: w.labels, open: make([]*data.Node, 0, 8)}
}

type emitMode int

const (
	counting emitMode = iota
	building
	writing
)

// build turns a counting emitter into a building one: a block of the
// counted nodes and atoms, whose child lists also hold the trees made.
func (e *emitter) build(trees int) {
	e.mode, e.b = building, data.NewBlock(e.nodes, e.atoms, e.nodes)
	e.roots = e.b.List(trees)[:0]
}

// tree emits the i-th tree of an extent document: first the set of the
// extent's objects, then one referenced object each.
func (e *emitter) tree(objs []*o2.Object, extent, i int) {
	if i > 0 {
		e.object(objs[extent+i-1])
		return
	}
	e.elem("set", "", extent)
	for _, o := range objs[:extent] {
		e.object(o)
	}
	e.end("set")
}

// object emits o's tree: class[ classname[ <value> ] ] carrying the oid as
// identifier.
func (e *emitter) object(o *o2.Object) {
	label, ok := e.labels[o.Class]
	if !ok {
		label = strings.ToLower(o.Class)
	}
	e.elem("class", o.OID, 1)
	e.elem(label, "", 1)
	e.val(&o.Value.Val, "")
	e.end(label)
	e.end("class")
}

// val emits v. An atom is a leaf labeled atomLabel: unlabeled, but its
// field's in a tuple and "item" in a collection. A tuple field of any other
// value is an element over the value's tree.
func (e *emitter) val(v *o2.Val, atomLabel string) {
	if a, ok := valToAtom(v); ok {
		e.leaf(atomLabel, a)
		return
	}
	switch v.Kind {
	case o2.VOid:
		e.ref(v.S)
	case o2.VTuple:
		e.elem("tuple", "", len(v.Elems))
		for i, name := range v.Names {
			if _, ok := valToAtom(&v.Elems[i]); ok {
				e.val(&v.Elems[i], name)
			} else {
				e.elem(name, "", 1)
				e.val(&v.Elems[i], "")
				e.end(name)
			}
		}
		e.end("tuple")
	case o2.VColl:
		label := v.Col.String()
		e.elem(label, "", len(v.Elems))
		for i := range v.Elems {
			e.val(&v.Elems[i], "item")
		}
		e.end(label)
	default:
		e.elem("nil", "", 0)
		e.end("nil")
	}
}

// elem opens an element of kids children, identified by id if it is not
// empty; end closes it.
func (e *emitter) elem(label, id string, kids int) {
	switch e.mode {
	case counting:
		e.nodes++
	case building:
		n := e.b.Elem(label)
		n.ID, n.Kids = id, e.b.List(kids)[:0]
		e.add(n)
		e.open = append(e.open, n)
	case writing:
		e.closeTag(">")
		e.xml = append(append(e.xml, '<'), label...)
		if id != "" {
			e.xml = xmlenc.AppendAttr(e.xml, "id", id)
		}
		e.tag, e.refs = true, 0
	}
}

func (e *emitter) end(label string) {
	switch {
	case e.mode == building:
		e.open = e.open[:len(e.open)-1]
	case e.mode != writing:
	case e.tag:
		e.closeTag("/>") // nothing inside, or only its refs
	default:
		e.xml = append(append(append(e.xml, "</"...), label...), '>')
	}
}

// leaf emits an atom, labeled unless label is empty.
func (e *emitter) leaf(label string, a data.Atom) {
	switch e.mode {
	case counting:
		e.nodes, e.atoms = e.nodes+1, e.atoms+1
	case building:
		e.add(e.b.Leaf(label, a))
	case writing:
		e.closeTag(">")
		if label == "" {
			e.xml = xmlenc.AppendAtom(e.xml, &a)
			return
		}
		e.xml = xmlenc.AppendAtom(append(append(append(e.xml, '<'), label...), '>'), &a)
		e.xml = append(append(append(e.xml, "</"...), label...), '>')
	}
}

// ref emits a reference to oid. Written, the run of references an element
// starts with is its refs attribute, as the serializer writes it.
func (e *emitter) ref(oid string) {
	switch e.mode {
	case counting:
		e.nodes++
	case building:
		n := e.b.Elem("ref")
		n.Ref = oid
		e.add(n)
	case writing:
		if e.tag && oid != "" {
			if e.refs++; e.refs == 1 {
				e.xml = append(e.xml, ` refs="`...)
			} else {
				e.xml = append(e.xml, ' ')
			}
			e.xml = xmlenc.AppendEscaped(e.xml, oid)
			return
		}
		e.closeTag(">")
		e.xml = append(e.xml, "<ref"...)
		if oid != "" {
			e.xml = xmlenc.AppendAttr(e.xml, "ref", oid)
		}
		e.xml = append(e.xml, "/>"...)
	}
}

// add puts a built node into the innermost open element, or among the trees.
func (e *emitter) add(n *data.Node) {
	if len(e.open) == 0 {
		e.roots = append(e.roots, n)
		return
	}
	p := e.open[len(e.open)-1]
	p.Kids = append(p.Kids, n)
}

// closeTag closes the innermost start tag, and its refs attribute, with s
// if the tag is still open: ">" before what comes inside the element, "/>"
// when nothing does.
func (e *emitter) closeTag(s string) {
	if !e.tag {
		return
	}
	if e.refs > 0 {
		e.xml = append(e.xml, '"')
	}
	e.xml, e.tag = append(e.xml, s...), false
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

// collectRefs calls fn with every reference in v, in order.
func collectRefs(v o2.Val, fn func(string)) { refsOf(&v, fn) }

func refsOf(v *o2.Val, fn func(string)) {
	switch v.Kind {
	case o2.VOid:
		fn(v.S)
	case o2.VTuple, o2.VColl:
		for i := range v.Elems {
			refsOf(&v.Elems[i], fn)
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
