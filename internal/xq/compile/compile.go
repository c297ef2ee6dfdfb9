// Package compile lowers xq ASTs into the YAT algebra. A query becomes a
// yatl.Rule — MAKE from the return constructor, MATCH clauses from the for
// paths, WHERE from the conditions — and yatl.Translate produces the plan,
// so compiled queries get exactly the Bind/Select/Join/Tree shapes the
// three-round optimizer, the batching engine and AllowPartial already
// handle.
//
// Two encodings cover the axis spectrum (DESIGN.md §12):
//
//   - Filter route (default): forward child/attribute steps become YAT
//     filters over the named document, exactly the shapes a hand-written
//     YAT_L query uses. Descendant steps in predicate or return extensions
//     become ** descent items.
//
//   - Nodes route: a path using `//`, reverse axes or positional predicates
//     anywhere in its for clause compiles against the source's `<doc>.nodes`
//     table (internal/nodetab): one Bind per location step over node[...]
//     filters in canonical field order, with axes as pre/post/parent
//     comparisons the optimizer can push to wrappers as range joins.
package compile

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/filter"
	"repro/internal/nodetab"
	"repro/internal/xq"
	"repro/internal/yatl"
)

// Options configure compilation.
type Options struct {
	// IsView reports whether a document names a mediator view. Node-table
	// routes need the pre/post numbering only sources export, so reverse
	// axes, `//` and positional predicates over a view are refused with a
	// targeted error instead of a late "unknown document <view>.nodes".
	IsView func(doc string) bool
}

// Compile lowers a query to an executable algebra plan.
func Compile(q *xq.Query, opt Options) (algebra.Op, error) {
	r, err := Rule(q, opt)
	if err != nil {
		return nil, err
	}
	return yatl.Translate(r)
}

// Rule lowers a query to the equivalent YAT_L rule (the intermediate form;
// the console's `xq` command displays it).
func Rule(q *xq.Query, opt Options) (*yatl.Rule, error) {
	c := &compiler{
		opt:     opt,
		used:    map[string]bool{},
		anchors: map[string]*anchor{},
		ext:     map[*filter.FNode]map[string]*filter.FNode{},
		content: map[*filter.FNode]string{},
	}
	collectVars(q, c.used)
	for _, f := range q.Fors {
		if err := c.forClause(f); err != nil {
			return nil, err
		}
	}
	if q.Where != nil {
		e, err := c.cond(q.Where, nil)
		if err != nil {
			return nil, err
		}
		c.conjs = append(c.conjs, e)
	}
	make_, err := c.cons(q.Return)
	if err != nil {
		return nil, err
	}
	r := &yatl.Rule{Name: "xq", Make: make_}
	for _, s := range c.slots {
		f := s.root
		if s.nb != nil {
			f = s.nb.render()
		}
		r.Matches = append(r.Matches, yatl.Match{Doc: s.doc, F: filter.New(f)})
	}
	if len(c.conjs) > 0 {
		r.Where = algebra.Conj(c.conjs...)
	}
	return r, nil
}

// needsNodesSteps reports whether a path's steps require the node-table
// encoding: descendant or reverse axes, or a positional predicate, on any
// of them.
func needsNodesSteps(steps []*xq.Step) bool {
	for _, st := range steps {
		switch st.Axis {
		case xq.Desc, xq.Parent, xq.Ancestor:
			return true
		}
		for _, pr := range st.Preds {
			if _, ok := pr.(*xq.PosPred); ok {
				return true
			}
		}
	}
	return false
}

// anchor is the compilation site a for variable is bound at: a filter node
// (filter route) or a node-table bind (nodes route).
type anchor struct {
	fn *filter.FNode
	nb *nodeBind
}

// slot is one pending MATCH clause, in creation order.
type slot struct {
	doc  string
	root *filter.FNode // filter route
	nb   *nodeBind     // nodes route
}

type compiler struct {
	opt     Options
	used    map[string]bool // variable names taken (user vars + minted)
	n       int
	slots   []*slot
	conjs   []algebra.Expr
	anchors map[string]*anchor
	// ext memoizes extension children per filter node, keyed by "/label"
	// (child) or "//label" (descent), so `$w/title` in where and return
	// shares one binding.
	ext map[*filter.FNode]map[string]*filter.FNode
	// content memoizes the content variable bound at a filter node.
	content map[*filter.FNode]string
}

// collectVars marks every $variable occurring in the query so minted names
// never collide.
func collectVars(n xq.Node, used map[string]bool) {
	switch x := n.(type) {
	case *xq.Query:
		for _, f := range x.Fors {
			collectVars(f, used)
		}
		if x.Where != nil {
			collectVars(x.Where, used)
		}
		collectVars(x.Return, used)
	case *xq.ForClause:
		used[x.Var] = true
		collectVars(x.Src, used)
	case *xq.PathExpr:
		if x.Var != "" {
			used[x.Var] = true
		}
		for _, st := range x.Steps {
			collectVars(st, used)
		}
	case *xq.Step:
		for _, pr := range x.Preds {
			collectVars(pr, used)
		}
	case *xq.CmpExpr:
		collectVars(x.L, used)
		collectVars(x.R, used)
	case *xq.LogicExpr:
		for _, k := range x.Kids {
			collectVars(k, used)
		}
	case *xq.ElemCons:
		for _, k := range x.Kids {
			collectVars(k, used)
		}
	case *xq.PosPred, *xq.Literal, *xq.TextCons:
		// no variables
	}
}

// fresh mints an unused variable name.
func (c *compiler) fresh() string {
	for {
		c.n++
		v := fmt.Sprintf("$xq%d", c.n)
		if !c.used[v] {
			c.used[v] = true
			return v
		}
	}
}

// ---------------------------------------------------------------------------
// For clauses
// ---------------------------------------------------------------------------

func (c *compiler) forClause(f *xq.ForClause) error {
	if _, dup := c.anchors[f.Var]; dup {
		return fmt.Errorf("xq: variable %s bound twice", f.Var)
	}
	p := f.Src
	var a *anchor
	switch {
	case p.Doc != "":
		var err error
		if needsNodesSteps(p.Steps) {
			a, err = c.docNodesClause(p)
		} else {
			a, err = c.docFilterClause(p)
		}
		if err != nil {
			return err
		}
	case p.Var != "":
		base, ok := c.anchors[p.Var]
		if !ok {
			return fmt.Errorf("xq: for clause %s references unbound variable %s", f.Var, p.Var)
		}
		var err error
		if base.nb != nil {
			nb, e := c.nodeSteps(base.nb, p.Steps, true)
			a, err = &anchor{nb: nb}, e
		} else {
			if needsNodesSteps(p.Steps) {
				return fmt.Errorf("xq: %s: descendant/reverse axes and positional predicates on a path rooted at %s need a document-rooted path (node tables exist per source document)", f.Var, p.Var)
			}
			fn, e := c.filterSteps(base.fn, p.Steps, true)
			a, err = &anchor{fn: fn}, e
		}
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("xq: for clause %s must iterate a doc(...)- or variable-rooted path", f.Var)
	}
	c.anchors[f.Var] = a
	return nil
}

// docFilterClause compiles a document-rooted forward path into one MATCH
// clause: the first step names the tree root, later steps are starred
// element items (the `doc[ *work[...] ]` convention of hand-written rules).
func (c *compiler) docFilterClause(p *xq.PathExpr) (*anchor, error) {
	root := &filter.FNode{}
	rest := p.Steps
	if len(rest) > 0 {
		st := rest[0]
		if st.Axis == xq.Parent || st.Axis == xq.Ancestor {
			return nil, fmt.Errorf("xq: the document root of %q has no %s", p.Doc, st.Axis)
		}
		root.Label, root.AnyLabel = stepLabel(st)
		if err := c.stepPreds(st, &anchor{fn: root}); err != nil {
			return nil, err
		}
		rest = rest[1:]
	}
	c.slots = append(c.slots, &slot{doc: p.Doc, root: root})
	fn, err := c.filterSteps(root, rest, true)
	if err != nil {
		return nil, err
	}
	return &anchor{fn: fn}, nil
}

// docNodesClause compiles a document-rooted path carrying descendant,
// reverse-axis or positional steps against the document's node table.
func (c *compiler) docNodesClause(p *xq.PathExpr) (*anchor, error) {
	if c.opt.IsView != nil && c.opt.IsView(p.Doc) {
		return nil, fmt.Errorf("xq: %q is a view: descendant/reverse axes and positional predicates need the pre/post node numbering only source documents export; query the underlying source directly", p.Doc)
	}
	nb, err := c.nodeSteps(nil, p.Steps, true)
	if err != nil {
		return nil, err
	}
	if nb == nil {
		return nil, fmt.Errorf("xq: doc(%q) alone cannot use the node-table route", p.Doc)
	}
	// Patch the document onto every bind the chain created (nodeSteps is
	// shared with variable-rooted extensions, which inherit the doc).
	for _, s := range c.slots {
		if s.nb != nil && s.nb.doc == "" {
			s.nb.doc = nodetab.Doc(p.Doc)
			s.doc = s.nb.doc
		}
	}
	return &anchor{nb: nb}, nil
}

// stepLabel returns the filter label for a step (attributes address the
// `@name` children of the XML encoding).
func stepLabel(st *xq.Step) (label string, anyLabel bool) {
	if st.Wild {
		return "", true
	}
	if st.Axis == xq.Attr {
		return "@" + st.Name, false
	}
	return st.Name, false
}

// ---------------------------------------------------------------------------
// Filter route
// ---------------------------------------------------------------------------

// filterSteps extends a filter node with a chain of steps; star marks for
// clause iteration (hand-rule convention: `*work[...]`), extensions from
// where/return stay unstarred (`title: $t`).
func (c *compiler) filterSteps(from *filter.FNode, steps []*xq.Step, star bool) (*filter.FNode, error) {
	cur := from
	for _, st := range steps {
		switch st.Axis {
		case xq.Parent, xq.Ancestor:
			return nil, fmt.Errorf("xq: %s:: steps need a document-rooted path over a source document (node tables)", st.Axis)
		}
		label, anyLabel := stepLabel(st)
		key := "/" + label
		if st.Axis == xq.Desc {
			key = "//" + label
		}
		if anyLabel {
			key += "*"
		}
		var next *filter.FNode
		if !star && len(st.Preds) == 0 {
			if m := c.ext[cur]; m != nil {
				next = m[key]
			}
		}
		if next == nil {
			next = &filter.FNode{Label: label, AnyLabel: anyLabel}
			cur.Items = append(cur.Items, filter.FItem{
				F:       next,
				Star:    star,
				Descend: st.Axis == xq.Desc,
			})
			if !star && len(st.Preds) == 0 {
				if c.ext[cur] == nil {
					c.ext[cur] = map[string]*filter.FNode{}
				}
				c.ext[cur][key] = next
			}
		}
		if err := c.stepPreds(st, &anchor{fn: next}); err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// stepPreds lowers a step's predicate list at its anchor; positional
// predicates only make sense on the nodes route.
func (c *compiler) stepPreds(st *xq.Step, at *anchor) error {
	for _, pr := range st.Preds {
		if pp, ok := pr.(*xq.PosPred); ok {
			if at.nb == nil {
				return fmt.Errorf("xq: positional predicate [%d] needs a document-rooted path over a source document (node tables)", pp.N)
			}
			if st.Wild {
				return fmt.Errorf("xq: positional predicate [%d] on a wildcard step is unsupported (the node table's pos counts same-name siblings, not position among all selected nodes)", pp.N)
			}
			if at.nb.posConst != nil {
				return fmt.Errorf("xq: step %s carries more than one positional predicate ([%d] and [%d])", st.Name, *at.nb.posConst, pp.N)
			}
			k := int64(pp.N)
			at.nb.posConst = &k
			continue
		}
		e, err := c.cond(pr, at)
		if err != nil {
			return err
		}
		c.conjs = append(c.conjs, e)
	}
	return nil
}

// contentVar binds (once) the atomic content of a filter node.
func (c *compiler) contentVar(fn *filter.FNode) string {
	if v, ok := c.content[fn]; ok {
		return v
	}
	v := c.fresh()
	fn.Items = append(fn.Items, filter.FItem{F: &filter.FNode{Var: v}})
	c.content[fn] = v
	return v
}

// treeVar binds (once) the subtree of a filter node (`work@$w[...]`).
func (c *compiler) treeVar(fn *filter.FNode) string {
	if fn.Var == "" {
		fn.Var = c.fresh()
	}
	return fn.Var
}

// ---------------------------------------------------------------------------
// Nodes route
// ---------------------------------------------------------------------------

// nodeBind is one pending Bind over a node table. Variables are allocated
// on demand and the node[...] filter rendered at the end, its items in the
// order of the row fields of nodetab.FPattern, which wrappers declare (the
// capability checker matches filter items against it as an in-order
// subsequence).
type nodeBind struct {
	doc         string
	pre, post   string // range/axis variables ("" = unused)
	parent      string
	value, tree string
	parentConst *int64
	nameConst   string // "" = wildcard
	posConst    *int64
	kids        map[string]*nodeBind // extension memo
}

func (nb *nodeBind) preVar(c *compiler) string {
	if nb.pre == "" {
		nb.pre = c.fresh()
	}
	return nb.pre
}

func (nb *nodeBind) postVar(c *compiler) string {
	if nb.post == "" {
		nb.post = c.fresh()
	}
	return nb.post
}

func (nb *nodeBind) parentVar(c *compiler) string {
	if nb.parent == "" {
		nb.parent = c.fresh()
	}
	return nb.parent
}

func (nb *nodeBind) valueVar(c *compiler) string {
	if nb.value == "" {
		nb.value = c.fresh()
	}
	return nb.value
}

func (nb *nodeBind) treeVar(c *compiler) string {
	if nb.tree == "" {
		nb.tree = c.fresh()
	}
	return nb.tree
}

// render produces the node[...] filter, fields in canonical order.
func (nb *nodeBind) render() *filter.FNode {
	root := &filter.FNode{Label: "node"}
	field := func(label, v string, konst *data.Atom) {
		if v == "" && konst == nil {
			return
		}
		// Constants and variables sit in content position (the canonical
		// `parent: -1` / `pre: $p` forms the capability checker expects).
		fn := &filter.FNode{Label: label}
		if konst != nil {
			fn.Items = append(fn.Items, filter.FItem{F: &filter.FNode{Const: konst}})
		}
		if v != "" {
			fn.Items = append(fn.Items, filter.FItem{F: &filter.FNode{Var: v}})
		}
		root.Items = append(root.Items, filter.FItem{F: fn})
	}
	intAtom := func(p *int64) *data.Atom {
		if p == nil {
			return nil
		}
		a := data.Int(*p)
		return &a
	}
	field("pre", nb.pre, nil)
	field("post", nb.post, nil)
	field("parent", nb.parent, intAtom(nb.parentConst))
	var name *data.Atom
	if nb.nameConst != "" {
		a := data.String(nb.nameConst)
		name = &a
	}
	field("name", "", name)
	field("pos", "", intAtom(nb.posConst))
	field("value", nb.value, nil)
	field("tree", nb.tree, nil)
	return root
}

// nodeSteps compiles a chain of steps into node-table binds joined by axis
// predicates over the pre/post/parent numbering. from == nil starts at the
// document root. iterate marks for-clause iteration (mirroring filterSteps'
// star): iteration binds are always fresh and never memoized, so two for
// clauses over the same path stay independent cartesian sources; only
// where/return extensions share binds through the kids memo.
func (c *compiler) nodeSteps(from *nodeBind, steps []*xq.Step, iterate bool) (*nodeBind, error) {
	cur := from
	for _, st := range steps {
		label, anyLabel := stepLabel(st)
		key := fmt.Sprintf("%d/%s", st.Axis, label)
		memoize := !iterate && cur != nil && len(st.Preds) == 0
		if memoize {
			if nb := cur.kids[key]; nb != nil {
				cur = nb
				continue
			}
		}
		nb := &nodeBind{kids: map[string]*nodeBind{}}
		if cur != nil {
			nb.doc = cur.doc
		}
		if !anyLabel {
			nb.nameConst = label
		}
		if err := c.axisConj(cur, nb, st.Axis); err != nil {
			return nil, err
		}
		c.slots = append(c.slots, &slot{doc: nb.doc, nb: nb})
		if memoize {
			cur.kids[key] = nb
		}
		if err := c.stepPreds(st, &anchor{nb: nb}); err != nil {
			return nil, err
		}
		cur = nb
	}
	return cur, nil
}

// axisConj emits the axis predicate connecting s (context) to t (the new
// step); s == nil means the document root.
func (c *compiler) axisConj(s, t *nodeBind, axis xq.Axis) error {
	lt := func(a, b string) algebra.Expr {
		return algebra.Cmp{Op: algebra.OpLt, L: algebra.Var{Name: a}, R: algebra.Var{Name: b}}
	}
	if s == nil {
		switch axis {
		case xq.Child, xq.Attr:
			k := int64(-1)
			t.parentConst = &k
		case xq.Desc:
			// every node is a descendant of the document root
		case xq.Parent, xq.Ancestor:
			return fmt.Errorf("xq: the document root has no %s", axis)
		}
		return nil
	}
	switch axis {
	case xq.Child, xq.Attr:
		c.conjs = append(c.conjs, algebra.VarEq(t.parentVar(c), s.preVar(c)))
	case xq.Desc:
		c.conjs = append(c.conjs, lt(s.preVar(c), t.preVar(c)), lt(t.postVar(c), s.postVar(c)))
	case xq.Parent:
		c.conjs = append(c.conjs, algebra.VarEq(t.preVar(c), s.parentVar(c)))
	case xq.Ancestor:
		c.conjs = append(c.conjs, lt(t.preVar(c), s.preVar(c)), lt(s.postVar(c), t.postVar(c)))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Conditions and operands
// ---------------------------------------------------------------------------

// cond lowers a boolean condition; ctx anchors relative paths (step
// predicates), nil at the where clause.
func (c *compiler) cond(n xq.Node, ctx *anchor) (algebra.Expr, error) {
	// yat-lint:ignore deliberately partial: non-condition nodes rejected by the error default
	switch x := n.(type) {
	case *xq.CmpExpr:
		l, err := c.operand(x.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := c.operand(x.R, ctx)
		if err != nil {
			return nil, err
		}
		return algebra.Cmp{Op: algebra.CmpOp(x.Op.String()), L: l, R: r}, nil
	case *xq.LogicExpr:
		if x.Kind == xq.LNot {
			e, err := c.cond(x.Kids[0], ctx)
			if err != nil {
				return nil, err
			}
			return algebra.Not{E: e}, nil
		}
		var out algebra.Expr
		for _, k := range x.Kids {
			e, err := c.cond(k, ctx)
			if err != nil {
				return nil, err
			}
			if out == nil {
				out = e
			} else if x.Kind == xq.LAnd {
				out = algebra.And{L: out, R: e}
			} else {
				out = algebra.Or{L: out, R: e}
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("xq: unsupported condition %T (conditions are comparisons combined with and/or/not)", n)
	}
}

// operand lowers one comparison operand to a scalar expression.
func (c *compiler) operand(n xq.Node, ctx *anchor) (algebra.Expr, error) {
	// yat-lint:ignore deliberately partial: non-operand nodes rejected by the error default
	switch x := n.(type) {
	case *xq.Literal:
		return algebra.Const{Atom: x.Atom}, nil
	case *xq.PathExpr:
		v, err := c.resolve(x, ctx, false)
		if err != nil {
			return nil, err
		}
		return algebra.Var{Name: v}, nil
	default:
		return nil, fmt.Errorf("xq: unsupported operand %T (operands are paths and literals)", n)
	}
}

// resolve binds a path expression to a variable: the atomic content of the
// addressed node (tree == false) or its whole subtree (tree == true).
func (c *compiler) resolve(p *xq.PathExpr, ctx *anchor, tree bool) (string, error) {
	at := ctx
	switch {
	case p.Var != "":
		a, ok := c.anchors[p.Var]
		if !ok {
			return "", fmt.Errorf("xq: unbound variable %s", p.Var)
		}
		at = a
	case p.Doc != "":
		return "", fmt.Errorf("xq: doc(%q) cannot appear as an operand; bind it with a for clause", p.Doc)
	case at == nil:
		return "", fmt.Errorf("xq: relative path is only meaningful inside a step predicate")
	}
	if at.nb != nil {
		nb, err := c.nodeSteps(at.nb, p.Steps, false)
		if err != nil {
			return "", err
		}
		if tree {
			return nb.treeVar(c), nil
		}
		return nb.valueVar(c), nil
	}
	fn, err := c.filterSteps(at.fn, p.Steps, false)
	if err != nil {
		return "", err
	}
	if tree {
		return c.treeVar(fn), nil
	}
	return c.contentVar(fn), nil
}

// ---------------------------------------------------------------------------
// Constructors
// ---------------------------------------------------------------------------

// cons lowers the return clause to a construction pattern.
func (c *compiler) cons(n xq.Node) (*algebra.Cons, error) {
	// yat-lint:ignore deliberately partial: non-constructor nodes rejected by the error default
	switch x := n.(type) {
	case *xq.PathExpr:
		// A whole for variable splices its subtree; a path extension
		// splices the addressed content (so `return $w/title` yields the
		// title text, matching `MAKE $t` over `title: $t`).
		wantTree := x.Var != "" && len(x.Steps) == 0
		v, err := c.resolve(x, nil, wantTree)
		if err != nil {
			return nil, err
		}
		return &algebra.Cons{Var: v}, nil
	case *xq.Literal:
		a := x.Atom
		return &algebra.Cons{Const: &a}, nil
	case *xq.TextCons:
		a := data.String(x.S)
		return &algebra.Cons{Const: &a}, nil
	case *xq.ElemCons:
		out := &algebra.Cons{Label: x.Name}
		for _, k := range x.Kids {
			kc, err := c.cons(k)
			if err != nil {
				return nil, err
			}
			out.Kids = append(out.Kids, algebra.ConsItem{C: kc})
		}
		return out, nil
	default:
		return nil, fmt.Errorf("xq: unsupported constructor %T", n)
	}
}
