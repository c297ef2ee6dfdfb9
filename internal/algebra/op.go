package algebra

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/data"
	"repro/internal/filter"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/tab"
)

// Source is a wrapped external source as seen by the algebra: it exports
// named documents and can either ship a whole document (Fetch, the costly
// path) or evaluate a pushed subplan natively (Push, the capability-based
// path of Section 5.3).
type Source interface {
	// Name identifies the source ("o2artifact", "xmlartwork", ...).
	Name() string
	// Documents lists the document names the source exports.
	Documents() []string
	// Fetch ships an entire named document to the mediator.
	Fetch(doc string) (data.Forest, error)
	// Push evaluates a plan at the source. The plan only contains
	// operations the source declared in its capability interface; params
	// carries bindings passed sideways by a DJoin (information passing).
	Push(plan Op, params map[string]tab.Cell) (*tab.Tab, error)
}

// ContextSource is Fetch and Push under a cancellation context. The call
// ladder (call.go) no longer consults it: a source that honours a context
// does so through StreamSource, PushStreamSource or BatchSource, and no
// type in this module implements it. It stays declared only because the
// benchmark's recording decorator names it, and goes with the one source
// interface (ROADMAP "One source interface").
type ContextSource interface {
	Source
	// FetchContext is Fetch under a cancellation context.
	FetchContext(ctx context.Context, doc string) (data.Forest, error)
	// PushContext is Push under a cancellation context.
	PushContext(ctx context.Context, plan Op, params map[string]tab.Cell) (*tab.Tab, error)
}

// Stats are the execution counters of a plan evaluation; the experiments of
// EXPERIMENTS.md report them. They are obs.Counts, the type a trace span
// carries its share in, and Context.count writes both at once.
type Stats = obs.Counts

// count adds s to the query's counters and to the ambient span, if tracing.
// It is the only code outside Stats.Add that writes a counter (yat-lint
// check 5), which is what makes a trace's TreeCounts equal Stats exactly.
func (c *Context) count(s Stats) {
	c.Stats.Add(s)
	if c.Trace != nil {
		c.Trace.AddCounts(s)
	}
}

// Skolems mints stable identifiers: one per (function name, argument
// values) pair, as required by Skolem-function semantics (Section 3.1).
type Skolems struct {
	mu  sync.Mutex
	ids map[string]string
	n   int
	key []byte // the lookup key, built under mu
}

// NewSkolems returns an empty registry.
func NewSkolems() *Skolems { return &Skolems{ids: make(map[string]string)} }

// ID returns the identifier for the given function name and key cells,
// minting a fresh one on first use.
func (s *Skolems) ID(name string, key []tab.Cell) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.key = binary.AppendUvarint(s.key[:0], uint64(len(name)))
	s.key = tab.Row(key).AppendKey(append(s.key, name...), nil)
	if id, ok := s.ids[string(s.key)]; ok {
		return id
	}
	s.n++
	id := name + "_" + strconv.Itoa(s.n)
	s.ids[string(s.key)] = id
	return id
}

// Len reports the number of minted identifiers.
func (s *Skolems) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ids)
}

// Context carries everything a plan needs to evaluate.
type Context struct {
	// Catalog maps named documents to local forests (mediator-resident
	// data, view materializations, test fixtures).
	Catalog map[string]data.Forest
	// Sources maps source names to connections; named documents not in
	// the catalog are fetched from the source exporting them.
	Sources map[string]Source
	// Store resolves identifiers during Bind navigation.
	Store *data.Store
	// Skolem mints identifiers for Tree construction.
	Skolem *Skolems
	// Funcs holds external functions (contains, current_price, ...).
	Funcs map[string]Func
	// Params holds DJoin information-passing bindings.
	Params map[string]tab.Cell
	// Model resolves named type filters.
	Model *pattern.Model
	// Stats accumulates execution counters.
	Stats *Stats
	// Ctx, when non-nil, carries the query's cancellation context:
	// long-running operators check it between units of work, and the call
	// ladder hands it to a source's streaming and batch calls for in-flight
	// I/O.
	Ctx context.Context
	// Cache, when non-nil, memoizes pushed-subplan results across rows and
	// queries (see ResultCache); the mediator installs a shared instance.
	Cache *ResultCache
	// Partial, when non-nil, enables graceful degradation: source
	// failures marked UnavailableError are recorded here and the failing
	// input replaced by an empty one instead of aborting the query (see
	// exec.Options.AllowPartial). Shared, not forked: every worker
	// records into the same report.
	Partial *PartialReport
	// Trace, when non-nil, is the span the current work belongs to: the
	// engine opens a child span per plan node under it, and every counter
	// written through count lands in it as well as in Stats (see
	// internal/obs). Nil means tracing is off — the only cost is a nil
	// check per operator.
	Trace *obs.Span
	// CheckWire, when non-nil, validates every wrapper response the
	// moment it arrives: a pushed plan's rows — each chunk of a streamed
	// push, each binding's result of a batched one — are checked before
	// they are cached or released, and a non-nil error aborts the query.
	// The mediator installs a checker comparing rows against the plan's
	// inferred types when ExecOptions.CheckTypes is set.
	CheckWire func(q *SourceQuery, t *tab.Tab) error
}

// NewContext returns an empty evaluation context. The builtin function
// id(tree) — the identifier of an identified tree, or the target of a
// reference — is preregistered: it lets queries join references with the
// identified trees they point at (the DJoin-to-Join rewriting of Figure 7
// compares owner references with the persons extent this way).
func NewContext() *Context {
	ctx := &Context{
		Catalog: make(map[string]data.Forest),
		Sources: make(map[string]Source),
		Store:   data.NewStore(),
		Skolem:  NewSkolems(),
		Funcs:   make(map[string]Func),
		Stats:   &Stats{},
	}
	ctx.Funcs["id"] = func(args []tab.Cell) (tab.Cell, error) {
		if len(args) != 1 || args[0].Kind != tab.CTree {
			return tab.Null(), fmt.Errorf("id expects one tree argument")
		}
		n := args[0].Tree
		switch {
		case n.IsRef():
			return tab.AtomCell(data.String(n.Ref)), nil
		case n.ID != "":
			return tab.AtomCell(data.String(n.ID)), nil
		default:
			return tab.Null(), nil
		}
	}
	return ctx
}

// WithParams returns a shallow copy of the context with extra parameter
// bindings (used by DJoin to pass left-hand values to the right).
func (c *Context) WithParams(extra map[string]tab.Cell) *Context {
	cc := *c
	cc.Params = make(map[string]tab.Cell, len(c.Params)+len(extra))
	for k, v := range c.Params {
		cc.Params[k] = v
	}
	for k, v := range extra {
		cc.Params[k] = v
	}
	return &cc
}

// WithContext returns a shallow copy of the context carrying a cancellation
// context (threaded from Mediator.StreamContext down to the sources).
func (c *Context) WithContext(ctx context.Context) *Context {
	cc := *c
	cc.Ctx = ctx
	return &cc
}

// Fork returns a shallow copy with a fresh Stats accumulator. Parallel
// evaluation gives every concurrent worker its own fork so counter updates
// never race; the parent merges the forks back with Stats.Add, keeping the
// accounting exact (per-worker merge instead of shared atomics).
func (c *Context) Fork() *Context {
	cc := *c
	cc.Stats = &Stats{}
	return &cc
}

// Err reports the cancellation state of the attached context; a context-free
// evaluation is never cancelled.
func (c *Context) Err() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// exporter finds the connected source exporting a named document. The
// names the sources export are listed only for the error.
func (c *Context) exporter(name string) (Source, error) {
	for _, s := range c.Sources {
		if slices.Contains(s.Documents(), name) {
			return s, nil
		}
	}
	var names []string
	for _, s := range c.Sources {
		for _, d := range s.Documents() {
			names = append(names, s.Name()+"."+d)
		}
	}
	sort.Strings(names)
	return nil, fmt.Errorf("algebra: unknown input %q (known: %s)", name, strings.Join(names, ", "))
}

// Op is a node of an algebraic plan.
type Op interface {
	// Columns returns the output column names, statically.
	Columns() []string
	// Children returns the input plans.
	Children() []Op
	// Detail renders the operator head for plan printing.
	Detail() string
}

// ---------------------------------------------------------------------------
// Bind
// ---------------------------------------------------------------------------

// Bind extracts variable bindings from trees using a filter (Figure 4).
// Three input forms exist:
//
//   - Doc != "": bind over a named document (the common leaf of a plan);
//   - From != nil, Col != "": bind over the trees in column Col of each
//     input row, extending the row (the "linear split" form of Figure 7);
//   - From == nil, Doc == "", Col != "": bind over a DJoin parameter.
type Bind struct {
	From Op
	Doc  string
	Col  string
	F    *filter.Filter
}

// Columns implements Op.
func (b *Bind) Columns() []string {
	var out []string
	if b.From != nil {
		out = append(out, b.From.Columns()...)
	}
	return append(out, b.F.Vars()...)
}

// Children implements Op.
func (b *Bind) Children() []Op {
	if b.From == nil {
		return nil
	}
	return []Op{b.From}
}

// Detail implements Op.
func (b *Bind) Detail() string {
	src := b.Doc
	if src == "" {
		src = b.Col
	}
	return fmt.Sprintf("Bind(%s, %s)", src, b.F)
}

// filter resolves the bind's named type filters against the context's model.
func (b *Bind) filter(ctx *Context) *filter.Filter {
	if b.F.Model == nil && ctx.Model != nil {
		return &filter.Filter{Root: b.F.Root, Model: ctx.Model}
	}
	return b.F
}

// Apply is the kernel of the dependent form (From != nil): each input row is
// extended with the bindings of the trees in its column Col. One matcher
// serves the whole chunk, and the matcher writes each output row, input
// cells first, into its tree's slab of rows.
func (b *Bind) Apply(ctx *Context, in *tab.Tab) (*tab.Tab, error) {
	ci := in.ColIndex(b.Col)
	if ci < 0 {
		return nil, fmt.Errorf("algebra: Bind over unknown column %s of %v", b.Col, in.Cols)
	}
	m := b.filter(ctx).Matcher(ctx.Store)
	out := tab.New(b.Columns()...)
	for _, r := range in.Rows {
		for _, n := range r[ci].AsForest() {
			out.Rows = m.Append(out.Rows, r, n)
		}
	}
	ctx.count(Stats{BindRows: out.Len()})
	return out, nil
}

// ---------------------------------------------------------------------------
// Select, Project, Map
// ---------------------------------------------------------------------------

// Select filters rows by a predicate.
type Select struct {
	From Op
	Pred Expr
}

// Columns implements Op.
func (s *Select) Columns() []string { return s.From.Columns() }

// Children implements Op.
func (s *Select) Children() []Op { return []Op{s.From} }

// Detail implements Op.
func (s *Select) Detail() string { return fmt.Sprintf("Select(%s)", s.Pred) }

// Apply is the kernel: the rows of in satisfying the predicate.
func (s *Select) Apply(ctx *Context, in *tab.Tab) (*tab.Tab, error) {
	cols := colIndex(in.Cols)
	out := tab.New(in.Cols...)
	for _, r := range in.Rows {
		ok, err := truth(s.Pred, ctx, cols, r)
		if err != nil {
			return nil, fmt.Errorf("select: %w", err)
		}
		if ok {
			out.Rows = append(out.Rows, r)
		}
	}
	return out, nil
}

// Project keeps (and possibly renames, "new=old") the given columns.
type Project struct {
	From Op
	Cols []string
}

// Columns implements Op.
func (p *Project) Columns() []string {
	out := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		out[i], _ = tab.SplitRename(c)
	}
	return out
}

// Children implements Op.
func (p *Project) Children() []Op { return []Op{p.From} }

// Detail implements Op.
func (p *Project) Detail() string { return fmt.Sprintf("Project(%s)", strings.Join(p.Cols, ", ")) }

// Apply is the kernel.
func (p *Project) Apply(in *tab.Tab) *tab.Tab { return in.Project(p.Cols...) }

// MapExpr extends each row with a computed column (the algebra's Map).
type MapExpr struct {
	From Op
	Col  string
	E    Expr
}

// Columns implements Op.
func (m *MapExpr) Columns() []string { return append(m.From.Columns(), m.Col) }

// Children implements Op.
func (m *MapExpr) Children() []Op { return []Op{m.From} }

// Detail implements Op.
func (m *MapExpr) Detail() string { return fmt.Sprintf("Map(%s := %s)", m.Col, m.E) }

// Apply is the kernel: in extended with the computed column.
func (m *MapExpr) Apply(ctx *Context, in *tab.Tab) (*tab.Tab, error) {
	cols := colIndex(in.Cols)
	out := tab.New(m.Columns()...)
	for _, r := range in.Rows {
		v, err := m.E.Eval(ctx, cols, r)
		if err != nil {
			return nil, fmt.Errorf("map: %w", err)
		}
		out.AddRow(append(r.Clone(), v))
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Join, DJoin
// ---------------------------------------------------------------------------

// Join combines two inputs under a predicate. When the predicate contains
// column-column equalities across the two sides, a hash join is used;
// otherwise nested loops.
type Join struct {
	L, R Op
	Pred Expr
}

// Columns implements Op.
func (j *Join) Columns() []string { return append(j.L.Columns(), j.R.Columns()...) }

// Children implements Op.
func (j *Join) Children() []Op { return []Op{j.L, j.R} }

// Detail implements Op.
func (j *Join) Detail() string { return fmt.Sprintf("Join(%s)", j.Pred) }

// JoinBuild is a Join prepared against its materialized build side: the
// predicate's cross-side column equalities are resolved and the build side is
// hashed on them once, so each probe chunk costs lookups only. Without such
// equalities the probe is a nested loop. Either way every candidate pair is
// held to the whole predicate: a bucket only narrows the candidates, since
// cells that are Equal share a key (tab.Row.AppendKey), so the hash join
// answers as the predicate evaluated row by row does.
type JoinBuild struct {
	cols    []string
	colIdx  map[string]int
	r       *tab.Tab
	lKeys   []int // probe-side key columns; empty means nested loops
	buckets map[string][]tab.Row
	pred    Expr
}

// Build prepares the join for probe chunks with columns lCols against the
// build side r.
func (j *Join) Build(lCols []string, r *tab.Tab) *JoinBuild {
	b := &JoinBuild{cols: append(append([]string{}, lCols...), r.Cols...), r: r, pred: j.Pred}
	b.colIdx = colIndex(b.cols)
	var rKeys []int
	lIdx, rIdx := colIndex(lCols), colIndex(r.Cols)
	for _, c := range SplitConj(j.Pred) {
		if x, y, ok := EqColumns(c); ok {
			li, lok := lIdx[x]
			ri, rok := rIdx[y]
			if !lok || !rok {
				li, lok = lIdx[y]
				ri, rok = rIdx[x]
			}
			if lok && rok {
				b.lKeys = append(b.lKeys, li)
				rKeys = append(rKeys, ri)
			}
		}
	}
	if len(b.lKeys) > 0 {
		b.buckets = make(map[string][]tab.Row, len(r.Rows))
		var key []byte
		for _, rr := range r.Rows {
			key = rr.AppendKey(key[:0], rKeys)
			b.buckets[string(key)] = append(b.buckets[string(key)], rr)
		}
	}
	return b
}

// Apply is the kernel: the probe chunk l joined against the build side, in
// probe order.
func (b *JoinBuild) Apply(ctx *Context, l *tab.Tab) (*tab.Tab, error) {
	out := tab.New(b.cols...)
	var key []byte
	for _, lr := range l.Rows {
		matches := b.r.Rows
		if len(b.lKeys) > 0 {
			key = lr.AppendKey(key[:0], b.lKeys)
			matches = b.buckets[string(key)]
		}
		for _, rr := range matches {
			row := append(lr.Clone(), rr...)
			ok, err := truth(b.pred, ctx, b.colIdx, row)
			if err != nil {
				return nil, fmt.Errorf("join: %w", err)
			}
			if ok {
				out.Rows = append(out.Rows, row)
			}
		}
	}
	return out, nil
}

// DJoin is the dependency join: the right-hand plan is evaluated with the
// left rows' columns available as parameters (the "information passing" of
// Section 5.3 and the Bind-split of Figure 7). Evaluation is set-at-a-time:
// outer rows are deduplicated to distinct binding sets over the inner
// plan's free variables, each set is evaluated once — through one batched
// push per chunk (PushBatch) when the inner plan is a SourceQuery,
// accounted, cached and checked exactly as that SourceQuery's own pushes are
// — and the results are re-expanded per outer row, so the output is row for
// row what one evaluation per outer row would produce. DJoinSet holds that
// state; the engine drives it one outer bite at a time.
type DJoin struct {
	L, R Op

	varsOnce sync.Once
	vars     []string
}

// innerVars returns the inner plan's free variables — the bindings passed
// sideways — computed once per node instead of once per outer bite.
func (j *DJoin) innerVars() []string {
	j.varsOnce.Do(func() { j.vars = FreeVars(j.R) })
	return j.vars
}

// Columns implements Op.
func (j *DJoin) Columns() []string { return append(j.L.Columns(), j.R.Columns()...) }

// Children implements Op.
func (j *DJoin) Children() []Op { return []Op{j.L, j.R} }

// Detail implements Op.
func (j *DJoin) Detail() string { return "DJoin" }

// ---------------------------------------------------------------------------
// Union, Intersect, Distinct
// ---------------------------------------------------------------------------

// Union concatenates two inputs with identical columns (bag semantics).
type Union struct{ L, R Op }

// Columns implements Op.
func (u *Union) Columns() []string { return u.L.Columns() }

// Children implements Op.
func (u *Union) Children() []Op { return []Op{u.L, u.R} }

// Detail implements Op.
func (u *Union) Detail() string { return "Union" }

// Check rejects a union whose branches differ in arity. Union has no kernel:
// its chunks pass through unchanged, in an order the engine decides.
func (u *Union) Check() error {
	if l, r := u.L.Columns(), u.R.Columns(); len(l) != len(r) {
		return fmt.Errorf("algebra: union of incompatible tabs %v / %v", l, r)
	}
	return nil
}

// Intersect keeps the distinct rows present in both inputs.
type Intersect struct{ L, R Op }

// Columns implements Op.
func (i *Intersect) Columns() []string { return i.L.Columns() }

// Children implements Op.
func (i *Intersect) Children() []Op { return []Op{i.L, i.R} }

// Detail implements Op.
func (i *Intersect) Detail() string { return "Intersect" }

// Apply is the kernel over both materialized inputs.
func (i *Intersect) Apply(l, r *tab.Tab) (*tab.Tab, error) {
	if len(r.Cols) != len(l.Cols) {
		return nil, fmt.Errorf("algebra: intersect of incompatible tabs %v / %v", l.Cols, r.Cols)
	}
	inR := make(map[string]bool, len(r.Rows))
	var key []byte
	for _, rr := range r.Rows {
		key = rr.AppendKey(key[:0], nil)
		inR[string(key)] = true
	}
	out := tab.New(l.Cols...)
	for _, lr := range l.Rows {
		key = lr.AppendKey(key[:0], nil)
		if inR[string(key)] {
			delete(inR, string(key)) // each row once
			out.Rows = append(out.Rows, lr)
		}
	}
	return out, nil
}

// Distinct removes duplicate rows.
type Distinct struct{ From Op }

// Columns implements Op.
func (d *Distinct) Columns() []string { return d.From.Columns() }

// Children implements Op.
func (d *Distinct) Children() []Op { return []Op{d.From} }

// Detail implements Op.
func (d *Distinct) Detail() string { return "Distinct" }

// Apply is the kernel: the rows of in whose key is not yet in seen, which it
// extends — the state that carries duplicate elimination across chunks.
func (d *Distinct) Apply(in *tab.Tab, seen map[string]bool) *tab.Tab {
	out := tab.New(in.Cols...)
	var key []byte
	for _, r := range in.Rows {
		if key = r.AppendKey(key[:0], nil); !seen[string(key)] {
			seen[string(key)] = true
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Group, Sort
// ---------------------------------------------------------------------------

// Group nests the non-key columns of each key group into a nested Tab.
type Group struct {
	From Op
	Keys []string
	Into string
}

// Columns implements Op.
func (g *Group) Columns() []string { return append(append([]string{}, g.Keys...), g.Into) }

// Children implements Op.
func (g *Group) Children() []Op { return []Op{g.From} }

// Detail implements Op.
func (g *Group) Detail() string {
	return fmt.Sprintf("Group(%s ⇒ %s)", strings.Join(g.Keys, ", "), g.Into)
}

// Apply is the kernel over the whole materialized input.
func (g *Group) Apply(in *tab.Tab) *tab.Tab { return in.GroupBy(g.Into, g.Keys...) }

// Sort orders rows by the given columns.
type Sort struct {
	From Op
	Cols []string
}

// Columns implements Op.
func (s *Sort) Columns() []string { return s.From.Columns() }

// Children implements Op.
func (s *Sort) Children() []Op { return []Op{s.From} }

// Detail implements Op.
func (s *Sort) Detail() string { return fmt.Sprintf("Sort(%s)", strings.Join(s.Cols, ", ")) }

// Apply is the kernel over the whole materialized input.
func (s *Sort) Apply(in *tab.Tab) *tab.Tab {
	out := tab.New(in.Cols...)
	out.Rows = append(out.Rows, in.Rows...)
	out.SortBy(s.Cols...)
	return out
}

// ---------------------------------------------------------------------------
// SourceQuery and Literal
// ---------------------------------------------------------------------------

// SourceQuery wraps a subplan pushed to an external source: the source
// evaluates Plan natively (e.g. by translating it to OQL or to a Wais
// full-text call) and ships back only the result rows.
type SourceQuery struct {
	Source string
	Plan   Op

	keyOnce sync.Once
	enc     string   // canonical plan encoding; "" when not encodable
	vars    []string // sorted free variables of Plan
}

// Columns implements Op.
func (q *SourceQuery) Columns() []string { return q.Plan.Columns() }

// Children implements Op.
func (q *SourceQuery) Children() []Op { return []Op{q.Plan} }

// Detail implements Op.
func (q *SourceQuery) Detail() string { return fmt.Sprintf("SourceQuery(%s)", q.Source) }

// Literal wraps a constant Tab (fixtures, unit tests, explain samples).
type Literal struct{ T *tab.Tab }

// Columns implements Op. The slice is capped at its length, so a parent
// appending its own column copies instead of writing into the tab's spare
// capacity, which a sibling parent would share.
func (l *Literal) Columns() []string { return l.T.Cols[:len(l.T.Cols):len(l.T.Cols)] }

// Children implements Op.
func (l *Literal) Children() []Op { return nil }

// Detail implements Op.
func (l *Literal) Detail() string { return fmt.Sprintf("Literal(%d rows)", l.T.Len()) }

func colIndex(cols []string) map[string]int {
	m := make(map[string]int, len(cols))
	for i, c := range cols {
		m[c] = i
	}
	return m
}

// Describe renders the plan as an indented operator tree.
func Describe(op Op) string {
	var b strings.Builder
	describe(&b, op, 0)
	return b.String()
}

func describe(b *strings.Builder, op Op, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	if op == nil {
		b.WriteString("<nil>\n")
		return
	}
	b.WriteString(op.Detail())
	b.WriteByte('\n')
	for _, c := range op.Children() {
		describe(b, c, depth+1)
	}
}

// Walk visits the plan tree in pre-order.
func Walk(op Op, fn func(Op) bool) {
	if op == nil || !fn(op) {
		return
	}
	for _, c := range op.Children() {
		Walk(c, fn)
	}
}

// Docs returns the documents a plan reads, each Bind's document, distinct
// and in first-occurrence order: the document set a pushed plan's
// capabilities are scoped by and a containment assumption names.
func Docs(plan Op) []string {
	var docs []string
	add := func(name string) {
		if name != "" && !slices.Contains(docs, name) {
			docs = append(docs, name)
		}
	}
	Walk(plan, func(n Op) bool {
		if b, ok := n.(*Bind); ok {
			add(b.Doc)
		}
		return true
	})
	return docs
}

// MapChildren rebuilds an operator with fn applied to each of its input
// plans, a SourceQuery's pushed plan included; leaves are returned as they
// are.
func MapChildren(op Op, fn func(Op) Op) Op {
	switch x := op.(type) {
	case *Select:
		return &Select{From: fn(x.From), Pred: x.Pred}
	case *Project:
		return &Project{From: fn(x.From), Cols: x.Cols}
	case *MapExpr:
		return &MapExpr{From: fn(x.From), Col: x.Col, E: x.E}
	case *Join:
		return &Join{L: fn(x.L), R: fn(x.R), Pred: x.Pred}
	case *DJoin:
		return &DJoin{L: fn(x.L), R: fn(x.R)}
	case *Union:
		return &Union{L: fn(x.L), R: fn(x.R)}
	case *Intersect:
		return &Intersect{L: fn(x.L), R: fn(x.R)}
	case *Distinct:
		return &Distinct{From: fn(x.From)}
	case *Group:
		return &Group{From: fn(x.From), Keys: x.Keys, Into: x.Into}
	case *Sort:
		return &Sort{From: fn(x.From), Cols: x.Cols}
	case *TreeOp:
		return &TreeOp{From: fn(x.From), C: x.C, OutCol: x.OutCol}
	case *Bind:
		if x.From != nil {
			return &Bind{From: fn(x.From), Doc: x.Doc, Col: x.Col, F: x.F}
		}
		return op
	case *SourceQuery:
		return &SourceQuery{Source: x.Source, Plan: fn(x.Plan)}
	case *Literal:
		return op
	default:
		return op
	}
}
