// Package mediator implements the YAT mediator of Figure 2: it connects
// wrappers, imports their structural and operational capabilities, loads
// YAT_L integration programs (views), composes user queries with view
// definitions, invokes the three-round optimizer and executes the resulting
// distributed plans.
package mediator

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/pattern"
	"repro/internal/route"
	"repro/internal/tab"
	"repro/internal/typecheck"
	"repro/internal/xq"
	xqcompile "repro/internal/xq/compile"
	"repro/internal/yatl"
)

// Mediator coordinates sources, views and query evaluation.
//
// Everything registration decides — sources and their availability routers,
// interfaces, document owners, structures, functions, views, containment
// assumptions, the result cache and the metrics registry — is one immutable
// catalog value behind an atomic pointer. A query loads it once at admission
// and composes, substitutes views, optimizes, verifies and evaluates under
// that value, holding no lock: a registration racing it publishes a new value
// the query never sees, so a query that names a view twice gets one
// definition, and a plan was compiled under exactly one catalog somebody can
// hold. A registration that is refused publishes nothing. Each catalog also
// holds a bounded map of the plans made under it, so a text is planned once
// per catalog: every registration starts an empty one, and nothing is ever
// invalidated.
type Mediator struct {
	// regMu serializes writers (register); readers never take it.
	regMu sync.Mutex
	cat   atomic.Pointer[catalog]
	// Trace receives optimizer rewriting lines when non-nil.
	Trace func(string)
	// CheckInvariants verifies plans with typecheck.Check: the optimizer
	// analyzes its input and the output of each round, and a plan no
	// optimizer verified (StreamPlan's, Materialize's and
	// MaterializeProgram's) is analyzed before execution; a violation aborts
	// the query instead of producing a wrong answer.
	CheckInvariants bool
}

// catalog is what planning is a function of: the mediator's registrations at
// one instant. It is never written after it is published; the next value
// shares every map the registration did not change and holds a fresh copy of
// the one it did. Planning, verification and evaluation are handed these maps
// themselves, not copies.
type catalog struct {
	sources    map[string]algebra.Source
	ifaces     map[string]*capability.Interface
	sourceDocs map[string]string
	schemas    *typecheck.Schemas
	funcs      map[string]algebra.Func // with the builtins of algebra.NewContext
	views      map[string]*View
	viewOrder  []string
	assume     []optimizer.Containment
	// routers holds each source's availability router, made by Connect: a
	// one-replica route.Replicated whose breaker is the source's health
	// (Health). The engine calls every source through it, so calls fail
	// fast with algebra.UnavailableError while the breaker is open and
	// transport failures are marked the same way, which is what
	// AllowPartial degrades around. A later catalog shares the router, so
	// failures accumulate across queries and an open breaker protects
	// every caller. A source that already is a replica router is wrapped
	// like any other: its own breakers evict single replicas, this one
	// opens only when the whole set is down.
	routers map[string]algebra.Source
	// cache, when installed (EnableCache), memoizes wrapper results across
	// the rows of one DJoin and across queries; it is itself thread-safe.
	cache *algebra.ResultCache
	// metrics, when installed (SetMetrics), receives per-query counters
	// and latency observations, per-Stats counter totals, and breaker
	// state gauges — the data the -metrics-addr HTTP plane serves.
	metrics *obs.Registry
	// plans maps the texts StreamContext planned under this catalog to
	// their plans; register gives every catalog it publishes an empty one.
	plans *algebra.LRU[planKey, *planned]
}

// planEntries bounds each catalog's plan map, and maxPlanText the length of
// a text it stores: a longer one is planned on every execution. Traffic
// whose texts never repeat gains nothing from the map and still keeps
// planEntries plans alive, so the bound covers a working set of point
// queries, not every text a tenant may send.
const (
	planEntries = 64
	maxPlanText = 4 << 10
)

// View is a registered YAT_L rule with its algebraic translation.
type View struct {
	Rule *yatl.Rule
	Plan algebra.Op
}

// New returns an empty mediator.
func New() *Mediator {
	m := &Mediator{}
	m.cat.Store(&catalog{
		sourceDocs: map[string]string{},
		funcs:      algebra.NewContext().Funcs,
		plans:      algebra.NewLRU[planKey, *planned](planEntries),
	})
	return m
}

// register is the one way the catalog changes: change edits a shallow copy
// of the current value — replacing, never writing through, any map it
// changes (with, maps.Clone) and clipping a slice before it appends, so the
// append cannot land in the published value's spare capacity — and the copy
// is published only if change accepts it, with an empty plan map.
func (m *Mediator) register(change func(next *catalog) error) error {
	m.regMu.Lock()
	defer m.regMu.Unlock()
	next := *m.cat.Load()
	if err := change(&next); err != nil {
		return err
	}
	next.plans = algebra.NewLRU[planKey, *planned](planEntries)
	m.cat.Store(&next)
	return nil
}

// with returns a copy of a registration map with one entry added or replaced.
func with[V any](m map[string]V, key string, v V) map[string]V {
	next := make(map[string]V, len(m)+1)
	for k, have := range m {
		next[k] = have
	}
	next[key] = v
	return next
}

// Connect registers a wrapper and imports its operational interface (the
// `connect` + `import` steps of Figure 2). Every document the source
// exports becomes resolvable, and the source gets its availability router.
func (m *Mediator) Connect(src algebra.Source, iface *capability.Interface) error {
	return m.register(func(c *catalog) error {
		name := src.Name()
		if _, dup := c.sources[name]; dup {
			return fmt.Errorf("mediator: source %q already connected", name)
		}
		// New refuses only an empty or an inconsistent replica set.
		rt, _ := route.New(name, []algebra.Source{src}, route.Options{})
		c.sources = with(c.sources, name, src)
		c.routers = with(c.routers, name, algebra.Source(rt))
		c.sourceDocs = maps.Clone(c.sourceDocs)
		for _, d := range src.Documents() {
			if owner, dup := c.sourceDocs[d]; dup {
				return fmt.Errorf("mediator: document %q exported by both %s and %s", d, owner, name)
			}
			c.sourceDocs[d] = name
		}
		if iface == nil {
			return nil
		}
		c.ifaces = with(c.ifaces, name, iface)
		// Seed plan typing from the schemas the capability description
		// carries; an explicit ImportStructure can still override them.
		for doc, ref := range iface.Structures {
			if _, have := c.schemas.Doc(doc); !have && ref.Model != nil {
				c.schemas = c.schemas.With(doc, ref)
			}
		}
		return nil
	})
}

// ImportStructure records the structural pattern governing a document,
// enabling the type-driven rewritings of Section 5.1.
func (m *Mediator) ImportStructure(doc string, model *pattern.Model, patternName string) {
	m.register(func(c *catalog) error {
		c.schemas = c.schemas.With(doc, capability.StructureRef{Model: model, Pattern: patternName})
		return nil
	})
}

// RegisterFunc registers an external function evaluable at the mediator
// (e.g. contains, or a method the wrapper exposes for callback).
func (m *Mediator) RegisterFunc(name string, fn algebra.Func) {
	m.register(func(c *catalog) error {
		c.funcs = with(c.funcs, name, fn)
		return nil
	})
}

// Assume declares a containment assumption enabling source pruning
// (Figure 8): joining keep with the drop branch preserves all keep rows.
// The optional modulo conjuncts (printed predicate forms, e.g. "$y > 1800")
// are the selections the assumption absorbs; branches carrying any other
// selection are never pruned.
func (m *Mediator) Assume(drop, keep string, modulo ...string) {
	m.register(func(c *catalog) error {
		c.assume = append(slices.Clip(c.assume), optimizer.Containment{Drop: drop, Keep: keep, Modulo: modulo})
		return nil
	})
}

// LoadProgram parses a YAT_L integration program and registers each rule as
// a view (the `load "view1.yat"` step of Figure 2) — all of them or, when one
// fails to translate, none.
func (m *Mediator) LoadProgram(src string) error {
	p, err := yatl.Parse(src)
	if err != nil {
		return err
	}
	return m.register(func(c *catalog) error {
		for i := range p.Rules {
			if err := c.defineView(&p.Rules[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// DefineView translates and registers one rule.
func (m *Mediator) DefineView(r *yatl.Rule) error {
	return m.register(func(c *catalog) error { return c.defineView(r) })
}

// defineView adds or redefines one view in a catalog not yet published.
func (c *catalog) defineView(r *yatl.Rule) error {
	plan, err := yatl.Translate(r)
	if err != nil {
		return err
	}
	if _, dup := c.views[r.Name]; !dup {
		c.viewOrder = append(slices.Clip(c.viewOrder), r.Name)
	}
	c.views = with(c.views, r.Name, &View{Rule: r, Plan: plan})
	return nil
}

// Views lists the registered view names in definition order.
func (m *Mediator) Views() []string {
	return append([]string(nil), m.cat.Load().viewOrder...)
}

// View returns a registered view, or nil.
func (m *Mediator) View(name string) *View { return m.cat.Load().views[name] }

// Sources lists connected source names, sorted.
func (m *Mediator) Sources() []string { return m.cat.Load().sourceNames() }

func (c *catalog) sourceNames() []string {
	out := make([]string, 0, len(c.sources))
	for n := range c.sources {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// Interface returns a connected source's capability interface.
func (m *Mediator) Interface(source string) *capability.Interface {
	return m.cat.Load().ifaces[source]
}

// EnableCache installs a wrapper-result cache bounded to the given number
// of entries, shared by every subsequent query this mediator executes (see
// algebra.ResultCache; the cache assumes quiescent sources). A bound below
// 1 removes the cache. Replacing an existing cache drops its contents.
func (m *Mediator) EnableCache(entries int) {
	m.register(func(c *catalog) error {
		c.cache = algebra.NewResultCache(entries)
		return nil
	})
}

// newContext builds a fresh evaluation context for one query over the
// catalog it was admitted under: the sources (through their routers), the
// functions, the merged structure model and the result cache are the
// catalog's own.
func (c *catalog) newContext() *algebra.Context {
	ctx := algebra.NewContext()
	ctx.Sources, ctx.Funcs, ctx.Model, ctx.Cache = c.routers, c.funcs, c.schemas.Model(), c.cache
	return ctx
}

// Compose parses a query and substitutes view definitions for the named
// documents it matches, yielding the naive composed plan (the left-hand
// side of Figure 8). Two dialects are accepted: YAT_L query bodies
// (MAKE/MATCH/WHERE) and XPath/XQuery-FLWR text (`for $v in doc(...)...` or
// a bare path), which internal/xq/compile lowers to the same algebra.
func (m *Mediator) Compose(querySrc string) (algebra.Op, error) {
	return m.cat.Load().compose(querySrc)
}

func (c *catalog) compose(querySrc string) (algebra.Op, error) {
	plan, err := c.parse(querySrc)
	if err != nil {
		return nil, err
	}
	return c.substituteViews(plan, 0)
}

func (c *catalog) parse(querySrc string) (algebra.Op, error) {
	if xq.IsQuery(querySrc) {
		q, err := xq.Parse(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(querySrc), ";")))
		if err != nil {
			return nil, err
		}
		return xqcompile.Compile(q, xqcompile.Options{IsView: func(doc string) bool {
			return c.views[doc] != nil
		}})
	}
	q, err := yatl.ParseQuery(querySrc)
	if err != nil {
		return nil, err
	}
	return yatl.Translate(q)
}

// substituteViews replaces Bind(doc) leaves naming views with Binds over
// the view's Tree plan. Each Bind keeps the Tree's output column beside its
// own variables, so a plan naming views twice would produce that column
// twice: the first mention keeps it, and each later one gets a new Tree
// over a column no column of the plan uses. The catalog's view plan is
// shared by concurrent queries and never mutated.
func (c *catalog) substituteViews(plan algebra.Op, depth int) (algebra.Op, error) {
	if depth > 16 {
		return nil, fmt.Errorf("mediator: view nesting too deep (cycle?)")
	}
	outCols := map[string]bool{} // output columns of the Trees substituted so far
	var firstErr error
	var subst func(op algebra.Op) algebra.Op
	subst = func(op algebra.Op) algebra.Op {
		// Only a document Bind names a view; everything else rebuilds its
		// children via the exhaustive algebra.MapChildren.
		x, ok := op.(*algebra.Bind)
		if !ok || x.Doc == "" {
			return algebra.MapChildren(op, subst)
		}
		if v := c.views[x.Doc]; v != nil {
			inner, err := c.substituteViews(v.Plan, depth+1)
			if err != nil {
				firstErr = cmp.Or(firstErr, err)
				return op
			}
			t, ok := inner.(*algebra.TreeOp)
			if !ok {
				firstErr = cmp.Or(firstErr, fmt.Errorf("mediator: view %s does not end in a Tree", x.Doc))
				return op
			}
			if outCols[t.Columns()[0]] {
				t = &algebra.TreeOp{From: t.From, C: t.C, OutCol: unusedCol(plan, t.Columns()[0], outCols)}
			}
			outCols[t.Columns()[0]] = true
			return &algebra.Bind{From: t, Col: t.Columns()[0], F: x.F}
		}
		if _, exported := c.sourceDocs[x.Doc]; !exported {
			firstErr = cmp.Or(firstErr, fmt.Errorf("mediator: unknown document %q (no source or view exports it)", x.Doc))
		}
		return x
	}
	out := subst(plan)
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// unusedCol returns base followed by the smallest number from 2 up that
// names neither a column of plan nor one of taken.
func unusedCol(plan algebra.Op, base string, taken map[string]bool) string {
	used := map[string]bool{}
	algebra.Walk(plan, func(n algebra.Op) bool {
		for _, c := range n.Columns() {
			used[c] = true
		}
		return true
	})
	for i := 2; ; i++ {
		if c := base + strconv.Itoa(i); !used[c] && !taken[c] {
			return c
		}
	}
}

// OptimizerOptions assembles the optimizer configuration from the imported
// capabilities. The maps are the catalog's own: read them, do not write.
func (m *Mediator) OptimizerOptions() optimizer.Options {
	return m.optimizerOptions(m.cat.Load())
}

func (m *Mediator) optimizerOptions(cat *catalog) optimizer.Options {
	return optimizer.Options{
		Interfaces:      cat.ifaces,
		SourceDocs:      cat.sourceDocs,
		Structures:      cat.schemas,
		Assume:          cat.assume,
		CheckInvariants: m.CheckInvariants,
		Trace:           m.Trace,
	}
}

// planKey is what a plan depends on besides its catalog: the text, and
// whether planning verified it.
type planKey struct {
	text  string
	check bool
}

// planned is one entry of a catalog's plan map: a text's optimized plan and,
// once an execution asks for CheckTypes or the execution gate analyzed the
// plan, its annotation. verified says the optimizer checked every rewrite of
// the plan (CheckInvariants), so the execution gate need not analyze it
// again; any other plan is analyzed.
type planned struct {
	plan     algebra.Op
	verified bool
	annOnce  sync.Once
	ann      *typecheck.Annotation
}

// annotation infers the plan's types under the catalog, once per entry.
func (p *planned) annotation(c *catalog) *typecheck.Annotation {
	p.annOnce.Do(func() { p.ann, _ = c.check(p.plan) })
	return p.ann
}

// plan is planning as a function of (catalog, text): the text composed
// with the catalog's views and optimized under its capabilities. The
// catalog's plan map answers a text planned before under the same
// CheckInvariants, unless Trace asks to see the rewriting; only a plan that
// succeeds, of a text no longer than maxPlanText, is stored. cached reports
// whether the map answered.
func (m *Mediator) plan(cat *catalog, querySrc string) (p *planned, cached bool, err error) {
	opts := m.optimizerOptions(cat)
	key := planKey{text: querySrc, check: opts.CheckInvariants}
	if p, ok := cat.plans.Get(key); ok && opts.Trace == nil {
		cat.count("plan_cache_hits_total")
		return p, true, nil
	}
	cat.count("plan_cache_misses_total")
	naive, err := cat.compose(querySrc)
	if err != nil {
		return nil, false, err
	}
	opt, err := optimizer.New(opts).Optimize(naive)
	if err != nil {
		return nil, false, err
	}
	p = &planned{plan: opt, verified: opts.CheckInvariants}
	if len(querySrc) <= maxPlanText && cat.plans.Put(key, p) {
		cat.count("plan_cache_evictions_total")
	}
	return p, false, nil
}

// check analyzes a plan under the catalog: its types under the imported
// structures, and its violations against the documents and capability
// interfaces. The mediator's SourceDocs is the full document catalog, so a
// document no source exports is a diagnostic.
func (c *catalog) check(plan algebra.Op) (*typecheck.Annotation, []typecheck.Diagnostic) {
	return typecheck.Check(plan, &typecheck.Config{Interfaces: c.ifaces, SourceDocs: c.sourceDocs, Structures: c.schemas})
}

// Lint verifies a plan against the mediator's catalog and capability
// interfaces, returning every violation found.
func (m *Mediator) Lint(plan algebra.Op) []typecheck.Diagnostic {
	_, ds := m.cat.Load().check(plan)
	return ds
}

// Optimize runs the three-round optimizer over a composed plan. An invariant
// violation (CheckInvariants) reaches Trace only; the plan is returned either
// way.
func (m *Mediator) Optimize(plan algebra.Op) algebra.Op {
	out, _ := optimizer.New(m.OptimizerOptions()).Optimize(plan)
	return out
}

// Result bundles a query outcome with its plan and execution counters.
// SourceErrors is non-empty only for AllowPartial executions that degraded:
// it lists the sources the query could not reach, and marks the rows as a
// lower bound of the complete answer. Trace is non-nil only for executions
// with ExecOptions.Trace set: the root of the plan-shaped span tree
// (render with obs.Render, export with obs.ChromeTrace).
type Result struct {
	Tab          *tab.Tab
	Plan         string
	Stats        algebra.Stats
	SourceErrors []algebra.SourceFailure
	Trace        *obs.Span
}

// SetMetrics installs a metrics registry: every subsequent query folds its
// duration, outcome and Stats counters into it and refreshes one breaker
// state gauge per source (recordQuery). Pass nil to detach.
func (m *Mediator) SetMetrics(reg *obs.Registry) {
	m.register(func(c *catalog) error {
		c.metrics = reg
		return nil
	})
}

// Metrics returns the installed registry (nil when none).
func (m *Mediator) Metrics() *obs.Registry { return m.cat.Load().metrics }

// count adds one to a counter of the catalog's registry, if one is installed.
func (c *catalog) count(name string) {
	if c.metrics != nil {
		c.metrics.Counter(name).Add(1)
	}
}

// recordQuery folds one query execution into the catalog's registry:
// outcome counters, a latency observation, the run's Stats (recorded on
// failure too — the work done before a failure is still work done), and a
// state gauge per source breaker (0 closed, 1 half-open, 2 open).
func (c *catalog) recordQuery(d time.Duration, stats algebra.Stats, err error) {
	reg := c.metrics
	if reg == nil {
		return
	}
	reg.Counter("queries_total").Add(1)
	if err != nil {
		reg.Counter("query_errors_total").Add(1)
	}
	reg.Histogram("query_ms").Observe(float64(d) / float64(time.Millisecond))
	for _, cv := range stats.Totals() {
		reg.Counter(cv.Name).Add(cv.Value)
	}
	for name, h := range c.health() {
		var v int64
		switch h.State {
		case "half-open":
			v = 1
		case "open":
			v = 2
		}
		reg.Gauge("breaker_state_" + name).Set(v)
	}
}

// ExecOptions configure plan execution: Parallelism bounds the worker pool
// (1 = serial), Timeout is the per-query deadline, BatchChunk sizes batched
// DJoin pushes, AllowPartial degrades around unreachable sources, Trace collects a
// per-operator span tree returned in Result.Trace and CheckTypes validates
// shipped rows against the plan's inferred types. A negative BatchChunk is
// rejected up front by Validate, which every execution entry point calls.
type ExecOptions = exec.Options

// TypecheckPlan infers a plan's pattern types under the mediator's imported
// structures (the console's `typecheck` command). The annotation covers the
// whole plan; the error folds the violations Lint would report.
func (m *Mediator) TypecheckPlan(plan algebra.Op) (*typecheck.Annotation, error) {
	ann, ds := m.cat.Load().check(plan)
	return ann, typecheck.Error(ds)
}

// ConformanceError reports a wrapper response row that does not
// instantiate the inferred type of the pushed plan (wire conformance mode,
// ExecOptions.CheckTypes).
type ConformanceError struct {
	Source  string
	Column  string
	Row     int
	Pattern string
}

func (e *ConformanceError) Error() string {
	return fmt.Sprintf("mediator: wire conformance violation: source %s shipped row %d whose column %s does not instantiate %s",
		e.Source, e.Row, e.Column, e.Pattern)
}

// installWireChecker attaches the wire conformance validator to the
// evaluation context when the options request it: every shipped wrapper
// row is checked against the SourceQuery's inferred column types, a
// violation aborts the query with a ConformanceError and increments the
// type_violations_total counter. The types are the plan entry's, inferred
// once however many executions share it.
func (c *catalog) installWireChecker(actx *algebra.Context, p *planned, opts ExecOptions) {
	if !opts.CheckTypes {
		return
	}
	ann := p.annotation(c)
	actx.CheckWire = func(q *algebra.SourceQuery, t *tab.Tab) error {
		rt := ann.Types[q]
		if rt == nil || t == nil {
			return nil
		}
		for ci, col := range t.Cols {
			p := rt.Type(col)
			if p == nil {
				continue
			}
			for ri, row := range t.Rows {
				if !typecheck.CellConforms(ann.Model, p, row[ci]) {
					c.count("type_violations_total")
					return &ConformanceError{Source: q.Source, Column: col, Row: ri, Pattern: p.String()}
				}
			}
		}
		return nil
	}
}

// attachTrace mints a root span on the evaluation context when the options
// ask for tracing, returning it (nil otherwise). Its plan attribute says
// where the plan came from (see streamPlan).
func (m *Mediator) attachTrace(actx *algebra.Context, opts ExecOptions, stage string) *obs.Span {
	if !opts.Trace {
		return nil
	}
	root := obs.NewTrace("query")
	root.Annotate("plan", stage)
	actx.Trace = root
	return root
}

// Query is ExecuteContext with default options on a serial engine.
func (m *Mediator) Query(querySrc string) (*Result, error) {
	return m.ExecuteContext(context.Background(), querySrc, ExecOptions{Parallelism: 1})
}

// ExecuteContext is StreamContext drained to a table: compose, optimize,
// execute, with the rows collected in Result.Tab.
func (m *Mediator) ExecuteContext(ctx context.Context, querySrc string, opts ExecOptions) (*Result, error) {
	s, err := m.StreamContext(ctx, querySrc, opts)
	if err != nil {
		return nil, err
	}
	return s.Drain()
}

// ExecutePlan is StreamPlan drained to a table. It serves callers that
// assemble plans outside the query pipeline — the naive (unoptimized)
// composition, optimizer ablations, degradation shapes in tests — with the
// same gates, health tracking and partial-result reporting as a query.
func (m *Mediator) ExecutePlan(ctx context.Context, plan algebra.Op, opts ExecOptions) (*Result, error) {
	s, err := m.StreamPlan(ctx, plan, opts)
	if err != nil {
		return nil, err
	}
	return s.Drain()
}

// Materialize evaluates a view and returns its document forest (used by
// examples to display the integrated XML).
func (m *Mediator) Materialize(view string) (*tab.Tab, error) {
	cat := m.cat.Load()
	v := cat.views[view]
	if v == nil {
		return nil, fmt.Errorf("mediator: unknown view %q", view)
	}
	plan, err := cat.substituteViews(v.Plan, 1)
	if err != nil {
		return nil, err
	}
	s, err := m.streamPlan(context.Background(), cat, cat.newContext(), &planned{plan: plan}, "custom", ExecOptions{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	res, err := s.Drain()
	if err != nil {
		return nil, err
	}
	return res.Tab, nil
}

// MaterializeProgram evaluates every registered view within one shared
// context, so that Skolem identifiers fuse across rules (the object fusion
// of Section 2: "partial results are connected together through Skolem
// functions"). A reference created by one rule — e.g. &person($o) inside
// artworks() — resolves to the tree another rule builds with the same
// Skolem function and arguments. It returns one forest per view plus the
// store resolving every identifier minted during materialization.
func (m *Mediator) MaterializeProgram() (map[string]data.Forest, *data.Store, error) {
	cat := m.cat.Load()
	actx := cat.newContext()
	opts := ExecOptions{Parallelism: 1}
	out := map[string]data.Forest{}
	for _, name := range cat.viewOrder {
		plan, err := cat.substituteViews(cat.views[name].Plan, 1)
		if err != nil {
			return nil, nil, err
		}
		// Store, Skolems and Catalog are shared; the counters are per view,
		// because each view is recorded in /metrics as a query of its own.
		vctx := *actx
		vctx.Stats = &algebra.Stats{}
		s, err := m.streamPlan(context.Background(), cat, &vctx, &planned{plan: plan}, "view", opts)
		if err != nil {
			return nil, nil, fmt.Errorf("view %s: %w", name, err)
		}
		res, err := s.Drain()
		if err != nil {
			return nil, nil, fmt.Errorf("view %s: %w", name, err)
		}
		var forest data.Forest
		for _, r := range res.Tab.Rows {
			if r[0].Kind == tab.CTree {
				forest = append(forest, r[0].Tree)
			}
		}
		out[name] = forest
		actx.Catalog[name] = forest
	}
	return out, actx.Store, nil
}

// Describe renders a summary of the mediator's state (console `status`),
// sources sorted by name.
func (m *Mediator) Describe() string {
	cat := m.cat.Load()
	var b strings.Builder
	fmt.Fprintf(&b, "sources:\n")
	for _, n := range cat.sourceNames() {
		fmt.Fprintf(&b, "  %s exports %s\n", n, strings.Join(cat.sources[n].Documents(), ", "))
	}
	fmt.Fprintf(&b, "views: %s\n", strings.Join(cat.viewOrder, ", "))
	return b.String()
}
