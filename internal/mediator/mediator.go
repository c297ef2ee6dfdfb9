// Package mediator implements the YAT mediator of Figure 2: it connects
// wrappers, imports their structural and operational capabilities, loads
// YAT_L integration programs (views), composes user queries with view
// definitions, invokes the three-round optimizer and executes the resulting
// distributed plans.
package mediator

import (
	"context"
	"fmt"
	"maps"
	"slices"
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
	"repro/internal/planlint"
	"repro/internal/route"
	"repro/internal/tab"
	"repro/internal/typecheck"
	"repro/internal/xq"
	xqcompile "repro/internal/xq/compile"
	"repro/internal/yatl"
)

// Mediator coordinates sources, views and query evaluation.
//
// Everything registration decides — sources, interfaces, document owners,
// structures, functions, views, containment assumptions — is one immutable
// catalog value behind an atomic pointer. A query loads it once at admission
// and composes, substitutes views, optimizes, verifies and evaluates under
// that value, holding no lock: a registration racing it publishes a new value
// the query never sees, so a query that names a view twice gets one
// definition, and a plan was compiled under exactly one catalog somebody can
// hold. A registration that is refused publishes nothing.
type Mediator struct {
	// regMu serializes writers (register); readers never take it.
	regMu sync.Mutex
	cat   atomic.Pointer[catalog]
	// Trace receives optimizer rewriting lines when non-nil.
	Trace func(string)
	// CheckInvariants verifies plans with planlint after every optimizer
	// rewriting step and again immediately before execution; a violation
	// aborts the query instead of producing a wrong answer.
	CheckInvariants bool
	// Breaker configures the per-source circuit breakers (zero value =
	// defaults: 3 consecutive transport failures open a breaker for 2s).
	Breaker route.BreakerOptions

	// cache, when installed (EnableCache), memoizes wrapper results across
	// the rows of one DJoin and across queries; cacheMu guards installation,
	// the cache itself is thread-safe.
	cacheMu sync.Mutex
	cache   *algebra.ResultCache

	// health holds the one-replica router around each connected source
	// (see routerFor).
	healthMu sync.Mutex
	health   map[string]*route.Replicated

	// metrics, when installed (SetMetrics), receives per-query counters
	// and latency observations, per-Stats counter totals, and breaker
	// state gauges — the data the -metrics-addr HTTP plane serves.
	metricsMu sync.Mutex
	metrics   *obs.Registry
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
	// routed is sources seen through their availability routers, replaced
	// only by Connect.
	routed *routedSources
}

// routedSources is built by the first query that needs it — not by Connect,
// so Mediator.Breaker may be set after it — and shared by every later one.
type routedSources struct {
	once sync.Once
	m    map[string]algebra.Source
}

// View is a registered YAT_L rule with its algebraic translation.
type View struct {
	Rule *yatl.Rule
	Plan algebra.Op
}

// New returns an empty mediator.
func New() *Mediator {
	m := &Mediator{health: map[string]*route.Replicated{}}
	m.cat.Store(&catalog{
		sourceDocs: map[string]string{},
		funcs:      algebra.NewContext().Funcs,
		routed:     &routedSources{},
	})
	return m
}

// register is the one way the catalog changes: change edits a shallow copy
// of the current value — replacing, never writing through, any map it
// changes (with, maps.Clone) and clipping a slice before it appends, so the
// append cannot land in the published value's spare capacity — and the copy
// is published only if change accepts it.
func (m *Mediator) register(change func(next *catalog) error) error {
	m.regMu.Lock()
	defer m.regMu.Unlock()
	next := *m.cat.Load()
	if err := change(&next); err != nil {
		return err
	}
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
// exports becomes resolvable.
func (m *Mediator) Connect(src algebra.Source, iface *capability.Interface) error {
	return m.register(func(c *catalog) error {
		name := src.Name()
		if _, dup := c.sources[name]; dup {
			return fmt.Errorf("mediator: source %q already connected", name)
		}
		c.sources = with(c.sources, name, src)
		c.routed = &routedSources{}
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
				c.schemas = c.schemas.With(doc, typecheck.Structure{Model: ref.Model, Pattern: ref.Pattern})
			}
		}
		return nil
	})
}

// ImportStructure records the structural pattern governing a document,
// enabling the type-driven rewritings of Section 5.1.
func (m *Mediator) ImportStructure(doc string, model *pattern.Model, patternName string) {
	m.register(func(c *catalog) error {
		c.schemas = c.schemas.With(doc, typecheck.Structure{Model: model, Pattern: patternName})
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

// Sources lists connected source names.
func (m *Mediator) Sources() []string {
	var out []string
	for n := range m.cat.Load().sources {
		out = append(out, n)
	}
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
	m.cacheMu.Lock()
	m.cache = algebra.NewResultCache(entries)
	m.cacheMu.Unlock()
}

// resultCache returns the installed cache (nil when caching is off).
func (m *Mediator) resultCache() *algebra.ResultCache {
	m.cacheMu.Lock()
	defer m.cacheMu.Unlock()
	return m.cache
}

// newContext builds a fresh evaluation context for one query over the
// catalog it was admitted under: the sources (through their routers), the
// functions and the merged structure model are the catalog's own.
func (m *Mediator) newContext(cat *catalog) *algebra.Context {
	cat.routed.once.Do(func() {
		cat.routed.m = make(map[string]algebra.Source, len(cat.sources))
		for n, s := range cat.sources {
			cat.routed.m[n] = m.routerFor(n, s)
		}
	})
	ctx := algebra.NewContext()
	ctx.Sources, ctx.Funcs, ctx.Model = cat.routed.m, cat.funcs, cat.schemas.Model()
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
// the view's Tree plan.
func (c *catalog) substituteViews(op algebra.Op, depth int) (algebra.Op, error) {
	if depth > 16 {
		return nil, fmt.Errorf("mediator: view nesting too deep (cycle?)")
	}
	var firstErr error
	rebuild := func(child algebra.Op) algebra.Op {
		out, err := c.substituteViews(child, depth)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return out
	}
	// yat-lint:ignore intentionally partial: only Bind and Doc name view documents; everything else rebuilds its children via the exhaustive algebra.MapChildren
	switch x := op.(type) {
	case *algebra.Bind:
		if x.Doc == "" {
			break
		}
		if v := c.views[x.Doc]; v != nil {
			inner, err := c.substituteViews(v.Plan, depth+1)
			if err != nil {
				return nil, err
			}
			t, ok := inner.(*algebra.TreeOp)
			if !ok {
				return nil, fmt.Errorf("mediator: view %s does not end in a Tree", x.Doc)
			}
			return &algebra.Bind{From: t, Col: t.Columns()[0], F: x.F}, nil
		}
		if _, exported := c.sourceDocs[x.Doc]; !exported {
			return nil, fmt.Errorf("mediator: unknown document %q (no source or view exports it)", x.Doc)
		}
		return x, nil
	case *algebra.Doc:
		if c.views[x.Name] != nil {
			return nil, fmt.Errorf("mediator: Doc over view %q is not supported; use Bind", x.Name)
		}
		return x, nil
	}
	out := algebra.MapChildren(op, rebuild)
	return out, firstErr
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
		InfoPassing:     true,
		CheckInvariants: m.CheckInvariants,
		Trace:           m.Trace,
	}
}

// plan is planning as a function of (catalog, text): the naive composition
// and its optimization, both read from the one catalog value.
func (m *Mediator) plan(cat *catalog, querySrc string) (naive, opt algebra.Op, err error) {
	if naive, err = cat.compose(querySrc); err != nil {
		return nil, nil, err
	}
	opt, err = optimizer.New(m.optimizerOptions(cat)).OptimizeChecked(naive)
	return naive, opt, err
}

// lint verifies a plan against the catalog and its capability interfaces.
// The mediator's SourceDocs is the full document catalog, so a document no
// source exports is a diagnostic.
func (c *catalog) lint(plan algebra.Op) []planlint.Diagnostic {
	return planlint.Check(plan, &planlint.Config{Interfaces: c.ifaces, SourceDocs: c.sourceDocs, Structures: c.schemas})
}

// Lint verifies a plan against the mediator's catalog and capability
// interfaces, returning every violation found.
func (m *Mediator) Lint(plan algebra.Op) []planlint.Diagnostic {
	return m.cat.Load().lint(plan)
}

// Optimize runs the three-round optimizer over a composed plan.
func (m *Mediator) Optimize(plan algebra.Op) algebra.Op {
	return optimizer.New(m.OptimizerOptions()).Optimize(plan)
}

// Result bundles a query outcome with its plans and execution counters.
// SourceErrors is non-empty only for AllowPartial executions that degraded:
// it lists the sources the query could not reach, and marks the rows as a
// lower bound of the complete answer. Trace is non-nil only for executions
// with ExecOptions.Trace set: the root of the plan-shaped span tree
// (render with obs.Render, export with obs.ChromeTrace).
type Result struct {
	Tab          *tab.Tab
	NaivePlan    string
	Plan         string
	Stats        algebra.Stats
	SourceErrors []algebra.SourceFailure
	Trace        *obs.Span
}

// SetMetrics installs a metrics registry: every subsequent query folds its
// duration, outcome and Stats counters into it and refreshes one breaker
// state gauge per source (recordQuery). Pass nil to detach.
func (m *Mediator) SetMetrics(reg *obs.Registry) {
	m.metricsMu.Lock()
	m.metrics = reg
	m.metricsMu.Unlock()
}

// Metrics returns the installed registry (nil when none).
func (m *Mediator) Metrics() *obs.Registry {
	m.metricsMu.Lock()
	defer m.metricsMu.Unlock()
	return m.metrics
}

// recordQuery folds one query execution into the installed registry:
// outcome counters, a latency observation, the run's Stats (recorded on
// failure too — the work done before a failure is still work done), and a
// state gauge per source breaker (0 closed, 1 half-open, 2 open).
func (m *Mediator) recordQuery(d time.Duration, stats algebra.Stats, err error) {
	reg := m.Metrics()
	if reg == nil {
		return
	}
	reg.Counter("queries_total").Add(1)
	if err != nil {
		reg.Counter("query_errors_total").Add(1)
	}
	reg.Histogram("query_ms").Observe(float64(d) / float64(time.Millisecond))
	reg.Counter("source_fetches_total").Add(int64(stats.SourceFetches))
	reg.Counter("source_pushes_total").Add(int64(stats.SourcePushes))
	reg.Counter("tuples_shipped_total").Add(int64(stats.TuplesShipped))
	reg.Counter("bytes_shipped_total").Add(stats.BytesShipped)
	reg.Counter("cache_hits_total").Add(int64(stats.CacheHits))
	reg.Counter("cache_misses_total").Add(int64(stats.CacheMisses))
	reg.Counter("retries_total").Add(int64(stats.Retries))
	reg.Counter("redials_total").Add(int64(stats.Redials))
	for name, h := range m.Health() {
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
// per-operator span tree returned in Result.Trace, StreamBuffer bounds the
// rows buffered ahead of a Stream's consumer and CheckTypes validates
// shipped rows against the plan's inferred types. Negative BatchChunk or
// StreamBuffer values are rejected up front by Validate, which every
// execution entry point calls.
type ExecOptions = exec.Options

// TypecheckPlan runs pattern-type inference over a plan under the
// mediator's imported structures (the console's `typecheck` command and
// the wire conformance mode both build on it).
func (m *Mediator) TypecheckPlan(plan algebra.Op) (*typecheck.Annotation, error) {
	return m.cat.Load().typecheck(plan)
}

func (c *catalog) typecheck(plan algebra.Op) (*typecheck.Annotation, error) {
	return typecheck.Infer(plan, &typecheck.Config{Structures: c.schemas})
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
// type_violations_total counter.
func (m *Mediator) installWireChecker(cat *catalog, actx *algebra.Context, plan algebra.Op, opts ExecOptions) {
	if !opts.CheckTypes {
		return
	}
	ann, err := cat.typecheck(plan)
	if err != nil {
		return // malformed plans are the lint gate's concern
	}
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
					if reg := m.Metrics(); reg != nil {
						reg.Counter("type_violations_total").Add(1)
					}
					return &ConformanceError{Source: q.Source, Column: col, Row: ri, Pattern: p.String()}
				}
			}
		}
		return nil
	}
}

// attachTrace mints a root span on the evaluation context when the options
// ask for tracing, returning it (nil otherwise).
func (m *Mediator) attachTrace(actx *algebra.Context, opts ExecOptions) *obs.Span {
	if !opts.Trace {
		return nil
	}
	root := obs.NewTrace("query")
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
	s, err := m.streamPlan(context.Background(), cat, m.newContext(cat), nil, plan, "custom", ExecOptions{Parallelism: 1})
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
	actx := m.newContext(cat)
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
		s, err := m.streamPlan(context.Background(), cat, &vctx, nil, plan, "view", opts)
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

// Describe renders a summary of the mediator's state (console `status`).
func (m *Mediator) Describe() string {
	cat := m.cat.Load()
	var b strings.Builder
	fmt.Fprintf(&b, "sources:\n")
	for n, s := range cat.sources {
		fmt.Fprintf(&b, "  %s exports %s\n", n, strings.Join(s.Documents(), ", "))
	}
	fmt.Fprintf(&b, "views: %s\n", strings.Join(cat.viewOrder, ", "))
	return b.String()
}
