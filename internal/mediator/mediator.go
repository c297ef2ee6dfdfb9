// Package mediator implements the YAT mediator of Figure 2: it connects
// wrappers, imports their structural and operational capabilities, loads
// YAT_L integration programs (views), composes user queries with view
// definitions, invokes the three-round optimizer and executes the resulting
// distributed plans.
package mediator

import (
	"context"
	"fmt"
	"strings"
	"sync"
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
type Mediator struct {
	// regMu guards the registration catalog below. A long-running service
	// interleaves Connect/DefineView/RegisterFunc (the front door's
	// operators re-pointing sources, a console session loading views) with
	// live queries, whose newContext/Compose snapshots read these maps; the
	// lock makes registration linearizable against query admission. Readers
	// take snapshots under RLock and never hold the lock across evaluation,
	// so a query in flight keeps the catalog it was admitted under.
	regMu      sync.RWMutex
	sources    map[string]algebra.Source
	ifaces     map[string]*capability.Interface
	sourceDocs map[string]string
	// structures is replaced, never mutated (setStructure), so queries
	// share the map they were admitted under without copying it.
	structures map[string]typecheck.Structure
	funcs      map[string]algebra.Func
	views      map[string]*View
	viewOrder  []string
	assume     []optimizer.Containment
	// Trace receives optimizer rewriting lines when non-nil.
	Trace func(string)
	// CheckInvariants verifies plans with planlint after every optimizer
	// rewriting step and again immediately before execution; a violation
	// aborts the query instead of producing a wrong answer.
	CheckInvariants bool
	// Breaker configures the per-source circuit breakers (zero value =
	// defaults: 3 consecutive transport failures open a breaker for 2s).
	Breaker route.BreakerOptions

	// cache, when installed (EnableCache or ExecOptions.CacheSize),
	// memoizes wrapper results across the rows of one DJoin and across
	// queries; cacheMu guards installation, the cache itself is
	// thread-safe.
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

// View is a registered YAT_L rule with its algebraic translation.
type View struct {
	Rule *yatl.Rule
	Plan algebra.Op
}

// New returns an empty mediator.
func New() *Mediator {
	return &Mediator{
		sources:    map[string]algebra.Source{},
		ifaces:     map[string]*capability.Interface{},
		sourceDocs: map[string]string{},
		structures: map[string]typecheck.Structure{},
		funcs:      map[string]algebra.Func{},
		views:      map[string]*View{},
		health:     map[string]*route.Replicated{},
	}
}

// Connect registers a wrapper and imports its operational interface (the
// `connect` + `import` steps of Figure 2). Every document the source
// exports becomes resolvable.
func (m *Mediator) Connect(src algebra.Source, iface *capability.Interface) error {
	m.regMu.Lock()
	defer m.regMu.Unlock()
	name := src.Name()
	if _, dup := m.sources[name]; dup {
		return fmt.Errorf("mediator: source %q already connected", name)
	}
	m.sources[name] = src
	if iface != nil {
		m.ifaces[name] = iface
	}
	for _, d := range src.Documents() {
		if owner, dup := m.sourceDocs[d]; dup {
			return fmt.Errorf("mediator: document %q exported by both %s and %s", d, owner, name)
		}
		m.sourceDocs[d] = name
	}
	// Seed plan typing from the schemas the capability description
	// carries; an explicit ImportStructure can still override them.
	if iface != nil {
		for doc, ref := range iface.Structures {
			if _, have := m.structures[doc]; !have && ref.Model != nil {
				m.setStructure(doc, typecheck.Structure{Model: ref.Model, Pattern: ref.Pattern})
			}
		}
	}
	return nil
}

// ImportStructure records the structural pattern governing a document,
// enabling the type-driven rewritings of Section 5.1.
func (m *Mediator) ImportStructure(doc string, model *pattern.Model, patternName string) {
	m.regMu.Lock()
	defer m.regMu.Unlock()
	m.setStructure(doc, typecheck.Structure{Model: model, Pattern: patternName})
}

// setStructure records doc's structure in a fresh copy of the map; the
// caller holds regMu for writing.
func (m *Mediator) setStructure(doc string, st typecheck.Structure) {
	next := make(map[string]typecheck.Structure, len(m.structures)+1)
	for d, s := range m.structures {
		next[d] = s
	}
	next[doc] = st
	m.structures = next
}

// RegisterFunc registers an external function evaluable at the mediator
// (e.g. contains, or a method the wrapper exposes for callback).
func (m *Mediator) RegisterFunc(name string, fn algebra.Func) {
	m.regMu.Lock()
	defer m.regMu.Unlock()
	m.funcs[name] = fn
}

// Assume declares a containment assumption enabling source pruning
// (Figure 8): joining keep with the drop branch preserves all keep rows.
// The optional modulo conjuncts (printed predicate forms, e.g. "$y > 1800")
// are the selections the assumption absorbs; branches carrying any other
// selection are never pruned.
func (m *Mediator) Assume(drop, keep string, modulo ...string) {
	m.regMu.Lock()
	defer m.regMu.Unlock()
	m.assume = append(m.assume, optimizer.Containment{Drop: drop, Keep: keep, Modulo: modulo})
}

// LoadProgram parses a YAT_L integration program and registers each rule as
// a view (the `load "view1.yat"` step of Figure 2).
func (m *Mediator) LoadProgram(src string) error {
	p, err := yatl.Parse(src)
	if err != nil {
		return err
	}
	for i := range p.Rules {
		if err := m.DefineView(&p.Rules[i]); err != nil {
			return err
		}
	}
	return nil
}

// DefineView translates and registers one rule.
func (m *Mediator) DefineView(r *yatl.Rule) error {
	plan, err := yatl.Translate(r)
	if err != nil {
		return err
	}
	m.regMu.Lock()
	defer m.regMu.Unlock()
	if _, dup := m.views[r.Name]; !dup {
		m.viewOrder = append(m.viewOrder, r.Name)
	}
	m.views[r.Name] = &View{Rule: r, Plan: plan}
	return nil
}

// Views lists the registered view names in definition order.
func (m *Mediator) Views() []string {
	m.regMu.RLock()
	defer m.regMu.RUnlock()
	return append([]string(nil), m.viewOrder...)
}

// View returns a registered view, or nil.
func (m *Mediator) View(name string) *View {
	m.regMu.RLock()
	defer m.regMu.RUnlock()
	return m.views[name]
}

// Sources lists connected source names.
func (m *Mediator) Sources() []string {
	m.regMu.RLock()
	defer m.regMu.RUnlock()
	var out []string
	for n := range m.sources {
		out = append(out, n)
	}
	return out
}

// Interface returns a connected source's capability interface.
func (m *Mediator) Interface(source string) *capability.Interface {
	m.regMu.RLock()
	defer m.regMu.RUnlock()
	return m.ifaces[source]
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

// ensureCache installs a cache if none is present yet (the
// ExecOptions.CacheSize path; an explicitly enabled cache is kept, so a
// warm cache survives across queries with the same options).
func (m *Mediator) ensureCache(entries int) {
	m.cacheMu.Lock()
	if m.cache == nil {
		m.cache = algebra.NewResultCache(entries)
	}
	m.cacheMu.Unlock()
}

// connected snapshots the source registry; the caller holds regMu.
func (m *Mediator) connected() map[string]algebra.Source {
	sources := make(map[string]algebra.Source, len(m.sources))
	for n, s := range m.sources {
		sources[n] = s
	}
	return sources
}

// newContext builds a fresh evaluation context for one query: a snapshot of
// the catalog taken under the registration lock, so a Connect or
// RegisterFunc racing the query cannot tear the maps mid-read. The lock is
// released before the context is used — evaluation never holds it.
func (m *Mediator) newContext() *algebra.Context {
	ctx := algebra.NewContext()
	m.regMu.RLock()
	sources := m.connected()
	for n, f := range m.funcs {
		ctx.Funcs[n] = f
	}
	merged := pattern.NewModel("mediator")
	for _, st := range m.structures {
		for _, name := range st.Model.Names() {
			merged.Define(name, st.Model.Defs[name])
		}
	}
	m.regMu.RUnlock()
	for n, s := range sources {
		ctx.Sources[n] = m.routerFor(n, s)
	}
	ctx.Model = merged
	return ctx
}

// Compose parses a query and substitutes view definitions for the named
// documents it matches, yielding the naive composed plan (the left-hand
// side of Figure 8). Two dialects are accepted: YAT_L query bodies
// (MAKE/MATCH/WHERE) and XPath/XQuery-FLWR text (`for $v in doc(...)...` or
// a bare path), which internal/xq/compile lowers to the same algebra.
func (m *Mediator) Compose(querySrc string) (algebra.Op, error) {
	plan, err := m.compose(querySrc)
	if err != nil {
		return nil, err
	}
	return m.substituteViews(plan, 0)
}

func (m *Mediator) compose(querySrc string) (algebra.Op, error) {
	if xq.IsQuery(querySrc) {
		q, err := xq.Parse(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(querySrc), ";")))
		if err != nil {
			return nil, err
		}
		return xqcompile.Compile(q, m.xqOptions())
	}
	q, err := yatl.ParseQuery(querySrc)
	if err != nil {
		return nil, err
	}
	return yatl.Translate(q)
}

// xqOptions configures the xq compiler against this mediator's catalog.
func (m *Mediator) xqOptions() xqcompile.Options {
	return xqcompile.Options{IsView: func(doc string) bool {
		return m.View(doc) != nil
	}}
}

// substituteViews replaces Bind(doc) leaves naming views with Binds over
// the view's Tree plan.
func (m *Mediator) substituteViews(op algebra.Op, depth int) (algebra.Op, error) {
	if depth > 16 {
		return nil, fmt.Errorf("mediator: view nesting too deep (cycle?)")
	}
	var firstErr error
	rebuild := func(c algebra.Op) algebra.Op {
		out, err := m.substituteViews(c, depth)
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
		if v := m.View(x.Doc); v != nil {
			inner, err := m.substituteViews(v.Plan, depth+1)
			if err != nil {
				return nil, err
			}
			t, ok := inner.(*algebra.TreeOp)
			if !ok {
				return nil, fmt.Errorf("mediator: view %s does not end in a Tree", x.Doc)
			}
			return &algebra.Bind{From: t, Col: t.Columns()[0], F: x.F}, nil
		}
		if !m.docExported(x.Doc) {
			return nil, fmt.Errorf("mediator: unknown document %q (no source or view exports it)", x.Doc)
		}
		return x, nil
	case *algebra.Doc:
		if m.View(x.Name) != nil {
			return nil, fmt.Errorf("mediator: Doc over view %q is not supported; use Bind", x.Name)
		}
		return x, nil
	}
	out := algebra.MapChildren(op, rebuild)
	return out, firstErr
}

// docExported reports whether any connected source exports the document.
func (m *Mediator) docExported(doc string) bool {
	m.regMu.RLock()
	defer m.regMu.RUnlock()
	_, known := m.sourceDocs[doc]
	return known
}

// OptimizerOptions assembles the optimizer configuration from the imported
// capabilities.
func (m *Mediator) OptimizerOptions() optimizer.Options {
	m.regMu.RLock()
	defer m.regMu.RUnlock()
	ifaces := make(map[string]*capability.Interface, len(m.ifaces))
	for n, i := range m.ifaces {
		ifaces[n] = i
	}
	sourceDocs := make(map[string]string, len(m.sourceDocs))
	for d, s := range m.sourceDocs {
		sourceDocs[d] = s
	}
	return optimizer.Options{
		Interfaces:      ifaces,
		SourceDocs:      sourceDocs,
		Structures:      m.structures,
		Assume:          append([]optimizer.Containment(nil), m.assume...),
		InfoPassing:     true,
		CheckInvariants: m.CheckInvariants,
		Trace:           m.Trace,
	}
}

// lintConfig assembles the planlint configuration from the mediator's
// catalog. Unlike the optimizer, the mediator knows the full document
// catalog, so unknown-document diagnostics are enabled.
func (m *Mediator) lintConfig() *planlint.Config {
	m.regMu.RLock()
	defer m.regMu.RUnlock()
	docs := make(map[string]bool, len(m.sourceDocs))
	for d := range m.sourceDocs {
		docs[d] = true
	}
	ifaces := make(map[string]*capability.Interface, len(m.ifaces))
	for n, i := range m.ifaces {
		ifaces[n] = i
	}
	sourceDocs := make(map[string]string, len(m.sourceDocs))
	for d, s := range m.sourceDocs {
		sourceDocs[d] = s
	}
	return &planlint.Config{
		Interfaces: ifaces,
		SourceDocs: sourceDocs,
		Structures: m.structures,
		Docs:       docs,
	}
}

// Lint verifies a plan against the mediator's catalog and capability
// interfaces, returning every violation found.
func (m *Mediator) Lint(plan algebra.Op) []planlint.Diagnostic {
	return planlint.Check(plan, m.lintConfig())
}

// lintBeforeExec is the pre-execution gate: with CheckInvariants set, a plan
// that fails verification is refused instead of evaluated.
func (m *Mediator) lintBeforeExec(stage string, plan algebra.Op) error {
	if !m.CheckInvariants {
		return nil
	}
	if ds := m.Lint(plan); len(ds) > 0 {
		return fmt.Errorf("mediator: refusing to execute %s plan: %w", stage, planlint.Error(ds))
	}
	return nil
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
// DJoin pushes, CacheSize installs a shared wrapper-result cache (kept warm
// across queries), AllowPartial degrades around unreachable sources, Trace collects a
// per-operator span tree returned in Result.Trace, StreamBuffer bounds the
// rows buffered ahead of a Stream's consumer and CheckTypes validates
// shipped rows against the plan's inferred types. Negative BatchChunk or
// StreamBuffer values are rejected up front by Validate, which every
// execution entry point calls.
type ExecOptions = exec.Options

// typecheckConfig builds the inference configuration from the imported
// structures (capability exports and ImportStructure calls).
func (m *Mediator) typecheckConfig() *typecheck.Config {
	m.regMu.RLock()
	defer m.regMu.RUnlock()
	return &typecheck.Config{Structures: m.structures}
}

// TypecheckPlan runs pattern-type inference over a plan under the
// mediator's imported structures (the console's `typecheck` command and
// the wire conformance mode both build on it).
func (m *Mediator) TypecheckPlan(plan algebra.Op) (*typecheck.Annotation, error) {
	return typecheck.Infer(plan, m.typecheckConfig())
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
func (m *Mediator) installWireChecker(actx *algebra.Context, plan algebra.Op, opts ExecOptions) {
	if !opts.CheckTypes {
		return
	}
	ann, err := m.TypecheckPlan(plan)
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
	v := m.View(view)
	if v == nil {
		return nil, fmt.Errorf("mediator: unknown view %q", view)
	}
	plan, err := m.substituteViews(v.Plan, 1)
	if err != nil {
		return nil, err
	}
	res, err := m.ExecutePlan(context.Background(), plan, ExecOptions{Parallelism: 1})
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
	actx := m.newContext()
	opts := ExecOptions{Parallelism: 1}
	out := map[string]data.Forest{}
	for _, name := range m.Views() {
		plan, err := m.substituteViews(m.View(name).Plan, 1)
		if err != nil {
			return nil, nil, err
		}
		// Store, Skolems and Catalog are shared; the counters are per view,
		// because each view is recorded in /metrics as a query of its own.
		vctx := *actx
		vctx.Stats = &algebra.Stats{}
		s, err := m.streamPlan(context.Background(), &vctx, nil, plan, "view", opts)
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
	m.regMu.RLock()
	sources := m.connected()
	views := append([]string(nil), m.viewOrder...)
	m.regMu.RUnlock()
	var b strings.Builder
	fmt.Fprintf(&b, "sources:\n")
	for n, s := range sources {
		fmt.Fprintf(&b, "  %s exports %s\n", n, strings.Join(s.Documents(), ", "))
	}
	fmt.Fprintf(&b, "views: %s\n", strings.Join(views, ", "))
	return b.String()
}
