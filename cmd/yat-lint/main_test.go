package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"
	"testing"
)

// harness type-checks one synthetic source file against the real compiled
// algebra, tab and xq packages and returns the lint findings.
func harness(t *testing.T, src string) []string {
	t.Helper()
	return harnessAt(t, "synthetic", "synthetic.go", src)
}

// harnessAt is harness for a file of the given name in a package of the
// given import path.
func harnessAt(t *testing.T, pkgPath, filename, src string) []string {
	t.Helper()
	exports, err := exportData([]string{algebraPath, tabPath, xqPath})
	if err != nil {
		t.Fatalf("export data: %v", err)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		p := exports[path]
		if p == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(p)
	})
	var sealed []sealedSet
	for _, si := range sealedIfaces {
		impls, err := implementations(imp, si)
		if err != nil {
			t.Fatalf("implementations(%v): %v", si, err)
		}
		sealed = append(sealed, sealedSet{iface: si, impls: impls})
	}
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: imp, Error: func(err error) { t.Errorf("type error: %v", err) }}
	conf.Check(pkgPath, fset, []*ast.File{f}, info)
	return analyze(fset, []*ast.File{f}, info, pkgPath, sealed)
}

func TestImplementationSets(t *testing.T) {
	exports, err := exportData([]string{algebraPath, xqPath})
	if err != nil {
		t.Fatalf("export data: %v", err)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	ops, err := implementations(imp, sealedIface{algebraPath, "Op"})
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check a few well-known operators; the exact count tracks op.go.
	for _, want := range []string{"Bind", "Select", "Join", "DJoin", "SourceQuery", "TreeOp"} {
		if !ops[want] {
			t.Errorf("Op implementation set misses %s (have %v)", want, ops)
		}
	}
	if len(ops) < 10 {
		t.Errorf("suspiciously few Op implementations: %v", ops)
	}
	nodes, err := implementations(imp, sealedIface{xqPath, "Node"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Query", "ForClause", "PathExpr", "Step", "PosPred",
		"CmpExpr", "LogicExpr", "Literal", "ElemCons", "TextCons"} {
		if !nodes[want] {
			t.Errorf("Node implementation set misses %s (have %v)", want, nodes)
		}
	}
	if len(nodes) != 10 {
		t.Errorf("Node implementation set = %v, want exactly the 10 AST kinds", nodes)
	}
}

func TestNonExhaustiveOpSwitchIsFlagged(t *testing.T) {
	findings := harness(t, `package synthetic

import "repro/internal/algebra"

func f(op algebra.Op) int {
	switch op.(type) {
	case *algebra.Select:
		return 1
	default:
		return 0
	}
}
`)
	if len(findings) != 1 || !strings.Contains(findings[0], "misses") {
		t.Fatalf("want one exhaustiveness finding, got %v", findings)
	}
	// default: must not satisfy the check, but the missing list names ops.
	if !strings.Contains(findings[0], "Join") {
		t.Errorf("finding should name missing implementations: %v", findings)
	}
}

func TestIgnoreCommentSuppresses(t *testing.T) {
	findings := harness(t, `package synthetic

import "repro/internal/algebra"

func f(op algebra.Op) int {
	// yat-lint:ignore test only handles Select
	switch op.(type) {
	case *algebra.Select:
		return 1
	}
	return 0
}
`)
	if len(findings) != 0 {
		t.Fatalf("ignore comment not honored: %v", findings)
	}
}

func TestExhaustiveOpSwitchIsClean(t *testing.T) {
	findings := harness(t, `package synthetic

import "repro/internal/algebra"

func f(op algebra.Op) {
	switch op.(type) {
	case *algebra.Bind, *algebra.Select, *algebra.Project,
		*algebra.MapExpr, *algebra.Join, *algebra.DJoin, *algebra.Union,
		*algebra.Intersect, *algebra.Distinct, *algebra.Group, *algebra.Sort,
		*algebra.SourceQuery, *algebra.Literal, *algebra.TreeOp:
	}
}
`)
	if len(findings) != 0 {
		t.Fatalf("exhaustive switch flagged: %v", findings)
	}
}

func TestNonExhaustiveNodeSwitchIsFlagged(t *testing.T) {
	findings := harness(t, `package synthetic

import "repro/internal/xq"

func f(n xq.Node) int {
	switch n.(type) {
	case *xq.PathExpr:
		return 1
	default:
		return 0
	}
}
`)
	if len(findings) != 1 || !strings.Contains(findings[0], "xq.Node misses") {
		t.Fatalf("want one xq.Node exhaustiveness finding, got %v", findings)
	}
	if !strings.Contains(findings[0], "ElemCons") {
		t.Errorf("finding should name missing node kinds: %v", findings)
	}
}

func TestExhaustiveNodeSwitchIsClean(t *testing.T) {
	findings := harness(t, `package synthetic

import "repro/internal/xq"

func f(n xq.Node) {
	switch n.(type) {
	case *xq.Query, *xq.ForClause, *xq.PathExpr, *xq.Step, *xq.PosPred,
		*xq.CmpExpr, *xq.LogicExpr, *xq.Literal, *xq.ElemCons, *xq.TextCons:
	}
}
`)
	if len(findings) != 0 {
		t.Fatalf("exhaustive xq.Node switch flagged: %v", findings)
	}
}

func TestSharedTabMutationIsFlagged(t *testing.T) {
	findings := harness(t, `package synthetic

import "repro/internal/tab"

func f(t *tab.Tab, u *tab.Tab) {
	t.AddRow(nil)     // mutating method on parameter
	u.Cols = nil      // field write through parameter
	local := tab.New("c")
	local.AddRow(nil) // locally constructed: fine
}
`)
	if len(findings) != 2 {
		t.Fatalf("want 2 tab-mutation findings, got %v", findings)
	}
	for _, f := range findings {
		if !strings.Contains(f, "shared *tab.Tab parameter") {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

func TestSharedTabMutationInClosure(t *testing.T) {
	findings := harness(t, `package synthetic

import "repro/internal/tab"

func f(t *tab.Tab) func() {
	return func() { t.SortBy("c") }
}
`)
	if len(findings) != 1 || !strings.Contains(findings[0], "SortBy") {
		t.Fatalf("closure mutation not flagged: %v", findings)
	}
}

func TestCallInterfaceAssertionIsFlagged(t *testing.T) {
	findings := harness(t, `package synthetic

import "repro/internal/algebra"

func f(src algebra.Source) int {
	if _, ok := src.(algebra.BatchSource); ok {
		return 1
	}
	switch src.(type) {
	case algebra.StreamSource, algebra.PushStreamSource:
		return 2
	}
	// yat-lint:ignore a decorator narrowing itself to what it wraps
	_, ok := src.(algebra.ContextSource)
	if ok {
		return 3
	}
	return 0
}
`)
	if len(findings) != 3 {
		t.Fatalf("want 3 call-interface findings (the ignored one suppressed), got %v", findings)
	}
	for i, name := range []string{"BatchSource", "StreamSource", "PushStreamSource"} {
		if !strings.Contains(findings[i], "type assertion to algebra."+name) {
			t.Errorf("finding %d = %s, want one naming %s", i, findings[i], name)
		}
	}
}

// ladderSrc is a stand-in for internal/algebra asking a source for an
// optional call interface of its own.
const ladderSrc = `package algebra

type Source interface{ Name() string }

type BatchSource interface {
	Source
	PushBatchContext() error
}

func batchOf(src Source) bool {
	_, ok := src.(BatchSource)
	return ok
}
`

func TestCallInterfaceAssertionInAlgebraIsFlagged(t *testing.T) {
	// internal/algebra itself is not exempt: only its call.go asks.
	findings := harnessAt(t, algebraPath, "batch.go", ladderSrc)
	if len(findings) != 1 || !strings.Contains(findings[0], "type assertion to algebra.BatchSource outside internal/algebra/call.go") {
		t.Fatalf("want one call-interface finding in algebra/batch.go, got %v", findings)
	}
}

func TestCallInterfaceAssertionInCallGoIsClean(t *testing.T) {
	if findings := harnessAt(t, algebraPath, "call.go", ladderSrc); len(findings) != 0 {
		t.Fatalf("the ladder's own file flagged: %v", findings)
	}
}

func TestOtherSourceAssertionsAreClean(t *testing.T) {
	// The reporter interfaces are not ways to call a source, a sealed-Op
	// switch names no interface, and calling through the ladder asks nothing.
	findings := harness(t, `package synthetic

import (
	"context"

	"repro/internal/algebra"
)

func f(src algebra.Source, op algebra.Op) (int, error) {
	if rr, ok := src.(algebra.RetryReporter); ok {
		rr.TakeRetryStats()
	}
	if sr, ok := src.(algebra.StateReporter); ok {
		_ = sr.SourceState()
	}
	if _, ok := op.(*algebra.SourceQuery); ok {
		return 1, nil
	}
	cur, err := algebra.FetchStream(context.Background(), src, "doc")
	if err != nil {
		return 0, err
	}
	return 2, cur.Close()
}
`)
	if len(findings) != 0 {
		t.Fatalf("clean source handling flagged: %v", findings)
	}
}

func TestCounterWriteIsFlagged(t *testing.T) {
	findings := harness(t, `package synthetic

import "repro/internal/algebra"

func f(ctx *algebra.Context, s *algebra.Stats) {
	ctx.Stats.SourcePushes++
	s.BytesShipped += 16
	var local algebra.Stats
	local.CacheHits = 1
}
`)
	if len(findings) != 3 {
		t.Fatalf("want 3 counter-write findings, got %v", findings)
	}
	for i, name := range []string{"SourcePushes", "BytesShipped", "CacheHits"} {
		if !strings.Contains(findings[i], "write to counter "+name) {
			t.Errorf("finding %d = %s, want one naming %s", i, findings[i], name)
		}
	}
}

func TestCounterReadsAndWholeValuesAreClean(t *testing.T) {
	// Reading a counter, merging whole values with Add and replacing a
	// Stats value or pointer write no counter field.
	findings := harness(t, `package synthetic

import "repro/internal/algebra"

func f(ctx *algebra.Context, s *algebra.Stats) int {
	var total algebra.Stats
	total.Add(*ctx.Stats)
	*s = algebra.Stats{SourcePushes: 1}
	ctx.Stats = &total
	return s.SourcePushes + total.TuplesShipped
}
`)
	if len(findings) != 0 {
		t.Fatalf("clean counter handling flagged: %v", findings)
	}
}

func TestRenameParseIsFlagged(t *testing.T) {
	findings := harness(t, `package synthetic

import (
	"strings"

	"repro/internal/algebra"
)

func f(p *algebra.Project) {
	for _, c := range p.Cols {
		_ = strings.IndexByte(c, '=')
		_ = strings.Index(c, "=")
		_, _, _ = strings.Cut(c, "=")
		_ = strings.SplitN(c, "=", 2)
	}
}
`)
	if len(findings) != 4 {
		t.Fatalf("want 4 rename-parse findings, got %v", findings)
	}
	for i, name := range []string{"IndexByte", "Index", "Cut", "SplitN"} {
		if !strings.Contains(findings[i], "strings."+name+" splits on") {
			t.Errorf("finding %d = %s, want one naming strings.%s", i, findings[i], name)
		}
	}
}

func TestRenameSplitterAndOtherSearchesAreClean(t *testing.T) {
	// The splitter itself, searches for other separators, a non-constant
	// separator and an ignored line are all clean.
	findings := harness(t, `package synthetic

import (
	"strings"

	"repro/internal/tab"
)

func f(c, sep string) (string, string) {
	name, src := tab.SplitRename(c)
	_ = strings.IndexByte(c, ':')
	_, _, _ = strings.Cut(c, ",")
	_ = strings.Index(c, sep)
	// yat-lint:ignore a key=value flag, not a projection entry
	_, _, _ = strings.Cut(c, "=")
	return name, tab.Rename(name, src)
}
`)
	if len(findings) != 0 {
		t.Fatalf("clean rename handling flagged: %v", findings)
	}
}

// filterMatchSrc matches a Bind filter four ways: through a Matcher, its
// Append called and taken as a method value, and through Match.
const filterMatchSrc = `package %s

import (
	"repro/internal/data"
	"repro/internal/filter"
)

func f(fl *filter.Filter, forest data.Forest) int {
	m := fl.Matcher(nil)
	rows := m.Append(nil, nil, forest[0])
	u := fl.Match(nil, forest[0])
	app := m.Append
	more := app(rows, nil, forest[1])
	return len(rows) + u.Len() + len(more)
}
`

func TestFilterMatchOutsideAlgebraIsFlagged(t *testing.T) {
	findings := harnessAt(t, "repro/internal/feed", "wrapper.go", fmt.Sprintf(filterMatchSrc, "feed"))
	if len(findings) != 4 {
		t.Fatalf("want 4 filter-match findings, got %v", findings)
	}
	for i, name := range []string{"Filter.Matcher", "Matcher.Append", "Filter.Match", "Matcher.Append"} {
		if !strings.Contains(findings[i], "filter."+name+" outside internal/algebra") {
			t.Errorf("finding %d = %s, want one naming %s", i, findings[i], name)
		}
	}
}

func TestFilterMatchInAlgebraAndOtherFilterUsesAreClean(t *testing.T) {
	// The algebra matches filters; elsewhere a filter may be read, printed
	// and cloned, and an ignored line is clean.
	if findings := harnessAt(t, algebraPath, "stream.go", fmt.Sprintf(filterMatchSrc, "algebra")); len(findings) != 0 {
		t.Fatalf("the algebra's own matching flagged: %v", findings)
	}
	findings := harness(t, `package synthetic

import (
	"repro/internal/data"
	"repro/internal/filter"
)

func f(fl *filter.Filter, n *data.Node) ([]string, string, *filter.Filter) {
	// yat-lint:ignore a test fixture compares against the matcher directly
	_ = fl.Match(nil, n)
	return fl.Vars(), fl.String(), fl.Clone()
}
`)
	if len(findings) != 0 {
		t.Fatalf("clean filter handling flagged: %v", findings)
	}
}

// TestTreeIsClean is the regression gate: the repository itself must stay
// lint-clean (every intentional partial switch carries an ignore comment).
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	findings, err := run([]string{"repro/..."})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(findings) != 0 {
		t.Fatalf("tree has lint findings:\n%s", strings.Join(findings, "\n"))
	}
}
