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
	f, err := parser.ParseFile(fset, "synthetic.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: imp, Error: func(err error) { t.Errorf("type error: %v", err) }}
	conf.Check("synthetic", fset, []*ast.File{f}, info)
	return analyze(fset, []*ast.File{f}, info, "synthetic", sealed)
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
	case *algebra.Doc, *algebra.Bind, *algebra.Select, *algebra.Project,
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
