package typecheck

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/filter"
	"repro/internal/pattern"
)

// lintConfig builds a config with one source ("src") exporting document
// "docs" with a tiny capability interface (bind/select/eq over an
// all-permissive Fpattern) and a declared structure doc[ *item[ name, num ] ].
func lintConfig() *Config {
	iface := capability.NewInterface("src")
	fm := pattern.NewModel("F")
	fm.Define("Doc", &pattern.P{Kind: pattern.KAny})
	iface.FModels = []*pattern.Model{fm}
	iface.Binds["docs"] = capability.BindCap{FModel: "F", FPattern: "Doc"}
	iface.Operations = []capability.Operation{
		{Name: "bind", Kind: "algebra"},
		{Name: "select", Kind: "algebra"},
		{Name: "eq", Kind: "boolean"},
	}

	m := pattern.NewModel("test")
	m.Define("Doc", pattern.NodeItems("doc",
		pattern.Starred(pattern.Node("item",
			pattern.Node("name", pattern.Str()),
			pattern.Node("num", pattern.Int())))))

	return &Config{
		Interfaces: map[string]*capability.Interface{"src": iface},
		SourceDocs: map[string]string{"docs": "src"},
		Structures: NewSchemas(map[string]capability.StructureRef{"docs": {Model: m, Pattern: "Doc"}}),
	}
}

// diags returns the plan's violations under cfg.
func diags(plan algebra.Op, cfg *Config) []Diagnostic {
	_, ds := Check(plan, cfg)
	return ds
}

func docBind(src string) *algebra.Bind {
	return &algebra.Bind{Doc: "docs", F: filter.MustParse(src)}
}

// one asserts exactly one diagnostic with the given code and path.
func one(t *testing.T, ds []Diagnostic, code, path string) Diagnostic {
	t.Helper()
	if len(ds) != 1 {
		t.Fatalf("want exactly one diagnostic, got %d: %v", len(ds), ds)
	}
	if ds[0].Code != code {
		t.Errorf("code = %q, want %q (%s)", ds[0].Code, code, ds[0])
	}
	if ds[0].Path != path {
		t.Errorf("path = %q, want %q (%s)", ds[0].Path, path, ds[0])
	}
	return ds[0]
}

func TestCleanPlanHasNoDiagnostics(t *testing.T) {
	plan := &algebra.Select{
		From: docBind(`doc[ *item[ name: $n, num: $v ] ]`),
		Pred: algebra.MustParseExpr(`$v > 10`),
	}
	if ds := diags(plan, lintConfig()); len(ds) != 0 {
		t.Fatalf("clean plan got diagnostics: %v", ds)
	}
}

func TestUnboundVariable(t *testing.T) {
	// $missing is bound by no upstream operator.
	plan := &algebra.Select{
		From: docBind(`doc[ *item[ name: $n ] ]`),
		Pred: algebra.MustParseExpr(`$missing = "x"`),
	}
	d := one(t, diags(plan, lintConfig()), CodeUnboundVar, "Select")
	if !strings.Contains(d.Msg, "$missing") {
		t.Errorf("diagnostic should name the variable: %s", d)
	}
}

func TestUnboundVariableDeepPath(t *testing.T) {
	// The offending Select sits on the right branch of a Join.
	plan := &algebra.Join{
		L: docBind(`doc[ *item[ name: $n ] ]`),
		R: &algebra.Select{
			From: docBind(`doc[ *item[ num: $v ] ]`),
			Pred: algebra.MustParseExpr(`$ghost = 1`),
		},
		Pred: algebra.MustParseExpr(`$n = $v`),
	}
	one(t, diags(plan, lintConfig()), CodeUnboundVar, "Join/R/Select")
}

func TestDJoinParameterIsBound(t *testing.T) {
	// The right side of a DJoin may reference left columns as parameters:
	// this plan is clean even though $n is free on the right.
	plan := &algebra.DJoin{
		L: docBind(`doc[ *item[ name: $n ] ]`),
		R: &algebra.Select{
			From: docBind(`doc[ *item[ num: $v ] ]`),
			Pred: algebra.MustParseExpr(`$v > 1 AND $n = "a"`),
		},
	}
	if ds := diags(plan, lintConfig()); len(ds) != 0 {
		t.Fatalf("DJoin parameter flagged as unbound: %v", ds)
	}
	// Outside the DJoin the same Select is a violation.
	if ds := diags(plan.R, lintConfig()); len(ds) != 1 || ds[0].Code != CodeUnboundVar {
		t.Fatalf("standalone right side should be unbound: %v", ds)
	}
}

func TestDJoinBatchShape(t *testing.T) {
	// $ghost is provided neither by the left columns nor the environment,
	// so the DJoin's binding sets are under-determined: the unbound-var
	// check fires inside R and the batch-shape check fires at the DJoin.
	plan := &algebra.DJoin{
		L: docBind(`doc[ *item[ name: $n ] ]`),
		R: &algebra.Select{
			From: docBind(`doc[ *item[ num: $v ] ]`),
			Pred: algebra.MustParseExpr(`$ghost = 1`),
		},
	}
	ds := diags(plan, lintConfig())
	var shape, unbound bool
	for _, d := range ds {
		switch d.Code {
		case CodeBatchShape:
			shape = true
			if d.Path != "DJoin" || !strings.Contains(d.Msg, "$ghost") {
				t.Errorf("batch-shape diagnostic should sit at the DJoin and name the variable: %s", d)
			}
		case CodeUnboundVar:
			unbound = true
		}
	}
	if !shape || !unbound {
		t.Fatalf("want batch-shape and unbound-var diagnostics, got: %v", ds)
	}
	// A DJoin whose parameters are all determined stays clean (see
	// TestDJoinParameterIsBound); batch-shape must never fire on its own.
}

func TestUnknownProjectColumn(t *testing.T) {
	plan := &algebra.Project{
		From: docBind(`doc[ *item[ name: $n ] ]`),
		Cols: []string{"$n", "$nope"},
	}
	one(t, diags(plan, lintConfig()), CodeUnknownColumn, "Project")
}

func TestUndeclaredSourceCapability(t *testing.T) {
	// The interface declares eq but not lt: a pushed `$v < 5` is infeasible.
	plan := &algebra.SourceQuery{Source: "src", Plan: &algebra.Select{
		From: docBind(`doc[ *item[ num: $v ] ]`),
		Pred: algebra.MustParseExpr(`$v < 5`),
	}}
	d := one(t, diags(plan, lintConfig()), CodeCapability, "SourceQuery/Select")
	if !strings.Contains(d.Msg, "cannot evaluate") {
		t.Errorf("diagnostic should explain the infeasible predicate: %s", d)
	}
}

func TestUndeclaredSourceOperation(t *testing.T) {
	// project is not among the declared operations.
	plan := &algebra.SourceQuery{Source: "src", Plan: &algebra.Project{
		From: docBind(`doc[ *item[ num: $v, name: $n ] ]`),
		Cols: []string{"$v"},
	}}
	one(t, diags(plan, lintConfig()), CodeCapability, "SourceQuery/Project")
}

func TestUnknownSourceInterface(t *testing.T) {
	plan := &algebra.SourceQuery{Source: "ghost", Plan: docBind(`doc[ *item[ name: $n ] ]`)}
	one(t, diags(plan, lintConfig()), CodeCapability, "SourceQuery")
}

func TestForeignDocumentPushed(t *testing.T) {
	cfg := lintConfig()
	cfg.SourceDocs["other"] = "elsewhere"
	plan := &algebra.SourceQuery{Source: "src", Plan: &algebra.Bind{
		Doc: "other", F: filter.MustParse(`doc[ *item[ name: $n ] ]`)}}
	d := one(t, diags(plan, cfg), CodeCapability, "SourceQuery/Bind")
	if !strings.Contains(d.Msg, `"other"`) {
		t.Errorf("diagnostic should name the foreign document: %s", d)
	}
}

func TestSkolemArityMismatch(t *testing.T) {
	// person() is minted with one argument in the left Tree but referenced
	// with two in the right one: the references can never resolve.
	mk := func(c *algebra.Cons) algebra.Op {
		return &algebra.TreeOp{From: docBind(`doc[ *item[ name: $n, num: $v ] ]`), C: c}
	}
	plan := &algebra.Union{
		L: mk(&algebra.Cons{Label: "p", Skolem: "person", SkolemArgs: []string{"$n"}}),
		R: mk(&algebra.Cons{Label: "q", Kids: []algebra.ConsItem{
			{C: &algebra.Cons{Label: "owner", RefTo: "person", RefArgs: []string{"$n", "$v"}}},
		}}),
	}
	d := one(t, diags(plan, lintConfig()), CodeSkolemArity, "Union/R/Tree")
	if !strings.Contains(d.Msg, "person") || !strings.Contains(d.Msg, "Union/L/Tree") {
		t.Errorf("diagnostic should name the function and the first use site: %s", d)
	}
}

func TestPatternMismatch(t *testing.T) {
	// The declared pattern for "docs" has labels doc/item/name/num only.
	plan := docBind(`doc[ *item[ bogus: $b ] ]`)
	d := one(t, diags(plan, lintConfig()), CodePattern, "Bind")
	if !strings.Contains(d.Msg, "bogus") {
		t.Errorf("diagnostic should name the impossible label: %s", d)
	}
}

func TestUnionArityMismatch(t *testing.T) {
	plan := &algebra.Union{
		L: docBind(`doc[ *item[ name: $n ] ]`),
		R: docBind(`doc[ *item[ name: $n, num: $v ] ]`),
	}
	one(t, diags(plan, lintConfig()), CodeArity, "Union")
}

func TestJoinDuplicateColumns(t *testing.T) {
	plan := &algebra.Join{
		L:    docBind(`doc[ *item[ name: $n ] ]`),
		R:    docBind(`doc[ *item[ name: $n ] ]`),
		Pred: algebra.TrueExpr(),
	}
	one(t, diags(plan, lintConfig()), CodeDuplicateCol, "Join")
}

func TestBindOverUnknownParameter(t *testing.T) {
	plan := &algebra.Bind{Col: "$w", F: filter.MustParse(`item[ name: $n ]`)}
	one(t, diags(plan, lintConfig()), CodeUnboundVar, "Bind")
	// With the parameter provided by an enclosing DJoin the plan is clean.
	provided := &algebra.DJoin{L: docBind(`doc@$w`), R: plan}
	if ds := diags(provided, lintConfig()); len(ds) != 0 {
		t.Fatalf("provided parameter still flagged: %v", ds)
	}
}

func TestUnknownDocument(t *testing.T) {
	plan := &algebra.Bind{Doc: "nowhere", F: filter.MustParse(`doc[ *item[ name: $n ] ]`)}
	one(t, diags(plan, lintConfig()), CodeUnknownDoc, "Bind")
}

func TestNestedSourceQuery(t *testing.T) {
	plan := &algebra.SourceQuery{Source: "src", Plan: &algebra.SourceQuery{
		Source: "src", Plan: docBind(`doc[ *item[ name: $n ] ]`)}}
	ds := diags(plan, lintConfig())
	found := false
	for _, d := range ds {
		if d.Code == CodeCapability && strings.Contains(d.Msg, "nested") {
			found = true
		}
	}
	if !found {
		t.Fatalf("nested SourceQuery not flagged: %v", ds)
	}
}

func TestErrorFolding(t *testing.T) {
	if Error(nil) != nil {
		t.Fatal("Error(nil) must be nil")
	}
	err := Error([]Diagnostic{{Code: CodeUnboundVar, Path: "Select", Op: "Select($x = 1)", Msg: "m"}})
	if err == nil || !strings.Contains(err.Error(), CodeUnboundVar) {
		t.Fatalf("folded error should carry the code: %v", err)
	}
}

func TestDJoinDegenerateWarning(t *testing.T) {
	// The inner plan never reads an outer column: the DJoin is a plain Join
	// in disguise, but it evaluates correctly, so it is not a violation.
	plan := &algebra.DJoin{
		L: docBind(`doc[ *item[ name: $n ] ]`),
		R: &algebra.Select{
			From: docBind(`doc[ *item[ num: $v ] ]`),
			Pred: algebra.MustParseExpr(`$v > 1`),
		},
	}
	if ds := diags(plan, lintConfig()); len(ds) != 0 {
		t.Fatalf("degenerate DJoin must stay clean: %v", ds)
	}
}

// TestDiagnosticPathsCarryNesting pins the path format: a diagnostic
// locates its operator with L/R side markers under binary operators.
func TestDiagnosticPathsCarryNesting(t *testing.T) {
	bad := &algebra.Select{
		From: &algebra.Join{
			L: docBind(`doc[ *item[ name: $n ] ]`),
			R: &algebra.Select{
				From: docBind(`doc[ *item[ num: $v ] ]`),
				Pred: algebra.MustParseExpr(`$zap > 1`),
			},
			Pred: algebra.MustParseExpr(`$n = $v`),
		},
		Pred: algebra.MustParseExpr(`$v > 10`),
	}
	one(t, diags(bad, lintConfig()), CodeUnboundVar, "Select/Join/R/Select")
}

// TestPredFeasibleTable pins the one pushdown-feasibility table, conjunct by
// conjunct, against the test interface (bind, select, eq). The bare constant
// is the one entry the optimizer answers differently (it never pushes one;
// see optimizer.TestPushableTable): a hand-built pushed Select(true) or
// cross-product Join(true) gives the source nothing to evaluate.
func TestPredFeasibleTable(t *testing.T) {
	iface := lintConfig().Interfaces["src"]
	for _, tc := range []struct {
		conj     string
		feasible bool
	}{
		{`$n = "x"`, true},
		{`$v = $n`, true},
		{`$v = $w + 1`, true},
		{`$n = "x" OR $v = 1`, true},
		{`NOT ($n = "x")`, true},
		{`true`, true},
		{`$v < 3`, false}, // lt is not declared
		{`$n = "x" OR $v < 3`, false},
		{`contains($n, "x")`, false}, // no such external function
		{`$v = len($n)`, false},
		{`NOT (false)`, false}, // a constant below a connective is a predicate form no wrapper translates
		{`true OR $n = "x"`, false},
	} {
		err := PredFeasible(iface, algebra.MustParseExpr(tc.conj), []string{"docs"})
		if (err == nil) != tc.feasible {
			t.Errorf("PredFeasible(%s) = %v, want feasible = %v", tc.conj, err, tc.feasible)
		}
	}
}

// TestNilPartsAreDiagnostics: a nil operator, tab or filter is a nil-plan
// diagnostic at its path, and the rest of the plan is still typed.
func TestNilPartsAreDiagnostics(t *testing.T) {
	for _, tc := range []struct {
		plan algebra.Op
		path string
	}{
		{&algebra.Literal{}, "Literal"},
		{&algebra.Bind{Doc: "docs"}, "Bind"},
		{&algebra.Distinct{From: &algebra.Select{Pred: algebra.TrueExpr()}}, "Distinct/Select/<nil>"},
		{&algebra.Union{L: docBind(`doc[ *item[ name: $n ] ]`), R: &algebra.SourceQuery{Source: "src"}}, "Union/R/SourceQuery"},
	} {
		ann, ds := Check(tc.plan, lintConfig())
		if len(ds) == 0 || ds[0].Code != CodeNilPlan || ds[0].Path != tc.path {
			t.Errorf("%s: want nil-plan at %s first, got %v", algebra.Describe(tc.plan), tc.path, ds)
		}
		if ann.Root == nil || ann.Types[tc.plan] == nil {
			t.Errorf("%s: root not typed", algebra.Describe(tc.plan))
		}
	}
}
