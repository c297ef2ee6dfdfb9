package optimizer

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/filter"
	"repro/internal/pattern"
	"repro/internal/typecheck"
)

// typedOpts declares one document schema so the type inference has
// something to prove: docs conforms to doc[ *item[ name[String], num[Int] ] ].
func typedOpts() Options {
	m := pattern.NewModel("test")
	m.Define("Doc", pattern.NodeItems("doc",
		pattern.Starred(pattern.Node("item",
			pattern.Node("name", pattern.Str()),
			pattern.Node("num", pattern.Int())))))
	return Options{
		Structures:      typecheck.NewSchemas(map[string]typecheck.Structure{"docs": {Model: m, Pattern: "Doc"}}),
		CheckInvariants: true,
	}
}

// TestVerifyTypesCatchesBreakingRewrite feeds verify a "rewrite" that
// silently changes a column's type — the plans are well-formed, planlint is
// happy with both, but $n went from String to Int — and expects a TypeError
// locating the operator that introduced the change.
func TestVerifyTypesCatchesBreakingRewrite(t *testing.T) {
	orig := &algebra.Select{
		From: &algebra.Bind{Doc: "docs", F: filter.MustParse(`doc[ *item[ name: $n ] ]`)},
		Pred: algebra.MustParseExpr(`$n = "x"`),
	}
	broken := &algebra.Select{
		From: &algebra.Bind{Doc: "docs", F: filter.MustParse(`doc[ *item[ num: $n ] ]`)},
		Pred: algebra.MustParseExpr(`$n = "x"`),
	}
	o := New(typedOpts())
	o.captureRootType(orig)
	o.verify("round1/breakingRewrite", broken)
	if o.err == nil {
		t.Fatal("type-changing rewrite not caught")
	}
	te, ok := o.err.(*TypeError)
	if !ok {
		t.Fatalf("err = %v (%T), want *TypeError", o.err, o.err)
	}
	if te.Stage != "round1/breakingRewrite" {
		t.Errorf("Stage = %q", te.Stage)
	}
	if te.Col != "$n" {
		t.Errorf("Col = %q, want $n", te.Col)
	}
	// The blame path names the deepest operator carrying the changed type.
	if te.Path != "Select/Bind" {
		t.Errorf("Path = %q, want Select/Bind", te.Path)
	}
	if !strings.Contains(te.Error(), "not subsumed") {
		t.Errorf("Error() = %q", te.Error())
	}
}

// TestVerifyTypesAcceptsRefiningRewrite: narrowing a column's type (the
// rewritten type is subsumed by the original) is fine.
func TestVerifyTypesAcceptsRefiningRewrite(t *testing.T) {
	orig := &algebra.Bind{Doc: "docs", F: filter.MustParse(`doc[ *item[ $f ] ]`)}
	refined := &algebra.Bind{Doc: "docs", F: filter.MustParse(`doc[ *item[ name@$f ] ]`)}
	o := New(typedOpts())
	o.captureRootType(orig)
	o.verify("round1/refine", refined)
	if o.err != nil {
		t.Fatalf("refining rewrite rejected: %v", o.err)
	}
}

func TestPruneDeadBranchesUnion(t *testing.T) {
	live := func() *algebra.Bind {
		return &algebra.Bind{Doc: "docs", F: filter.MustParse(`doc[ *item[ name: $n ] ]`)}
	}
	// Well-formed (planlint accepts it: every label exists in the schema) but
	// provably dead: num can never carry the string constant.
	dead := func() *algebra.Bind {
		return &algebra.Bind{Doc: "docs", F: filter.MustParse(`doc[ *item[ name: $n, num: "zap" ] ]`)}
	}
	opts := typedOpts()
	opts.PruneDeadBranches = true
	for name, plan := range map[string]algebra.Op{
		"DeadRight": &algebra.Union{L: live(), R: dead()},
		"DeadLeft":  &algebra.Union{L: dead(), R: live()},
	} {
		t.Run(name, func(t *testing.T) {
			out, err := New(opts).OptimizeChecked(plan)
			if err != nil {
				t.Fatalf("OptimizeChecked: %v", err)
			}
			if got, want := algebra.Describe(out), algebra.Describe(live()); got != want {
				t.Errorf("pruned plan:\n%s\nwant:\n%s", got, want)
			}
		})
	}
	// Without the flag the union survives.
	out, err := New(typedOpts()).OptimizeChecked(&algebra.Union{L: live(), R: dead()})
	if err != nil {
		t.Fatalf("OptimizeChecked: %v", err)
	}
	if _, ok := out.(*algebra.Union); !ok {
		t.Errorf("union pruned without PruneDeadBranches: %s", algebra.Describe(out))
	}
}

func TestPruneDeadBranchesCollapsesJoin(t *testing.T) {
	live := &algebra.Bind{Doc: "docs", F: filter.MustParse(`doc[ *item[ name: $n ] ]`)}
	dead := &algebra.Bind{Doc: "docs", F: filter.MustParse(`doc[ *item[ name: $m, num: "zap" ] ]`)}
	opts := typedOpts()
	opts.PruneDeadBranches = true
	out, err := New(opts).OptimizeChecked(&algebra.Join{
		L: live, R: dead, Pred: algebra.MustParseExpr(`$n = $m`),
	})
	if err != nil {
		t.Fatalf("OptimizeChecked: %v", err)
	}
	lit, ok := out.(*algebra.Literal)
	if !ok {
		t.Fatalf("join not collapsed: %s", algebra.Describe(out))
	}
	if lit.T.Len() != 0 {
		t.Errorf("collapsed literal has %d rows", lit.T.Len())
	}
}
