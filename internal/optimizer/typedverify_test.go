package optimizer

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/capability"
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
		Structures:      typecheck.NewSchemas(map[string]capability.StructureRef{"docs": {Model: m, Pattern: "Doc"}}),
		CheckInvariants: true,
	}
}

// TestVerifyTypesCatchesBreakingRewrite feeds verify a "rewrite" that
// silently changes a column's type — the plans are well-formed, Check finds
// no violation in either, but $n went from String to Int — and expects a TypeError
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
	o.verify("input", orig)
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
	o.verify("input", orig)
	o.verify("round1/refine", refined)
	if o.err != nil {
		t.Fatalf("refining rewrite rejected: %v", o.err)
	}
}
