package optimizer

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/filter"
	"repro/internal/pattern"
	"repro/internal/typecheck"
)

// planGen generates random well-formed plans over the cultural-portal
// catalog (the random-query style of internal/mediator/random_test.go,
// lifted from YAT_L to the algebra). Every generated plan is valid by
// construction: variables are bound before use, filters only require labels
// the declared patterns can produce, and join sides carry disjoint columns.
type planGen struct {
	seed uint64
	n    int // unique-variable counter
}

func (g *planGen) next(n int) int {
	g.seed = g.seed*6364136223846793005 + 1442695040888963407
	return int((g.seed >> 33) % uint64(n))
}

// leaf returns a Bind over one of the catalog documents with a random field
// subset; vars maps column → true for the numeric ones (usable in range
// predicates).
func (g *planGen) leaf() (algebra.Op, []string, map[string]bool) {
	g.n++
	sfx := fmt.Sprintf("%d", g.n)
	type field struct {
		item    string
		v       string
		numeric bool
	}
	docs := []struct {
		doc    string
		shape  string // %s receives the joined field items
		fields []field
	}{
		{"artifacts", `set[ *class[ artifact.tuple[ %s ] ] ]`, []field{
			{"title: $t", "$t", false},
			{"year: $y", "$y", true},
			{"creator: $c", "$c", false},
			{"price: $p", "$p", true},
		}},
		{"persons", `set[ *class[ person.tuple[ %s ] ] ]`, []field{
			{"name: $n", "$n", false},
		}},
		{"works", `works[ *work[ %s ] ]`, []field{
			{"artist: $a", "$a", false},
			{"title: $t", "$t", false},
			{"style: $s", "$s", false},
		}},
	}
	d := docs[g.next(len(docs))]
	nf := 1 + g.next(len(d.fields))
	chosen := map[int]bool{}
	for len(chosen) < nf {
		chosen[g.next(len(d.fields))] = true
	}
	var items, cols []string
	numeric := map[string]bool{}
	for i, f := range d.fields {
		if !chosen[i] {
			continue
		}
		// Suffix every variable so join sides never collide.
		items = append(items, strings.ReplaceAll(f.item, f.v, f.v+sfx))
		cols = append(cols, f.v+sfx)
		if f.numeric {
			numeric[f.v+sfx] = true
		}
	}
	b := &algebra.Bind{Doc: d.doc, F: filter.MustParse(fmt.Sprintf(d.shape, strings.Join(items, ", ")))}
	return b, cols, numeric
}

// gen builds a random plan of the given depth budget over the leaf.
func (g *planGen) gen(depth int) (algebra.Op, []string, map[string]bool) {
	if depth <= 0 {
		return g.leaf()
	}
	op, cols, numeric := g.gen(depth - 1)
	switch g.next(6) {
	case 0: // Select over a bound variable
		var pred algebra.Expr
		for _, v := range cols {
			if numeric[v] {
				pred = algebra.MustParseExpr(v + " > 1800")
				break
			}
		}
		if pred == nil {
			pred = algebra.MustParseExpr(cols[g.next(len(cols))] + ` != "zzz"`)
		}
		return &algebra.Select{From: op, Pred: pred}, cols, numeric
	case 1: // Project onto a column subset
		keep := cols[:1+g.next(len(cols))]
		n2 := map[string]bool{}
		for _, c := range keep {
			if numeric[c] {
				n2[c] = true
			}
		}
		return &algebra.Project{From: op, Cols: keep}, keep, n2
	case 2: // Join with a fresh leaf on a string equality
		r, rcols, rnum := g.leaf()
		pred := algebra.MustParseExpr(cols[g.next(len(cols))] + " = " + rcols[g.next(len(rcols))])
		all := append(append([]string{}, cols...), rcols...)
		for v := range rnum {
			numeric[v] = true
		}
		return &algebra.Join{L: op, R: r, Pred: pred}, all, numeric
	case 3: // Distinct
		return &algebra.Distinct{From: op}, cols, numeric
	case 4: // Sort by a column
		return &algebra.Sort{From: op, Cols: cols[:1]}, cols, numeric
	default: // Tree with a Skolem-function construction over the columns
		c := &algebra.Cons{Label: "entry", Skolem: "obj" + fmt.Sprint(g.n), SkolemArgs: cols[:1]}
		for _, col := range cols {
			c.Kids = append(c.Kids, algebra.ConsItem{
				C: &algebra.Cons{Label: strings.TrimPrefix(col, "$"), Var: col}})
		}
		t := &algebra.TreeOp{From: op, C: c}
		return t, t.Columns(), map[string]bool{}
	}
}

// TestOptimizerPreservesInvariantsOnRandomPlans is the property test: for N
// random valid plans, every rewriting round's output still passes
// typecheck.Check — Optimize verifies after each round and returns the
// first violation with the round's name. The same loop is the type-system
// property test: every accepted plan types with a non-empty root (the
// generator only builds satisfiable filters), and all three
// optimizer rounds preserve the inferred root type, both through the
// per-round internal verification and an explicit end-to-end subsumption
// check on the final plan.
func TestOptimizerPreservesInvariantsOnRandomPlans(t *testing.T) {
	opts, _, _ := culturalOpts(30)
	g := &planGen{seed: 20000531}
	for i := 0; i < 500; i++ {
		plan, _, _ := g.gen(1 + g.next(4))
		o := New(opts)
		cfg := o.cfg
		orig, ds := typecheck.Check(plan, cfg)
		if len(ds) > 0 {
			t.Fatalf("generator produced an invalid plan (seed %d):\n%s\n%v",
				i, algebra.Describe(plan), typecheck.Error(ds))
		}
		if orig.Root.Empty {
			t.Fatalf("plan %d: satisfiable plan inferred empty (%s)\n%s",
				i, orig.Root, algebra.Describe(plan))
		}
		out, err := o.Optimize(plan)
		if err != nil {
			t.Errorf("plan %d: %v\ninput:\n%s", i, err, algebra.Describe(plan))
			continue
		}
		// Belt and braces: the final plan passes a fresh check too.
		opt, ds := typecheck.Check(out, cfg)
		if len(ds) > 0 {
			t.Errorf("plan %d: final plan fails lint:\n%s\n%v",
				i, algebra.Describe(out), typecheck.Error(ds))
		}
		// End-to-end: the optimized root type is subsumed per shared column
		// by the original's (the per-round verification asserts this after
		// each round; this re-checks the composition from outside).
		for _, col := range opt.Root.Cols {
			want, got := orig.Root.Type(col), opt.Root.Type(col)
			if want == nil || got == nil {
				continue
			}
			if !pattern.Subsumes(opt.Model, want, opt.Model, got) {
				t.Errorf("plan %d: column %s widened by optimization: %s not subsumed by %s\ninput:\n%s\noutput:\n%s",
					i, col, got, want, algebra.Describe(plan), algebra.Describe(out))
			}
		}
	}
}

// TestOptimizeReportsBrokenInput verifies the diagnostic path: an invalid
// plan is caught at the "input" stage with a typed error.
func TestOptimizeReportsBrokenInput(t *testing.T) {
	opts, _, _ := culturalOpts(10)
	bad := &algebra.Select{
		From: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work[ title: $t ] ]`)},
		Pred: algebra.MustParseExpr(`$ghost = 1`),
	}
	out, err := New(opts).Optimize(bad)
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InvariantError, got %v", err)
	}
	if ie.Stage != "input" {
		t.Errorf("stage = %q, want input", ie.Stage)
	}
	if len(ie.Diags) == 0 || ie.Diags[0].Code != typecheck.CodeUnboundVar {
		t.Errorf("diagnostics = %v", ie.Diags)
	}
	// The rewritten plan is returned beside the error.
	if out == nil {
		t.Error("Optimize must still return the rewritten plan")
	}
}

// TestVerifyNamesRoundAndRule checks the stage naming contract: verify
// records a violation under the stage label it is given.
func TestVerifyNamesRoundAndRule(t *testing.T) {
	opts, _, _ := culturalOpts(10)
	o := New(opts)
	o.verify("round2/wrapSources", &algebra.Select{
		From: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work[ title: $t ] ]`)},
		Pred: algebra.MustParseExpr(`$ghost = 1`),
	})
	var ie *InvariantError
	if !errors.As(o.err, &ie) {
		t.Fatalf("verify did not record the violation: %v", o.err)
	}
	if ie.Stage != "round2/wrapSources" {
		t.Errorf("stage = %q", ie.Stage)
	}
	if !strings.Contains(ie.Error(), "round2/wrapSources") {
		t.Errorf("error text must name the rule: %v", ie)
	}
}
