package mediator

import (
	"context"
	"errors"
	"testing"

	"repro/internal/algebra"
	"repro/internal/optimizer"
	"repro/internal/yatl"
)

// FuzzPlan sends arbitrary bytes where a tenant's query text goes, on the
// paper deployment with the Figure 8 assumptions declared. Four properties:
// composing never panics (both dialects' parsers, the XQuery compiler, view
// substitution); a YAT_L query the parser accepts prints, as a rule, to text
// that re-parses and prints identically — the property a view definition or
// a pushed filter relies on; and a text whose naive plan lints clean
// optimizes under CheckInvariants without an InvariantError or a TypeError
// — each of the three rounds keeps a well-formed, well-typed plan
// well-formed and well-typed; and for a text that plans, the plan the
// catalog's plan map serves StreamContext marshals to the text of a fresh,
// uncached planning. testdata/fuzz/FuzzPlan holds Q1, Q2, their XQuery forms
// and view1's body as a query, plus what the fuzzer found. The second
// property found the Figure 8 refusal from those seeds alone
// (TestFigure8PruningPassesTypedVerification), then a query variable
// captured by a view variable of the same name
// (TestQueryVariableNamedLikeAViewVariable).
func FuzzPlan(f *testing.F) {
	m := figure8Setup(f)
	m.CheckInvariants = true
	cat := m.cat.Load()
	f.Fuzz(func(t *testing.T, src string) {
		if q, err := yatl.ParseQuery(src); err == nil {
			printed := q.String()
			p, err := yatl.Parse(printed)
			if err != nil || len(p.Rules) != 1 || p.Rules[0].String() != printed {
				t.Fatalf("a query does not re-parse from its printed form:\n src = %q\n printed = %q\n err = %v\n again = %q", src, printed, err, p)
			}
		}
		naive, err := cat.compose(src)
		if err != nil || len(m.Lint(naive)) > 0 {
			return
		}
		fresh, err := optimizer.New(m.optimizerOptions(cat)).Optimize(naive)
		var ie *optimizer.InvariantError
		var te *optimizer.TypeError
		if errors.As(err, &ie) || errors.As(err, &te) {
			t.Fatalf("a clean naive plan broke during optimization:\n src = %q\n err = %v", src, err)
		}
		if err != nil {
			return
		}
		want, err := algebra.MarshalPlan(fresh)
		if err != nil {
			return
		}
		for run := 0; run < 2; run++ {
			if s, err := m.StreamContext(context.Background(), src, ExecOptions{Parallelism: 1}); err == nil {
				s.Close()
			}
		}
		p, cached, err := m.plan(cat, src)
		if err != nil || !cached {
			t.Fatalf("the plan map lost a text StreamContext planned: cached = %v, err = %v\n src = %q", cached, err, src)
		}
		if got, err := algebra.MarshalPlan(p.plan); err != nil || got != want {
			t.Fatalf("the cached plan differs from a fresh one (err %v):\n src = %q\n cached = %s\n fresh = %s", err, src, got, want)
		}
	})
}
