package mediator

import (
	"errors"
	"testing"

	"repro/internal/optimizer"
)

// FuzzPlan sends arbitrary bytes where a tenant's query text goes, on the
// paper deployment with the Figure 8 assumptions declared. Two properties:
// composing never panics (both dialects' parsers, the XQuery compiler, view
// substitution), and a text whose naive plan lints clean optimizes under
// CheckInvariants without an InvariantError or a TypeError — every rewriting
// step of all three rounds keeps a well-formed, well-typed plan well-formed
// and well-typed. testdata/fuzz/FuzzPlan holds Q1, Q2, their XQuery forms
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
		naive, err := cat.compose(src)
		if err != nil || len(cat.lint(naive)) > 0 {
			return
		}
		_, err = optimizer.New(m.optimizerOptions(cat)).OptimizeChecked(naive)
		var ie *optimizer.InvariantError
		var te *optimizer.TypeError
		if errors.As(err, &ie) || errors.As(err, &te) {
			t.Fatalf("a clean naive plan broke during optimization:\n src = %q\n err = %v", src, err)
		}
	})
}
