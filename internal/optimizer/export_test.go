package optimizer

import "repro/internal/algebra"

// Fixtures of the internal tests, for the external analysis oracle
// (oracle_test.go), which needs the mediator and so cannot live in this
// package.
var (
	CulturalOpts   = culturalOpts
	TypedOpts      = typedOpts
	Q2LikePlan     = q2LikePlan
	ViewPlan       = viewPlan
	ViewRows       = viewRows
	WorksStructure = worksStructure
)

// RandomPlans returns the first n plans of
// TestOptimizerPreservesInvariantsOnRandomPlans, in its order.
func RandomPlans(n int) []algebra.Op {
	g := &planGen{seed: 20000531}
	plans := make([]algebra.Op, n)
	for i := range plans {
		plans[i], _, _ = g.gen(1 + g.next(4))
	}
	return plans
}
