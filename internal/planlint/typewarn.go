package planlint

// Type-driven advisory diagnostics (Config.Warnings): a second pass runs
// schema-aware type inference (internal/typecheck) over the plan and flags
// operators the inference proves dead. Like the other warning codes these
// never fire without Config.Warnings, so invariant gates that abort on any
// diagnostic stay strict; the optimizer can eliminate the flagged branches
// under its PruneDeadBranches option.

import (
	"repro/internal/algebra"
	"repro/internal/typecheck"
)

// checkTypes emits the type-empty / dead-branch warnings. It needs declared
// structures to prove anything, and its walk mirrors check()'s path
// construction so both diagnostic classes locate operators identically.
func (c *checker) checkTypes(plan algebra.Op) {
	if !c.cfg.Warnings || c.cfg.Structures.Len() == 0 {
		return
	}
	ann, err := typecheck.Infer(plan, &typecheck.Config{Structures: c.cfg.Structures})
	if err != nil {
		return // nil operators are reported by the main pass
	}
	empty := func(op algebra.Op) bool {
		rt := ann.Types[op]
		return rt != nil && rt.Empty
	}
	var walk func(op algebra.Op, path string)
	walk = func(op algebra.Op, path string) {
		if op == nil {
			return
		}
		path = Extend(path, OpName(op))
		kids := op.Children()
		if len(kids) == 2 && kids[0] != nil && kids[1] != nil {
			le, re := empty(kids[0]), empty(kids[1])
			if le != re {
				side := "L"
				if re {
					side = "R"
				}
				// yat-lint:ignore intentionally partial: only set-combining operators have a prunable side
				switch op.(type) {
				case *algebra.Union:
					c.report(CodeDeadBranch, path, op,
						"union branch %s is provably empty under the declared schemas; the union is its other branch", side)
				case *algebra.Join, *algebra.DJoin, *algebra.Intersect:
					c.report(CodeDeadBranch, path, op,
						"side %s is provably empty under the declared schemas; the operator produces no rows", side)
				}
			}
		}
		// Report emptiness where it originates: an operator that is dead only
		// because a child is dead adds no information.
		if empty(op) {
			childEmpty := false
			for _, k := range kids {
				if empty(k) {
					childEmpty = true
					break
				}
			}
			if !childEmpty {
				c.report(CodeTypeEmpty, path, op,
					"operator provably produces no rows under the declared schemas (inferred type %s)", ann.Types[op])
			}
		}
		for i, k := range kids {
			p := path
			// yat-lint:ignore intentionally partial: only binary operators need side markers
			switch op.(type) {
			case *algebra.Join, *algebra.DJoin, *algebra.Union, *algebra.Intersect:
				p = Extend(path, []string{"L", "R"}[i])
			}
			walk(k, p)
		}
	}
	walk(plan, "")
}
