package datagen

import (
	"repro/internal/algebra"
	"repro/internal/filter"
)

// Fig7Plans builds the three equivalent plans of Figure 7's upper row over
// the trading database's artifacts and persons, each projected on
// ($t, $o): the monolithic Bind navigating owner references, its DJoin
// split, whose parameter Bind chases the references, and the Join against
// the persons extent on hashable identifier columns. The three return the
// same rows.
func Fig7Plans() [3]algebra.Op {
	bind := func(doc, f string) *algebra.Bind { return &algebra.Bind{Doc: doc, F: filter.MustParse(f)} }
	param := func(f string) *algebra.Bind { return &algebra.Bind{Col: "$ow", F: filter.MustParse(f)} }
	const owners = `set[ *class[ artifact.tuple[ title: $t, owners@$ow ] ] ]`
	plans := [3]algebra.Op{
		bind("artifacts", `set[ *class[ artifact.tuple[ title: $t,
		      owners.list[ *class[ person.tuple[ name: $o ] ] ] ] ] ]`),
		&algebra.DJoin{L: bind("artifacts", owners), R: param(`owners.list[ *class[ person.tuple[ name: $o ] ] ]`)},
		&algebra.Join{
			L: &algebra.MapExpr{From: &algebra.DJoin{L: bind("artifacts", owners), R: param(`owners.list[ *%@$ref ]`)},
				Col: "$rid", E: algebra.MustParseExpr(`id($ref)`)},
			R: &algebra.MapExpr{From: bind("persons", `set[ *class@$p[ person.tuple[ name: $o ] ] ]`),
				Col: "$pid", E: algebra.MustParseExpr(`id($p)`)},
			Pred: algebra.MustParseExpr(`$rid = $pid`),
		},
	}
	for i, p := range plans {
		plans[i] = &algebra.Project{From: p, Cols: []string{"$t", "$o"}}
	}
	return plans
}
