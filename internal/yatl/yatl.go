// Package yatl implements the YAT_L integration language of Section 2: rules
// of the form
//
//	artworks() :=
//	MAKE  <construction>
//	MATCH <doc> WITH <filter> (, <doc> WITH <filter>)*
//	WHERE <predicate> ;
//
// and their algebraic translation (Section 3.2, Figure 5):
//
//  1. named documents are the input operations;
//  2. each MATCH statement translates into a Bind capturing its
//     filtering/binding semantics;
//  3. predicates involving various inputs translate into Joins;
//  4. other predicates translate into Selects (placed directly above the
//     Bind they concern);
//  5. the MAKE clause translates into a Tree operation.
package yatl

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/filter"
	"repro/internal/syntax"
)

// Rule is one YAT_L rule: a named query. The rule name is the name of the
// document the rule defines (e.g. "artworks").
type Rule struct {
	Name    string
	Params  []string
	Make    *algebra.Cons
	Matches []Match
	Where   algebra.Expr // nil when absent
}

// Match is one `doc WITH filter` clause.
type Match struct {
	Doc string
	F   *filter.Filter
}

// Program is a sequence of rules (an integration program such as view1.yat).
type Program struct {
	Rules []Rule
}

// Rule returns the named rule, or nil.
func (p *Program) Rule(name string) *Rule {
	for i := range p.Rules {
		if p.Rules[i].Name == name {
			return &p.Rules[i]
		}
	}
	return nil
}

// String renders the program in parseable YAT_L syntax.
func (p *Program) String() string {
	var b strings.Builder
	for i := range p.Rules {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(p.Rules[i].String())
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders one rule.
func (r *Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s) :=\n", r.Name, strings.Join(r.Params, ", "))
	fmt.Fprintf(&b, "MAKE %s\n", r.Make)
	b.WriteString("MATCH ")
	for i, m := range r.Matches {
		if i > 0 {
			b.WriteString(",\n      ")
		}
		fmt.Fprintf(&b, "%s WITH %s", m.Doc, m.F)
	}
	if r.Where != nil {
		fmt.Fprintf(&b, "\nWHERE %s", r.Where)
	}
	b.WriteString(" ;")
	return b.String()
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

// Parse parses a YAT_L program: rules separated by ';'. Comments run from
// '#' to end of line.
func Parse(src string) (*Program, error) {
	return syntax.Parse(src, "yatl", func(c *syntax.Cursor) (*Program, error) {
		p := &Program{}
		for c.Cur().Kind != syntax.EOF {
			if c.IsPunct(";") {
				c.Next()
				continue
			}
			r, err := rule(c)
			if err != nil {
				return nil, err
			}
			p.Rules = append(p.Rules, *r)
			if c.Cur().Kind != syntax.EOF {
				if err := c.Eat(";"); err != nil {
					return nil, fmt.Errorf("rule %s: %w", r.Name, err)
				}
			}
		}
		if len(p.Rules) == 0 {
			return nil, fmt.Errorf("empty program")
		}
		return p, nil
	})
}

// MustParse is Parse panicking on error.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseQuery parses a single anonymous query (a MAKE/MATCH/WHERE block
// without a rule head, optionally ending in ';'), as typed at the mediator
// console (e.g. Q1).
func ParseQuery(src string) (*Rule, error) {
	return syntax.Parse(src, "yatl", func(c *syntax.Cursor) (*Rule, error) {
		r, err := body(c, "query", nil)
		if err == nil && c.IsPunct(";") {
			c.Next()
		}
		return r, err
	})
}

// MustParseQuery is ParseQuery panicking on error.
func MustParseQuery(src string) *Rule {
	r, err := ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return r
}

// rule parses `name(params) := body`.
func rule(c *syntax.Cursor) (*Rule, error) {
	name := c.Next()
	if name.Kind != syntax.Word {
		return nil, fmt.Errorf("expected rule name at offset %d", name.Pos)
	}
	if err := c.Eat("("); err != nil {
		return nil, fmt.Errorf("rule %s: %w", name.Text, err)
	}
	var params []string
	for !c.IsPunct(")") {
		t := c.Next()
		if t.Kind != syntax.Word && t.Kind != syntax.Var {
			return nil, fmt.Errorf("rule %s: expected parameter at offset %d", name.Text, t.Pos)
		}
		params = append(params, t.Text)
		if !c.IsPunct(")") {
			if err := c.Eat(","); err != nil {
				return nil, fmt.Errorf("rule %s: %w", name.Text, err)
			}
		}
	}
	c.Next()
	if err := c.Eat(":="); err != nil {
		return nil, fmt.Errorf("rule %s: %w", name.Text, err)
	}
	return body(c, name.Text, params)
}

// body parses `MAKE cons MATCH doc WITH filter {, doc WITH filter} [WHERE
// expr]`, handing the one token stream to the construction, filter and
// expression parsers in turn; each stops at the first token it cannot use.
func body(c *syntax.Cursor, name string, params []string) (*Rule, error) {
	keyword := func(kw string) error {
		if !c.IsKeyword(kw) {
			return fmt.Errorf("rule %s: expected %s: %w", name, kw, c.Unexpected())
		}
		c.Next()
		return nil
	}
	if err := keyword("MAKE"); err != nil {
		return nil, err
	}
	r := &Rule{Name: name, Params: params}
	cons, err := algebra.ParseConsNext(c)
	if err != nil {
		return nil, fmt.Errorf("rule %s MAKE: %w", name, err)
	}
	r.Make = cons
	if err := keyword("MATCH"); err != nil {
		return nil, err
	}
	for {
		doc := c.Next()
		if doc.Kind != syntax.Word {
			return nil, fmt.Errorf("rule %s: expected a document name at offset %d", name, doc.Pos)
		}
		if err := keyword("WITH"); err != nil {
			return nil, err
		}
		f, err := filter.ParseNext(c)
		if err != nil {
			return nil, fmt.Errorf("rule %s MATCH %s: %w", name, doc.Text, err)
		}
		r.Matches = append(r.Matches, Match{Doc: doc.Text, F: f})
		if !c.IsPunct(",") {
			break
		}
		c.Next()
	}
	if c.IsKeyword("WHERE") {
		c.Next()
		e, err := algebra.ParseExprNext(c)
		if err != nil {
			return nil, fmt.Errorf("rule %s WHERE: %w", name, err)
		}
		r.Where = e
	}
	return r, nil
}

// ---------------------------------------------------------------------------
// Algebraic translation (Section 3.2)
// ---------------------------------------------------------------------------

// Translate turns a rule into its algebraic plan, following the five
// translation steps of Section 3.2. The resulting shape for the view1 rule
// is exactly Figure 5: Bind leaves, per-input Selects, Joins for
// cross-input predicates, a Tree on top.
func Translate(r *Rule) (algebra.Op, error) {
	if len(r.Matches) == 0 {
		return nil, fmt.Errorf("yatl: rule %s has no inputs", r.Name)
	}
	conjuncts := algebra.SplitConj(orTrue(r.Where))
	used := make([]bool, len(conjuncts))

	// Step 1+2: one Bind per MATCH clause over its named document.
	plans := make([]algebra.Op, len(r.Matches))
	varsOf := make([]map[string]bool, len(r.Matches))
	for i, m := range r.Matches {
		plans[i] = &algebra.Bind{Doc: m.Doc, F: m.F}
		varsOf[i] = algebra.SetOf(m.F.Vars())
	}
	// Step 4 (applied early, as in Figure 5): single-input predicates
	// become Selects directly above their Bind.
	for i := range plans {
		var mine []algebra.Expr
		for ci, c := range conjuncts {
			if used[ci] {
				continue
			}
			if coveredBy(c, varsOf[i]) {
				mine = append(mine, c)
				used[ci] = true
			}
		}
		if len(mine) > 0 {
			plans[i] = &algebra.Select{From: plans[i], Pred: algebra.Conj(mine...)}
		}
	}
	// Step 3: fold the inputs left to right with Joins carrying the
	// cross-input predicates that become applicable.
	cur := plans[0]
	curVars := varsOf[0]
	for i := 1; i < len(plans); i++ {
		merged := algebra.SetUnion(curVars, varsOf[i])
		var preds []algebra.Expr
		for ci, c := range conjuncts {
			if used[ci] {
				continue
			}
			if coveredBy(c, merged) {
				preds = append(preds, c)
				used[ci] = true
			}
		}
		cur = &algebra.Join{L: cur, R: plans[i], Pred: algebra.Conj(preds...)}
		curVars = merged
	}
	// Any leftover predicate (e.g. referencing an unknown variable) is a
	// final Select so that evaluation reports the unbound variable.
	var rest []algebra.Expr
	for ci, c := range conjuncts {
		if !used[ci] {
			rest = append(rest, c)
		}
	}
	if len(rest) > 0 {
		cur = &algebra.Select{From: cur, Pred: algebra.Conj(rest...)}
	}
	// Step 5: MAKE translates into a Tree operation.
	return &algebra.TreeOp{From: cur, C: r.Make}, nil
}

func orTrue(e algebra.Expr) algebra.Expr {
	if e == nil {
		return algebra.TrueExpr()
	}
	return e
}

func coveredBy(e algebra.Expr, vars map[string]bool) bool {
	for _, v := range e.Vars() {
		if !vars[v] {
			return false
		}
	}
	return true
}
