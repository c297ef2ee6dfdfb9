package algebra

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/syntax"
)

// Textual syntaxes for construction patterns and predicate expressions.
//
// Construction (the MAKE side of YATL, Figure 4's Tree argument):
//
//	doc[ *artwork($t, $c) := work[ title: $t, artist: $a, owners[ *$o ],
//	                               more: $fields ] ]
//	artists[ *($a) artist[ name: $a, *($t) title: $t ] ]
//	owner: &person($o)                 — a reference to a Skolem-built tree
//
// Expressions (WHERE clauses, Select predicates):
//
//	$y > 1800 AND $c = $a AND contains($w, "Impressionist")
//
// Tokens are internal/syntax's.

type aparser struct{ *syntax.Cursor }

// ParseCons parses a construction pattern.
func ParseCons(src string) (*Cons, error) { return syntax.Parse(src, "parse", ParseConsNext) }

// ParseConsNext parses the construction starting at c's current token and
// stops at the first token it cannot use; YAT_L's MAKE clause embeds a
// construction this way.
func ParseConsNext(c *syntax.Cursor) (*Cons, error) { return (&aparser{c}).cons() }

// MustParseCons is ParseCons panicking on error.
func MustParseCons(src string) *Cons {
	c, err := ParseCons(src)
	if err != nil {
		panic(err)
	}
	return c
}

func (p *aparser) cons() (*Cons, error) {
	c := &Cons{}
	// Skolem head: NAME ( vars ) :=
	if p.Cur().Kind == syntax.Word && p.Peek().Kind == syntax.Punct && p.Peek().Text == "(" {
		name := p.Next().Text
		p.Next()
		args, err := p.varList()
		if err != nil {
			return nil, err
		}
		if err := p.Eat(")"); err != nil {
			return nil, err
		}
		if err := p.Eat(":="); err != nil {
			return nil, err
		}
		body, err := p.cons()
		if err != nil {
			return nil, err
		}
		body.Skolem = name
		body.SkolemArgs = args
		return body, nil
	}
	if a, ok, err := p.Literal(); ok {
		c.Const = &a
		return c, err
	}
	t := p.Cur()
	switch {
	case p.IsPunct("&"):
		p.Next()
		n := p.Next()
		if n.Kind != syntax.Word {
			return nil, fmt.Errorf("expected Skolem name after '&' at offset %d", n.Pos)
		}
		if err := p.Eat("("); err != nil {
			return nil, err
		}
		args, err := p.varList()
		if err != nil {
			return nil, err
		}
		if err := p.Eat(")"); err != nil {
			return nil, err
		}
		c.RefTo = n.Text
		c.RefArgs = args
		return c, nil
	case t.Kind == syntax.Var:
		p.Next()
		c.Var = t.Text
		return c, nil
	case p.IsPunct("~"):
		p.Next()
		v := p.Next()
		if v.Kind != syntax.Var {
			return nil, fmt.Errorf("expected variable after '~' at offset %d", v.Pos)
		}
		c.LabelVar = v.Text
	case t.Kind == syntax.Word:
		p.Next()
		c.Label = t.Text
	default:
		return nil, p.Unexpected()
	}
	// tail
	switch {
	case p.IsPunct("["):
		p.Next()
		for !p.IsPunct("]") {
			it, err := p.consItem()
			if err != nil {
				return nil, err
			}
			c.Kids = append(c.Kids, it)
			if p.IsPunct(",") {
				p.Next()
				continue
			}
			break
		}
		if err := p.Eat("]"); err != nil {
			return nil, err
		}
	case p.IsPunct(":"):
		p.Next()
		kid, err := p.cons()
		if err != nil {
			return nil, err
		}
		c.Kids = append(c.Kids, ConsItem{C: kid})
	}
	// A single unstarred `$v` or constant child is attached directly:
	// `label: $v` and `label[ $v ]` build the same tree and both print as
	// the former, so printing and re-reading is a fixpoint.
	if len(c.Kids) == 1 && !c.Kids[0].Star {
		if k := c.Kids[0].C; k.Label == "" && k.LabelVar == "" && k.Skolem == "" && k.RefTo == "" && len(k.Kids) == 0 {
			c.Var, c.Const, c.Kids = k.Var, k.Const, nil
		}
	}
	return c, nil
}

func (p *aparser) consItem() (ConsItem, error) {
	it := ConsItem{}
	if p.IsPunct("*") {
		p.Next()
		it.Star = true
		if p.IsPunct("(") {
			p.Next()
			keys, err := p.varList()
			if err != nil {
				return it, err
			}
			if err := p.Eat(")"); err != nil {
				return it, err
			}
			it.Keys = keys
		}
	}
	c, err := p.cons()
	if err != nil {
		return it, err
	}
	it.C = c
	return it, nil
}

func (p *aparser) varList() ([]string, error) {
	var out []string
	for {
		t := p.Cur()
		if t.Kind != syntax.Var {
			if len(out) == 0 && p.IsPunct(")") {
				return out, nil
			}
			return nil, fmt.Errorf("expected variable at offset %d", t.Pos)
		}
		out = append(out, t.Text)
		p.Next()
		if p.IsPunct(",") {
			p.Next()
			continue
		}
		return out, nil
	}
}

// ---------------------------------------------------------------------------
// Expression parser
// ---------------------------------------------------------------------------

// ParseExpr parses a predicate/value expression.
func ParseExpr(src string) (Expr, error) { return syntax.Parse(src, "parse", ParseExprNext) }

// ParseExprNext parses the expression starting at c's current token and
// stops at the first token it cannot use; YAT_L's WHERE clause embeds an
// expression this way.
func ParseExprNext(c *syntax.Cursor) (Expr, error) { return (&aparser{c}).orExpr() }

// MustParseExpr is ParseExpr panicking on error.
func MustParseExpr(src string) Expr {
	e, err := ParseExpr(src)
	if err != nil {
		panic(err)
	}
	return e
}

func (p *aparser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.IsKeyword("OR") {
		p.Next()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = Or{l, r}
	}
	return l, nil
}

func (p *aparser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.IsKeyword("AND") {
		p.Next()
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = And{l, r}
	}
	return l, nil
}

func (p *aparser) notExpr() (Expr, error) {
	if p.IsKeyword("NOT") {
		p.Next()
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return Not{e}, nil
	}
	return p.cmpExpr()
}

func (p *aparser) cmpExpr() (Expr, error) {
	l, err := p.sumExpr()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"<=", ">=", "!=", "=", "<", ">"} {
		if p.IsPunct(op) {
			p.Next()
			r, err := p.sumExpr()
			if err != nil {
				return nil, err
			}
			return Cmp{Op: CmpOp(op), L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *aparser) sumExpr() (Expr, error) {
	l, err := p.termExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.IsPunct("+"):
			p.Next()
			r, err := p.termExpr()
			if err != nil {
				return nil, err
			}
			l = Arith{Op: OpAdd, L: l, R: r}
		case p.IsPunct("-"):
			p.Next()
			r, err := p.termExpr()
			if err != nil {
				return nil, err
			}
			l = Arith{Op: OpSub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *aparser) termExpr() (Expr, error) {
	l, err := p.factorExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.IsPunct("*"):
			p.Next()
			r, err := p.factorExpr()
			if err != nil {
				return nil, err
			}
			l = Arith{Op: OpMul, L: l, R: r}
		case p.IsPunct("/"):
			p.Next()
			r, err := p.factorExpr()
			if err != nil {
				return nil, err
			}
			l = Arith{Op: OpDiv, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *aparser) factorExpr() (Expr, error) {
	t := p.Cur()
	switch {
	case p.IsPunct("("):
		p.Next()
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if err := p.Eat(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == syntax.Var:
		p.Next()
		return Var{t.Text}, nil
	case p.IsPunct("-"): // an operator here, never the sign of a constant
		p.Next()
		e, err := p.factorExpr()
		if err != nil {
			return nil, err
		}
		return Arith{Op: OpSub, L: Const{data.Int(0)}, R: e}, nil
	case p.IsKeyword("true"):
		p.Next()
		return Const{data.Bool(true)}, nil
	case p.IsKeyword("false"):
		p.Next()
		return Const{data.Bool(false)}, nil
	case t.Kind == syntax.Word && !p.IsKeyword("NOT") && !p.IsKeyword("AND") && !p.IsKeyword("OR"):
		p.Next()
		if err := p.Eat("("); err != nil {
			return nil, fmt.Errorf("expected '(' after function %s at offset %d", t.Text, t.Pos)
		}
		var args []Expr
		for !p.IsPunct(")") {
			a, err := p.orExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.IsPunct(",") {
				p.Next()
			}
		}
		p.Next()
		return Call{Name: t.Text, Args: args}, nil
	}
	if a, ok, err := p.Literal(); ok {
		return Const{a}, err
	}
	return nil, p.Unexpected()
}
