package filter

import (
	"fmt"

	"repro/internal/pattern"
	"repro/internal/syntax"
)

// The textual filter syntax, used by tests, the YATL translator and the
// mediator console. Examples (cf. the queries of Sections 2 and 5):
//
//	works[ *work[ artist: $a, title: $t, style: $s, size: $si, *($fields) ] ]
//	doc.work[ title: $t, more.cplace: $cl ]
//	set[ *class[ artifact.tuple[ title: $t, year: $y ] ] ]
//	person.tuple[ ~$attr: $v ]          — label variables (semistructured query)
//	work[ style: "Impressionist" ]      — constants
//	work[ price: $p@Float ]             — type filters
//	doc.**.technique: $x                — descent at any depth (GPE)
//	work@$w[ title: $t ]                — bind the work subtree itself to $w
//
// Tokens are internal/syntax's.

// Parse parses a filter in the textual syntax.
func Parse(src string) (*Filter, error) { return syntax.Parse(src, "filter", ParseNext) }

// ParseNext parses the filter starting at c's current token and stops at
// the first token it cannot use; YAT_L's MATCH clauses embed filters this way.
func ParseNext(c *syntax.Cursor) (*Filter, error) {
	root, err := (&fparser{c}).node()
	if err != nil {
		return nil, err
	}
	f := New(root)
	if err := validate(f); err != nil {
		return nil, err
	}
	return f, nil
}

type fparser struct{ *syntax.Cursor }

// MustParse is Parse panicking on error, for fixtures and tests.
func MustParse(src string) *Filter {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

func validate(f *Filter) error {
	seen := map[string]string{} // var -> kind ("tree","label","collect")
	var walk func(n *FNode) error
	record := func(v, kind string) error {
		if v == "" {
			return nil
		}
		if prev, ok := seen[v]; ok {
			return fmt.Errorf("variable %s bound twice (%s and %s); filters require distinct variables", v, prev, kind)
		}
		seen[v] = kind
		return nil
	}
	walk = func(n *FNode) error {
		if n == nil {
			return nil
		}
		if err := record(n.Var, "tree"); err != nil {
			return err
		}
		if err := record(n.LabelVar, "label"); err != nil {
			return err
		}
		for _, it := range n.Items {
			if err := record(it.CollectVar, "collect"); err != nil {
				return err
			}
			if it.CollectVar != "" && it.F != nil && it.F.HasVars() {
				return fmt.Errorf("collect-star *(%s) cannot bind inner variables", it.CollectVar)
			}
			if err := walk(it.F); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(f.Root)
}

// node parses one filter node including dotted descent and tails.
func (p *fparser) node() (*FNode, error) {
	n, err := p.head()
	if err != nil {
		return nil, err
	}
	cur := n
	for {
		switch {
		case p.IsPunct("."):
			p.Next()
			descend := false
			if p.IsPunct("**") {
				p.Next()
				descend = true
				if err := p.Eat("."); err != nil {
					return nil, err
				}
			}
			kid, err := p.head()
			if err != nil {
				return nil, err
			}
			cur.Items = append(cur.Items, FItem{F: kid, Descend: descend})
			cur = kid
		case p.IsPunct("["):
			p.Next()
			items, err := p.items()
			if err != nil {
				return nil, err
			}
			if err := p.Eat("]"); err != nil {
				return nil, err
			}
			cur.Items = append(cur.Items, items...)
			return n, nil
		case p.IsPunct(":"):
			p.Next()
			kid, err := p.node()
			if err != nil {
				return nil, err
			}
			cur.Items = append(cur.Items, FItem{F: kid})
			return n, nil
		default:
			return n, nil
		}
	}
}

// head parses the label/variable/constant/type core of a node.
func (p *fparser) head() (*FNode, error) {
	n := &FNode{}
	a, isConst, err := p.Literal()
	if err != nil {
		return nil, err
	}
	switch t := p.Cur(); {
	case isConst:
		n.Const = &a
	case t.Kind == syntax.Word:
		p.Next()
		n.Label = t.Text
	case t.Kind == syntax.Var:
		p.Next()
		n.Var = t.Text
	case p.IsPunct("%"):
		p.Next()
		n.AnyLabel = true
	case p.IsPunct("~"):
		p.Next()
		v := p.Next()
		if v.Kind != syntax.Var {
			return nil, fmt.Errorf("expected variable after '~' at offset %d", v.Pos)
		}
		n.LabelVar = v.Text
	case p.IsPunct("@"):
		// type-only content node, e.g. `owners: @Any`
	default:
		return nil, p.Unexpected()
	}
	// '@' suffixes: bind the node (@$v) or constrain its type (@T).
	for p.IsPunct("@") {
		p.Next()
		s := p.Next()
		switch s.Kind {
		case syntax.Var:
			if n.Var != "" {
				return nil, fmt.Errorf("node bound twice at offset %d", s.Pos)
			}
			n.Var = s.Text
		case syntax.Word:
			if n.Type != nil {
				return nil, fmt.Errorf("two type filters at offset %d", s.Pos)
			}
			n.Type = typeByName(s.Text)
		default:
			return nil, fmt.Errorf("expected variable or type after '@' at offset %d", s.Pos)
		}
	}
	return n, nil
}

func typeByName(name string) *pattern.P {
	switch name {
	case "Int":
		return pattern.Int()
	case "Float":
		return pattern.Float()
	case "Bool":
		return pattern.Bool()
	case "String":
		return pattern.Str()
	case "Any":
		return pattern.Any()
	default:
		return pattern.Ref(name)
	}
}

func (p *fparser) items() ([]FItem, error) {
	var items []FItem
	if p.IsPunct("]") {
		return items, nil
	}
	for {
		it := FItem{}
		switch {
		case p.IsPunct("*"):
			p.Next()
			if p.IsPunct("(") {
				p.Next()
				v := p.Next()
				if v.Kind != syntax.Var {
					return nil, fmt.Errorf("expected variable in *( ) at offset %d", v.Pos)
				}
				if err := p.Eat(")"); err != nil {
					return nil, err
				}
				it.CollectVar = v.Text
				it.Star = true
			} else {
				it.Star = true
				if p.IsPunct("**") {
					p.Next()
					it.Descend = true
				}
				f, err := p.node()
				if err != nil {
					return nil, err
				}
				it.F = f
			}
		case p.IsPunct("**"):
			p.Next()
			it.Descend = true
			f, err := p.node()
			if err != nil {
				return nil, err
			}
			it.F = f
		default:
			f, err := p.node()
			if err != nil {
				return nil, err
			}
			it.F = f
		}
		items = append(items, it)
		if p.IsPunct(",") {
			p.Next()
			continue
		}
		return items, nil
	}
}
