package pattern

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/syntax"
)

// The textual pattern syntax, used throughout tests and by the mediator
// console. It mirrors the graphical notation of Figure 3:
//
//	Artifact := class[ tuple[ title: String, year: Int, creator: String,
//	                          price: Float, owners: list[ *&Person ] ] ]
//	Type     := ( Int | Bool | Float | String | tuple[ *Symbol: &Type ]
//	            | set[ *&Type ] | &Class )
//
// `*` marks multiple occurrence, `&Name` references a named pattern,
// `( a | b )` is an alternative, `Symbol` is the any-label wildcard, and
// `label: p` abbreviates `label[ p ]`. The labels set/bag/list/array carry
// their collection kind.

// Tokens are internal/syntax's; an attribute label such as @id is an "@"
// glued to a word.

type parser struct{ *syntax.Cursor }

// ParsePattern parses a single pattern in the textual syntax.
func ParsePattern(src string) (*P, error) {
	return syntax.Parse(src, "pattern", func(c *syntax.Cursor) (*P, error) { return (&parser{c}).pattern() })
}

// MustParse is ParsePattern panicking on error; for fixtures and tests.
func MustParse(src string) *P {
	p, err := ParsePattern(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseModel parses a model definition:
//
//	model name
//	Name := pattern
//	...
func ParseModel(src string) (*Model, error) {
	return syntax.Parse(src, "pattern", func(c *syntax.Cursor) (*Model, error) { return (&parser{c}).model() })
}

func (p *parser) model() (*Model, error) {
	if t := p.Next(); t.Kind != syntax.Word || t.Text != "model" {
		return nil, fmt.Errorf("expected 'model' at offset %d", t.Pos)
	}
	nameTok := p.Next()
	if nameTok.Kind != syntax.Word {
		return nil, fmt.Errorf("expected model name at offset %d", nameTok.Pos)
	}
	m := NewModel(nameTok.Text)
	for p.Cur().Kind != syntax.EOF {
		def := p.Next()
		if def.Kind != syntax.Word {
			return nil, fmt.Errorf("expected definition name at offset %d", def.Pos)
		}
		if err := p.Eat(":="); err != nil {
			return nil, err
		}
		pat, err := p.pattern()
		if err != nil {
			return nil, err
		}
		m.Define(def.Text, pat)
	}
	return m, nil
}

// MustParseModel is ParseModel panicking on error.
func MustParseModel(src string) *Model {
	m, err := ParseModel(src)
	if err != nil {
		panic(err)
	}
	return m
}

func (p *parser) pattern() (*P, error) {
	t := p.Cur()
	switch {
	case t.Kind == syntax.String:
		p.Next()
		// A quoted name followed by '[' or ':' is a node label: XML names
		// may contain characters outside the identifier alphabet or collide
		// with reserved words, and String() quotes them (cf. writeLabel).
		// Quoted labels never carry reserved meaning — no Symbol wildcard,
		// no collection kind.
		if p.IsPunct("[") || p.IsPunct(":") {
			node := &P{Kind: KNode, Label: t.Text}
			if err := p.nodeSuffix(node); err != nil {
				return nil, err
			}
			return node, nil
		}
		return Const(data.String(t.Text)), nil
	case p.IsPunct("&"):
		p.Next()
		n := p.Next()
		if n.Kind != syntax.Word {
			return nil, fmt.Errorf("expected name after '&' at offset %d", n.Pos)
		}
		return Ref(n.Text), nil
	case p.IsPunct("("):
		p.Next()
		var alts []*P
		for {
			a, err := p.pattern()
			if err != nil {
				return nil, err
			}
			alts = append(alts, a)
			if p.IsPunct("|") {
				p.Next()
				continue
			}
			break
		}
		if err := p.Eat(")"); err != nil {
			return nil, err
		}
		if len(alts) == 1 {
			return alts[0], nil
		}
		return Union(alts...), nil
	case p.IsPunct("@") && p.Glued(syntax.Word):
		p.Next()
		node := &P{Kind: KNode, Label: "@" + p.Next().Text}
		return node, p.nodeSuffix(node)
	case t.Kind == syntax.Word:
		p.Next()
		switch t.Text {
		case "Int":
			return Int(), nil
		case "Float":
			return Float(), nil
		case "Bool":
			return Bool(), nil
		case "String":
			return Str(), nil
		case "Any":
			return Any(), nil
		case "true":
			return Const(data.Bool(true)), nil
		case "false":
			return Const(data.Bool(false)), nil
		}
		node := &P{Kind: KNode, Label: t.Text}
		if t.Text == "Symbol" {
			node.Label, node.AnyLabel = "", true
		}
		node.Col = ColFromString(t.Text)
		if err := p.nodeSuffix(node); err != nil {
			return nil, err
		}
		return node, nil
	}
	if a, ok, err := p.Literal(); ok {
		return Const(a), err
	}
	return nil, p.Unexpected()
}

// nodeSuffix parses a node's child sequence: `[ items ]`, the `label: p`
// scalar abbreviation, or nothing (a leaf node).
func (p *parser) nodeSuffix(node *P) error {
	switch {
	case p.IsPunct("["):
		p.Next()
		items, err := p.items()
		if err != nil {
			return err
		}
		node.Items = items
		return p.Eat("]")
	case p.IsPunct(":"):
		p.Next()
		kid, err := p.pattern()
		if err != nil {
			return err
		}
		node.Items = []Item{{P: kid}}
	}
	return nil
}

func (p *parser) items() ([]Item, error) {
	var items []Item
	if p.IsPunct("]") {
		return items, nil
	}
	for {
		star := false
		if p.IsPunct("*") {
			p.Next()
			star = true
		}
		pat, err := p.pattern()
		if err != nil {
			return nil, err
		}
		items = append(items, Item{P: pat, Star: star})
		if p.IsPunct(",") {
			p.Next()
			continue
		}
		return items, nil
	}
}
