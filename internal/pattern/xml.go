package pattern

import (
	"fmt"
	"strconv"

	"repro/internal/data"
	"repro/internal/xmlenc"
)

// XML serialization of patterns and models. Wrappers and mediators exchange
// structural metadata in XML (Section 2); the dialect here follows the
// Figure 6 conventions: <node label=... col=...>, <leaf label="Int"/>,
// <star>, <union>, <ref pattern=.../>, <any/>, plus <const> for data-level
// constants. Models serialize as <model name=...> with one <pattern name=...>
// element per definition.

// ToXML converts a pattern to its XML tree representation.
func ToXML(p *P) *data.Node {
	if p == nil {
		return data.Elem("nil")
	}
	switch p.Kind {
	case KAny:
		return data.Elem("any")
	case KInt, KFloat, KBool, KString:
		leaf := data.Elem("leaf")
		leaf.Add(data.Text("@label", kindLabel(p.Kind)))
		return leaf
	case KConst:
		c := data.Elem("const")
		c.Add(data.Text("@type", p.Const.Kind.String()))
		c.Add(data.Text("@value", p.Const.Text()))
		return c
	case KRef:
		r := data.Elem("ref")
		r.Add(data.Text("@pattern", p.Name))
		return r
	case KUnion:
		u := data.Elem("union")
		for _, a := range p.Alts {
			u.Add(ToXML(a))
		}
		return u
	case KNode:
		n := data.Elem("node")
		label := p.Label
		if p.AnyLabel {
			label = "Symbol"
		}
		n.Add(data.Text("@label", label))
		if p.Col != ColNone {
			n.Add(data.Text("@col", p.Col.String()))
		}
		for _, it := range p.Items {
			kid := ToXML(it.P)
			if it.Star {
				kid = data.Elem("star", kid)
			}
			n.Add(kid)
		}
		return n
	default:
		return data.Elem("nil")
	}
}

func kindLabel(k Kind) string {
	switch k {
	case KInt:
		return "Int"
	case KFloat:
		return "Float"
	case KBool:
		return "Bool"
	default:
		return "String"
	}
}

// FromXML converts an XML tree produced by ToXML back into a pattern.
func FromXML(n *data.Node) (*P, error) {
	if n == nil {
		return nil, fmt.Errorf("pattern: nil XML node")
	}
	switch n.Label {
	case "any":
		return Any(), nil
	case "nil":
		return nil, fmt.Errorf("pattern: nil pattern element")
	case "leaf":
		l := n.Attr("label")
		switch l {
		case "Int":
			return Int(), nil
		case "Float":
			return Float(), nil
		case "Bool":
			return Bool(), nil
		case "String":
			return Str(), nil
		default:
			return nil, fmt.Errorf("pattern: unknown leaf label %q", l)
		}
	case "const":
		return constFromXML(n)
	case "ref":
		name := n.Attr("pattern")
		if name == "" {
			return nil, fmt.Errorf("pattern: <ref> without pattern attribute")
		}
		return Ref(name), nil
	case "union":
		u := &P{Kind: KUnion}
		for _, k := range n.Kids {
			if k.IsAttr() {
				continue
			}
			a, err := FromXML(k)
			if err != nil {
				return nil, err
			}
			u.Alts = append(u.Alts, a)
		}
		return u, nil
	case "node":
		p := &P{Kind: KNode, Label: n.Attr("label")}
		if p.Label == "Symbol" {
			p.Label, p.AnyLabel = "", true
		}
		p.Col = ColFromString(n.Attr("col"))
		for _, k := range n.Kids {
			if k.IsAttr() {
				continue
			}
			star := false
			src := k
			if k.Label == "star" {
				star = true
				src = k.FirstElem()
				if src == nil {
					return nil, fmt.Errorf("pattern: empty <star>")
				}
			}
			kid, err := FromXML(src)
			if err != nil {
				return nil, err
			}
			p.Items = append(p.Items, Item{P: kid, Star: star})
		}
		return p, nil
	default:
		return nil, fmt.Errorf("pattern: unknown element <%s>", n.Label)
	}
}

func constFromXML(n *data.Node) (*P, error) {
	typ, val := n.Attr("type"), n.Attr("value")
	switch typ {
	case "Int":
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("pattern: bad Int const %q", val)
		}
		return Const(data.Int(v)), nil
	case "Float":
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("pattern: bad Float const %q", val)
		}
		return Const(data.Float(v)), nil
	case "Bool":
		return Const(data.Bool(val == "true")), nil
	case "String":
		return Const(data.String(val)), nil
	default:
		return nil, fmt.Errorf("pattern: unknown const type %q", typ)
	}
}

// ModelToXML serializes a model to its XML tree.
func ModelToXML(m *Model) *data.Node {
	root := data.Elem("model")
	root.Add(data.Text("@name", m.Name))
	for _, name := range m.Names() {
		pe := data.Elem("pattern")
		pe.Add(data.Text("@name", name))
		pe.Add(ToXML(m.Defs[name]))
		root.Add(pe)
	}
	return root
}

// ModelFromXML parses a model from its XML tree.
func ModelFromXML(n *data.Node) (*Model, error) {
	if n == nil || n.Label != "model" {
		return nil, fmt.Errorf("pattern: expected <model> element")
	}
	m := NewModel(n.Attr("name"))
	for _, k := range n.Kids {
		if k.Label != "pattern" {
			continue
		}
		name := k.Attr("name")
		body := k.FirstElem()
		if name == "" || body == nil {
			return nil, fmt.Errorf("pattern: malformed <pattern> element")
		}
		p, err := FromXML(body)
		if err != nil {
			return nil, fmt.Errorf("pattern %s: %w", name, err)
		}
		m.Define(name, p)
	}
	return m, nil
}

// MarshalModel renders the model as an XML string.
func MarshalModel(m *Model) string { return xmlenc.SerializeIndent(ModelToXML(m)) }

// UnmarshalModel parses a model from an XML string.
func UnmarshalModel(src string) (*Model, error) {
	n, err := xmlenc.Parse(src)
	if err != nil {
		return nil, err
	}
	return ModelFromXML(n)
}
