package pattern

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/data"
)

// XML serialization of patterns, the one codec of the pattern language:
// Fpatterns travel in it inside a capability interface, as Figure 6 writes
// them. The dialect is <node label=... col=... bind=... inst=...>,
// <leaf label="Int"/>, <star inst=...>, <union>, <ref pattern=... bind=.../>
// (also read when spelled <value pattern=.../>), <any/>, plus <const> for
// data-level constants. A flag attribute is written only when the flag is
// set, so a pattern without flags reads as it always did.

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
		if p.Bind != BindAny {
			r.Add(data.Text("@bind", p.Bind.String()))
		}
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
		if p.Bind != BindAny {
			n.Add(data.Text("@bind", p.Bind.String()))
		}
		if p.Inst != InstAny {
			n.Add(data.Text("@inst", p.Inst.String()))
		}
		for _, it := range p.Items {
			kid := ToXML(it.P)
			if it.Star {
				star := data.Elem("star")
				if it.Inst != InstAny {
					star.Add(data.Text("@inst", it.Inst.String()))
				}
				kid = star.Add(kid)
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
	case "ref", "value":
		name := n.Attr("pattern")
		if name == "" {
			return nil, fmt.Errorf("pattern: <%s> without pattern attribute", n.Label)
		}
		r := Ref(name)
		r.Bind = BindFlagFromString(n.Attr("bind"))
		return r, nil
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
		p.Bind = BindFlagFromString(n.Attr("bind"))
		p.Inst = InstFlagFromString(n.Attr("inst"))
		for _, k := range n.Kids {
			if k.IsAttr() {
				continue
			}
			it := Item{}
			src := k
			if k.Label == "star" {
				it.Star = true
				it.Inst = InstFlagFromString(k.Attr("inst"))
				src = k.FirstElem()
				if src == nil {
					return nil, fmt.Errorf("pattern: empty <star>")
				}
			}
			kid, err := FromXML(src)
			if err != nil {
				return nil, err
			}
			it.P = kid
			p.Items = append(p.Items, it)
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
		if err != nil || math.IsNaN(v) {
			// A NaN constant would equal no atom, itself included.
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
