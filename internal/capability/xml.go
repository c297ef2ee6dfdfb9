package capability

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/data"
	"repro/internal/pattern"
	"repro/internal/xmlenc"
)

// XML serialization in the Figure 6 dialect:
//
//	<interface name="o2artifact">
//	  <fmodel name="o2fmodel">
//	    <fpattern name="Fclass">
//	      <node label="class" bind="tree">
//	        <node label="Symbol" bind="none" inst="ground">
//	          <ref pattern="Ftype"/></node></node>
//	    </fpattern>
//	  </fmodel>
//	  <bindcap doc="artifacts" fmodel="o2fmodel" fpattern="Fextent"/>
//	  <operation name="bind" kind="algebra">
//	    <input><value model="o2model" pattern="Type"/>
//	           <filter model="o2fmodel" pattern="Ftype"/></input>
//	    <output><value model="yat" pattern="Tab"/></output>
//	  </operation>
//	  <equivalence name="contains-eq" from="eq" to="contains" scope="Fwork"/>
//	</interface>
//
// Fpattern elements: <node>, <leaf label="Int"/>, <star inst=...>, <union>,
// <ref pattern=...>, <any/>.

// FTToXML serializes an Fpattern node.
func FTToXML(f *FT) *data.Node {
	switch f.Kind {
	case pattern.KAny:
		return data.Elem("any")
	case pattern.KInt:
		return leafXML("Int")
	case pattern.KFloat:
		return leafXML("Float")
	case pattern.KBool:
		return leafXML("Bool")
	case pattern.KString:
		return leafXML("String")
	case pattern.KRef:
		n := data.Elem("ref")
		n.Add(data.Text("@pattern", f.Name))
		if f.Bind != BindAny {
			n.Add(data.Text("@bind", f.Bind.String()))
		}
		return n
	case pattern.KUnion:
		n := data.Elem("union")
		for _, a := range f.Alts {
			n.Add(FTToXML(a))
		}
		return n
	case pattern.KNode:
		n := data.Elem("node")
		label := f.Label
		if f.AnyLabel {
			label = "Symbol"
		}
		n.Add(data.Text("@label", label))
		if f.Col != pattern.ColNone {
			n.Add(data.Text("@col", f.Col.String()))
		}
		if f.Bind != BindAny {
			n.Add(data.Text("@bind", f.Bind.String()))
		}
		if f.Inst != InstAny {
			n.Add(data.Text("@inst", f.Inst.String()))
		}
		for _, it := range f.Items {
			kid := FTToXML(it.F)
			if it.Star {
				star := data.Elem("star", kid)
				if it.Inst != InstAny {
					star.Kids = append([]*data.Node{data.Text("@inst", it.Inst.String())}, star.Kids...)
				}
				kid = star
			}
			n.Add(kid)
		}
		return n
	default:
		return data.Elem("any")
	}
}

func leafXML(label string) *data.Node {
	n := data.Elem("leaf")
	n.Add(data.Text("@label", label))
	return n
}

// FTFromXML parses an Fpattern node.
func FTFromXML(n *data.Node) (*FT, error) {
	if n == nil {
		return nil, fmt.Errorf("capability: nil fpattern element")
	}
	switch n.Label {
	case "any":
		return &FT{Kind: pattern.KAny}, nil
	case "leaf":
		switch n.Attr("label") {
		case "Int":
			return &FT{Kind: pattern.KInt}, nil
		case "Float":
			return &FT{Kind: pattern.KFloat}, nil
		case "Bool":
			return &FT{Kind: pattern.KBool}, nil
		case "String":
			return &FT{Kind: pattern.KString}, nil
		default:
			return nil, fmt.Errorf("capability: unknown leaf label %q", n.Attr("label"))
		}
	case "ref", "value":
		name := n.Attr("pattern")
		if name == "" {
			return nil, fmt.Errorf("capability: <%s> without pattern attribute", n.Label)
		}
		return &FT{Kind: pattern.KRef, Name: name, Bind: BindFlagFromString(n.Attr("bind"))}, nil
	case "union":
		u := &FT{Kind: pattern.KUnion}
		for _, k := range n.Kids {
			if k.IsAttr() {
				continue
			}
			a, err := FTFromXML(k)
			if err != nil {
				return nil, err
			}
			u.Alts = append(u.Alts, a)
		}
		return u, nil
	case "node":
		f := &FT{
			Kind:  pattern.KNode,
			Label: n.Attr("label"),
			Col:   pattern.ColFromString(n.Attr("col")),
			Bind:  BindFlagFromString(n.Attr("bind")),
			Inst:  InstFlagFromString(n.Attr("inst")),
		}
		if f.Label == "Symbol" {
			f.Label, f.AnyLabel = "", true
		}
		for _, k := range n.Kids {
			if k.IsAttr() {
				continue
			}
			it := FTItem{}
			src := k
			if k.Label == "star" {
				it.Star = true
				it.Inst = InstFlagFromString(k.Attr("inst"))
				src = k.FirstElem()
				if src == nil {
					return nil, fmt.Errorf("capability: empty <star>")
				}
			}
			sub, err := FTFromXML(src)
			if err != nil {
				return nil, err
			}
			it.F = sub
			f.Items = append(f.Items, it)
		}
		return f, nil
	default:
		return nil, fmt.Errorf("capability: unknown fpattern element <%s>", n.Label)
	}
}

// ToXML serializes the full interface.
func ToXML(i *Interface) *data.Node {
	root := data.Elem("interface")
	root.Add(data.Text("@name", i.Name))
	for _, m := range i.FModels {
		me := data.Elem("fmodel")
		me.Add(data.Text("@name", m.Name))
		for _, name := range m.Order {
			pe := data.Elem("fpattern")
			pe.Add(data.Text("@name", name))
			pe.Add(FTToXML(m.Defs[name]))
			me.Add(pe)
		}
		root.Add(me)
	}
	// Deterministic order for bind capabilities.
	var docs []string
	for d := range i.Binds {
		docs = append(docs, d)
	}
	sort.Strings(docs)
	for _, d := range docs {
		bc := i.Binds[d]
		be := data.Elem("bindcap")
		be.Add(data.Text("@doc", d))
		be.Add(data.Text("@fmodel", bc.FModel))
		be.Add(data.Text("@fpattern", bc.FPattern))
		root.Add(be)
	}
	// Structural schemas ride along as their textual model form.
	var sdocs []string
	for d := range i.Structures {
		sdocs = append(sdocs, d)
	}
	sort.Strings(sdocs)
	for _, d := range sdocs {
		ref := i.Structures[d]
		if ref.Model == nil {
			continue
		}
		se := data.Elem("structure")
		se.Add(data.Text("@doc", d))
		se.Add(data.Text("@pattern", ref.Pattern))
		se.Add(data.Text("model", ref.Model.String()))
		root.Add(se)
	}
	for _, op := range i.Operations {
		oe := data.Elem("operation")
		oe.Add(data.Text("@name", op.Name))
		oe.Add(data.Text("@kind", op.Kind))
		if len(op.Docs) > 0 {
			oe.Add(data.Text("@docs", strings.Join(op.Docs, " ")))
		}
		if len(op.Inputs) > 0 {
			in := data.Elem("input")
			for _, s := range op.Inputs {
				in.Add(sigToXML(s))
			}
			oe.Add(in)
		}
		if op.Output != nil {
			oe.Add(data.Elem("output", sigToXML(*op.Output)))
		}
		root.Add(oe)
	}
	for _, eq := range i.Equivalences {
		ee := data.Elem("equivalence")
		ee.Add(data.Text("@name", eq.Name))
		ee.Add(data.Text("@from", eq.From))
		ee.Add(data.Text("@to", eq.To))
		ee.Add(data.Text("@scope", eq.Scope))
		root.Add(ee)
	}
	return root
}

func sigToXML(s Sig) *data.Node {
	label := "value"
	if s.IsFilter {
		label = "filter"
	}
	if s.Leaf != "" {
		n := data.Elem("leaf")
		n.Add(data.Text("@label", s.Leaf))
		return n
	}
	n := data.Elem(label)
	if s.Model != "" {
		n.Add(data.Text("@model", s.Model))
	}
	n.Add(data.Text("@pattern", s.Pattern))
	return n
}

// FromXML parses an interface description. Malformed elements fail here,
// naming the interface and the offending element, so an import surfaces the
// problem at connect time instead of as an opaque planning failure later.
func FromXML(n *data.Node) (*Interface, error) {
	if n == nil || n.Label != "interface" {
		return nil, fmt.Errorf("capability: expected <interface>")
	}
	name := n.Attr("name")
	where := func(elem string) string {
		return fmt.Sprintf("capability: interface %q: %s", name, elem)
	}
	i := NewInterface(name)
	for _, k := range n.Kids {
		switch k.Label {
		case "fmodel":
			m := NewFModel(k.Attr("name"))
			for _, pe := range k.Kids {
				if pe.Label != "fpattern" {
					continue
				}
				body := pe.FirstElem()
				if body == nil {
					return nil, fmt.Errorf("%s: empty <fpattern %q>", where(fmt.Sprintf("fmodel %q", k.Attr("name"))), pe.Attr("name"))
				}
				ft, err := FTFromXML(body)
				if err != nil {
					return nil, fmt.Errorf("%s: fpattern %q: %w", where(fmt.Sprintf("fmodel %q", k.Attr("name"))), pe.Attr("name"), err)
				}
				m.Define(pe.Attr("name"), ft)
			}
			i.FModels = append(i.FModels, m)
		case "bindcap":
			if k.Attr("doc") == "" {
				return nil, fmt.Errorf("%s without doc attribute", where("<bindcap>"))
			}
			i.Binds[k.Attr("doc")] = BindCap{FModel: k.Attr("fmodel"), FPattern: k.Attr("fpattern")}
		case "structure":
			me := k.Child("model")
			if me == nil || me.Atom == nil || strings.TrimSpace(me.Atom.S) == "" {
				return nil, fmt.Errorf("%s without model text", where(fmt.Sprintf("<structure doc=%q>", k.Attr("doc"))))
			}
			m, err := pattern.ParseModel(me.Atom.S)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", where(fmt.Sprintf("<structure doc=%q>", k.Attr("doc"))), err)
			}
			i.Structures[k.Attr("doc")] = StructureRef{Model: m, Pattern: k.Attr("pattern")}
		case "operation":
			op := Operation{Name: k.Attr("name"), Kind: k.Attr("kind")}
			if op.Name == "" {
				return nil, fmt.Errorf("%s without name attribute", where("<operation>"))
			}
			if op.Kind == "" {
				return nil, fmt.Errorf("%s without kind attribute", where(fmt.Sprintf("<operation name=%q>", op.Name)))
			}
			if ds := k.Attr("docs"); ds != "" {
				op.Docs = strings.Fields(ds)
			}
			if in := k.Child("input"); in != nil {
				for _, s := range in.Kids {
					if s.IsAttr() {
						continue
					}
					op.Inputs = append(op.Inputs, sigFromXML(s))
				}
			}
			if out := k.Child("output"); out != nil {
				if s := out.FirstElem(); s != nil {
					sig := sigFromXML(s)
					op.Output = &sig
				}
			}
			i.Operations = append(i.Operations, op)
		case "equivalence":
			i.Equivalences = append(i.Equivalences, Equivalence{
				Name:  k.Attr("name"),
				From:  k.Attr("from"),
				To:    k.Attr("to"),
				Scope: k.Attr("scope"),
			})
		}
	}
	return i, nil
}

func sigFromXML(n *data.Node) Sig {
	if n.Label == "leaf" {
		return Sig{Leaf: n.Attr("label")}
	}
	return Sig{
		Model:    n.Attr("model"),
		Pattern:  n.Attr("pattern"),
		IsFilter: n.Label == "filter",
	}
}

// Marshal renders the interface as indented XML.
func Marshal(i *Interface) string { return xmlenc.SerializeIndent(ToXML(i)) }

// Unmarshal parses an interface from XML text.
func Unmarshal(src string) (*Interface, error) {
	n, err := xmlenc.Parse(src)
	if err != nil {
		return nil, err
	}
	return FromXML(n)
}
