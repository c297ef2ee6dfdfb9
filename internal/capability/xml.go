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
// An Fpattern is written in pattern's own XML dialect (pattern.ToXML), flag
// attributes included. Bind capabilities and structures are written in
// document order; a structure rides along as its model's text (see
// StructuresToXML).

// ToXML serializes the full interface.
func ToXML(i *Interface) *data.Node {
	root := data.Elem("interface")
	root.Add(data.Text("@name", i.Name))
	for _, m := range i.FModels {
		me := data.Elem("fmodel")
		me.Add(data.Text("@name", m.Name))
		for _, name := range m.Roots {
			pe := data.Elem("fpattern")
			pe.Add(data.Text("@name", name))
			pe.Add(pattern.ToXML(m.Defs[name]))
			me.Add(pe)
		}
		root.Add(me)
	}
	for _, d := range sortedKeys(i.Binds) {
		bc := i.Binds[d]
		be := data.Elem("bindcap")
		be.Add(data.Text("@doc", d))
		be.Add(data.Text("@fmodel", bc.FModel))
		be.Add(data.Text("@fpattern", bc.FPattern))
		root.Add(be)
	}
	root.Add(StructuresToXML(i.Structures).Kids...)
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
			m := pattern.NewModel(k.Attr("name"))
			for _, pe := range k.Kids {
				if pe.Label != "fpattern" {
					continue
				}
				body := pe.FirstElem()
				if body == nil {
					return nil, fmt.Errorf("%s: empty <fpattern %q>", where(fmt.Sprintf("fmodel %q", k.Attr("name"))), pe.Attr("name"))
				}
				ft, err := pattern.FromXML(body)
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
			doc, ref, err := StructureFromXML(k)
			if err != nil {
				return nil, fmt.Errorf("capability: interface %q: %w", name, err)
			}
			i.Structures[doc] = ref
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

// StructuresToXML returns a <structures> element holding, in document order,
// one <structure doc=… pattern=…><model>text</model></structure> per
// document that has a model: the one encoding of structures, inside an
// interface and in the wire's <structures-request/> reply.
func StructuresToXML(structures map[string]StructureRef) *data.Node {
	root := data.Elem("structures")
	for _, doc := range sortedKeys(structures) {
		ref := structures[doc]
		if ref.Model == nil {
			continue
		}
		se := data.Elem("structure")
		se.Add(data.Text("@doc", doc))
		se.Add(data.Text("@pattern", ref.Pattern))
		se.Add(data.Text("model", ref.Model.String()))
		root.Add(se)
	}
	return root
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// StructureFromXML reads one <structure> element written by StructuresToXML.
func StructureFromXML(n *data.Node) (doc string, ref StructureRef, err error) {
	doc = n.Attr("doc")
	me := n.Child("model")
	if me == nil || me.Atom == nil || strings.TrimSpace(me.Atom.S) == "" {
		return "", ref, fmt.Errorf("<structure doc=%q> without model text", doc)
	}
	m, err := pattern.ParseModel(me.Atom.S)
	if err != nil {
		return "", ref, fmt.Errorf("<structure doc=%q>: %w", doc, err)
	}
	return doc, StructureRef{Model: m, Pattern: n.Attr("pattern")}, nil
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
