package tab

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/data"
	"repro/internal/xmlenc"
)

// XML serialization of Tab structures, used by the wire protocol when a
// wrapper ships the result of a pushed query back to the mediator. The
// format is self-describing:
//
//	<tab cols="$t $a">
//	  <row>
//	    <atom type="String">Nympheas</atom>
//	    <tree><work>...</work></tree>
//	  </row>
//	</tab>
//
// Cell elements are <null/>, <atom type=...>, <tree>, <seq> or a nested
// <tab>.

// ToXML converts the Tab to its XML tree, built in one data.Block sized
// exactly from the tab.
func ToXML(t *Tab) *data.Node {
	b := data.NewBlock(xmlCount(t))
	return toXML(&b, t)
}

// xmlCount returns the numbers of nodes, atoms and child pointers in the
// XML tree of t.
func xmlCount(t *Tab) (nodes, atoms, kids int) {
	nodes, atoms, kids = 2+len(t.Rows), 1, 1+len(t.Rows) // <tab>, @cols, rows
	for _, r := range t.Rows {
		nodes, kids = nodes+len(r), kids+len(r)
		for _, c := range r {
			switch c.Kind {
			case CAtom: // and its @type attribute
				nodes, atoms, kids = nodes+1, atoms+2, kids+1
			case CTree:
				kids++
			case CSeq:
				kids += len(c.Seq)
			case CTab:
				n, a, k := xmlCount(c.Tab)
				nodes, atoms, kids = nodes+n-1, atoms+a, kids+k
			}
		}
	}
	return nodes, atoms, kids
}

func toXML(b *data.Block, t *Tab) *data.Node {
	root := b.Elem("tab")
	root.Kids = b.List(1 + len(t.Rows))
	root.Kids[0] = b.Leaf("@cols", data.String(strings.Join(t.Cols, " ")))
	for i, r := range t.Rows {
		row := b.Elem("row")
		row.Kids = b.List(len(r))
		for j, c := range r {
			row.Kids[j] = cellToXML(b, c)
		}
		root.Kids[1+i] = row
	}
	return root
}

func cellToXML(b *data.Block, c Cell) *data.Node {
	switch c.Kind {
	case CAtom:
		n := b.Elem("atom", b.Leaf("@type", data.String(c.Atom.Kind.String())))
		n.Atom = b.Atom(c.Atom)
		return n
	case CTree:
		return b.Elem("tree", c.Tree)
	case CSeq:
		return b.Elem("seq", c.Seq...)
	case CTab:
		return toXML(b, c.Tab)
	default:
		return b.Elem("null")
	}
}

// FromXML parses a Tab from its XML tree.
func FromXML(n *data.Node) (*Tab, error) {
	if n == nil || n.Label != "tab" {
		return nil, fmt.Errorf("tab: expected <tab> element, got %v", n)
	}
	var cols []string
	if s := n.Attr("cols"); s != "" {
		cols = splitFields(s)
	}
	t := New(cols...)
	for _, k := range n.Kids {
		if k.Label != "row" {
			continue
		}
		row := make(Row, 0, len(cols))
		for _, cn := range k.Kids {
			if cn.IsAttr() {
				continue
			}
			c, err := cellFromXML(cn)
			if err != nil {
				return nil, err
			}
			row = append(row, c)
		}
		if len(row) != len(cols) {
			return nil, fmt.Errorf("tab: row with %d cells for %d columns", len(row), len(cols))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func cellFromXML(n *data.Node) (Cell, error) {
	switch n.Label {
	case "null":
		return Null(), nil
	case "atom":
		typ := n.Attr("type")
		text := ""
		if n.Atom != nil {
			text = n.Atom.Text()
		} else {
			// The parser keeps the text as an unlabeled child when the
			// element also carries attributes.
			for _, k := range n.Kids {
				if k.Label == "" && k.Atom != nil {
					text = k.Atom.Text()
					break
				}
			}
		}
		switch typ {
		case "Int":
			v, err := strconv.ParseInt(text, 10, 64)
			if err != nil {
				return Null(), fmt.Errorf("tab: bad Int atom %q", text)
			}
			return AtomCell(data.Int(v)), nil
		case "Float":
			v, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return Null(), fmt.Errorf("tab: bad Float atom %q", text)
			}
			return AtomCell(data.Float(v)), nil
		case "Bool":
			return AtomCell(data.Bool(text == "true")), nil
		case "String":
			return AtomCell(data.String(text)), nil
		default:
			return Null(), fmt.Errorf("tab: unknown atom type %q", typ)
		}
	case "tree":
		body := n.FirstElem()
		if body == nil {
			return Null(), fmt.Errorf("tab: empty <tree> cell")
		}
		return TreeCell(body), nil
	case "seq":
		var f data.Forest
		for _, k := range n.Kids {
			if !k.IsAttr() {
				f = append(f, k)
			}
		}
		return SeqCell(f), nil
	case "tab":
		nested, err := FromXML(n)
		if err != nil {
			return Null(), err
		}
		return TabCell(nested), nil
	default:
		return Null(), fmt.Errorf("tab: unknown cell element <%s>", n.Label)
	}
}

func splitFields(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ' ' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return out
}

// Marshal renders the Tab as an XML string.
func Marshal(t *Tab) string { return xmlenc.Serialize(ToXML(t)) }

// Unmarshal parses a Tab from an XML string.
func Unmarshal(src string) (*Tab, error) {
	n, err := xmlenc.Parse(src)
	if err != nil {
		return nil, err
	}
	return FromXML(n)
}
