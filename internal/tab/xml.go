package tab

import (
	"fmt"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/data"
	"repro/internal/xmlenc"
)

// XML serialization of Tab structures, used by the wire protocol when a
// wrapper ships the result of a pushed query back to the mediator, and by
// plan literals. There is one grammar:
//
//	<tab cols="$t $y $w" [bind="3"]>
//	  <col name="$t" type="String" v="8:Nympheas 15:Waterloo Bridge"/>
//	  <col name="$y" type="Int" v="1897 1903"/>
//	  <row><tree><work>...</work></tree></row>
//	  <row><null/></row>
//	</tab>
//
// A column of two or more rows whose cells are all atoms of one kind is one
// <col>: its values in row order in one attribute, separated by one space —
// an Int or Float as strconv formats it, a Bool as true or false, a String as
// its length in bytes, a colon and its bytes, so that any byte (a space
// included) comes back as it was sent. The other columns stay per cell, in
// cols order, one <row> per row: <null/>, <atom type=… v=…/>, <tree>, <seq>
// or a nested <tab>. A tab whose columns are all <col>s writes no <row>; its
// rows are its values. A column of one row stays per cell: there a <col>
// costs more bytes (its name, a String's length) and more parsed nodes than
// the one cell it would replace. Either way an atom travels in an attribute,
// which the parser keeps exactly where it trims and collapses element text,
// so an atom keeps its text across the wire.
//
// The reader takes any mix of <col>s and per-cell columns, in any order of
// <col>s. The form before the column one is the case with no <col>, whose
// atom cells carry their text as element content (<atom type="Int">7</atom>),
// trimmed and collapsed as the parser leaves it.

// AppendXML appends the XML text of t to dst and returns the extended
// buffer; bind, when positive, is written as the tab's bind attribute. It is
// the one writer: Marshal and ToXML are built on it, and the wire appends a
// reply's tabs and a request's bindings straight into the frame with it.
func AppendXML(dst []byte, t *Tab, bind int) []byte {
	dst = append(dst, `<tab cols="`...)
	for i, c := range t.Cols {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = xmlenc.AppendEscaped(dst, c)
	}
	dst = append(dst, '"')
	if bind > 0 {
		dst = append(strconv.AppendInt(append(dst, ` bind="`...), int64(bind), 10), '"')
	}
	if len(t.Rows) == 0 {
		return append(dst, "/>"...)
	}
	dst = append(dst, '>')
	var stack [16]bool
	columnar := stack[:]
	if len(t.Cols) > len(stack) {
		columnar = make([]bool, len(t.Cols))
	}
	perCell := len(t.Cols) == 0 // a tab without columns still writes its rows
	for j, name := range t.Cols {
		kind, ok := atomColumn(t.Rows, j)
		if columnar[j] = ok && len(t.Rows) > 1; columnar[j] {
			dst = appendCol(dst, name, kind, t.Rows, j)
		} else {
			perCell = true
		}
	}
	if perCell {
		for _, r := range t.Rows {
			dst = append(dst, "<row>"...)
			for j, c := range r {
				if j >= len(t.Cols) || !columnar[j] {
					dst = appendCell(dst, c)
				}
			}
			dst = append(dst, "</row>"...)
		}
	}
	return append(dst, "</tab>"...)
}

// atomColumn reports whether column j holds an atom of one kind in every
// row, and which kind.
func atomColumn(rows []Row, j int) (data.AtomKind, bool) {
	kind := rows[0][j].Atom.Kind
	for _, r := range rows {
		if j >= len(r) || r[j].Kind != CAtom || r[j].Atom.Kind != kind {
			return 0, false
		}
	}
	return kind, true
}

// appendCol appends column j of rows as one <col> of kind.
func appendCol(dst []byte, name string, kind data.AtomKind, rows []Row, j int) []byte {
	dst = xmlenc.AppendEscaped(append(dst, `<col name="`...), name)
	dst = append(append(append(dst, `" type="`...), kind.String()...), `" v="`...)
	for i, r := range rows {
		if i > 0 {
			dst = append(dst, ' ')
		}
		a := &r[j].Atom
		if kind == data.KindString {
			dst = append(strconv.AppendInt(dst, int64(len(a.S)), 10), ':')
		}
		dst = xmlenc.AppendAtom(dst, a)
	}
	return append(dst, `"/>`...)
}

// appendCell appends one cell of a per-cell column.
func appendCell(dst []byte, c Cell) []byte {
	switch c.Kind {
	case CAtom:
		dst = append(append(append(dst, `<atom type="`...), c.Atom.Kind.String()...), `" v="`...)
		return append(xmlenc.AppendAtom(dst, &c.Atom), `"/>`...)
	case CTree:
		dst = xmlenc.AppendSerialize(append(dst, "<tree>"...), c.Tree)
		return append(dst, "</tree>"...)
	case CSeq:
		// The <seq> element is written as the serializer writes any element,
		// so that attribute and bare reference nodes of the sequence land
		// where the parser reads them back from.
		return xmlenc.AppendSerialize(dst, &data.Node{Label: "seq", Kids: c.Seq})
	case CTab:
		return AppendXML(dst, c.Tab, 0)
	default:
		return append(dst, "<null/>"...)
	}
}

// ToXML converts the Tab to its XML tree, as a plan literal carries it: the
// parse of what AppendXML writes. It fails when a tree the tab holds has a
// label that XML cannot spell.
func ToXML(t *Tab) (*data.Node, error) {
	n, err := xmlenc.Parse(Marshal(t))
	if err != nil {
		return nil, fmt.Errorf("tab: %v", err)
	}
	return n, nil
}

// Marshal renders the Tab as an XML string.
func Marshal(t *Tab) string {
	b := AppendXML(nil, t, 0)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Unmarshal parses a Tab from an XML string.
func Unmarshal(src string) (*Tab, error) {
	n, err := xmlenc.Parse(src)
	if err != nil {
		return nil, err
	}
	return FromXML(n)
}

// FromXML reads a Tab from its <tab> element.
func FromXML(n *data.Node) (*Tab, error) {
	var r Reader
	return r.Read(n)
}

// Reader reads the <tab> elements of one frame. Consecutive tabs with the
// same cols text share one column list, split once; the list is clipped, so
// an append to one tab's columns copies it.
type Reader struct {
	text string
	cols []string
}

// Read reads one <tab> element. A string atom of a <col> is a substring of
// the attribute the parser read, and so of the frame.
func (r *Reader) Read(n *data.Node) (*Tab, error) {
	if n == nil || n.Label != "tab" {
		return nil, fmt.Errorf("tab: expected <tab> element, got %v", n)
	}
	if text := n.Attr("cols"); text != r.text || r.cols == nil {
		cols := splitFields(text)
		r.text, r.cols = text, cols[:len(cols):len(cols)]
	}
	return read(n, r.cols)
}

// read reads a <tab> element of the given columns: its <col>s first, then
// its <row>s into the other columns. All rows share one cell array, which is
// allocated only once every count has been checked, so that its size is
// bounded by the frame's.
func read(n *data.Node, cols []string) (*Tab, error) {
	nc := len(cols)
	rows, ncol := 0, 0
	for _, k := range n.Kids {
		switch k.Label {
		case "row":
			rows++
		case "col":
			ncol++
		}
	}
	t := &Tab{Cols: cols}
	if rows == 0 && ncol == 0 {
		return t, nil
	}
	perCell := nc - ncol
	if perCell < 0 {
		return nil, fmt.Errorf("tab: %d <col>s for %d columns", ncol, nc)
	}
	fromCols := rows == 0 && perCell == 0 // the first <col> counts the rows
	for _, k := range n.Kids {
		switch k.Label {
		case "row":
			if c := elems(k); c != perCell {
				return nil, fmt.Errorf("tab: row with %d cells for %d columns", c, perCell)
			}
		case "col":
			c, err := countValues(k.Attr("type"), k.Attr("v"))
			if fromCols {
				rows, fromCols = c, false
			}
			if err == nil && c != rows {
				err = fmt.Errorf("%d values for %d rows", c, rows)
			}
			if err != nil {
				return nil, colError(k, err)
			}
		}
	}
	var stack [16]bool
	columnar := stack[:]
	if nc > len(stack) {
		columnar = make([]bool, nc)
	}
	columnar = columnar[:nc]
	cells := make([]Cell, rows*nc)
	for _, k := range n.Kids {
		if k.Label != "col" {
			continue
		}
		name := k.Attr("name")
		j := 0
		for j < nc && cols[j] != name {
			j++
		}
		switch {
		case j == nc:
			return nil, fmt.Errorf("tab: <col> %q is not one of the columns %v", name, cols)
		case columnar[j]:
			return nil, fmt.Errorf("tab: column %s has two <col>s", name)
		}
		columnar[j] = true
		if err := readCol(k, cells[j:], nc); err != nil {
			return nil, colError(k, err)
		}
	}
	if rows > 0 {
		t.Rows = make([]Row, rows)
	}
	for i := range t.Rows {
		t.Rows[i] = cells[i*nc : (i+1)*nc : (i+1)*nc]
	}
	i := 0
	for _, k := range n.Kids {
		if k.Label != "row" {
			continue
		}
		j := 0
		for _, cn := range k.Kids {
			if cn.IsAttr() {
				continue
			}
			for columnar[j] {
				j++
			}
			c, err := cellFromXML(cn)
			if err != nil {
				return nil, err
			}
			t.Rows[i][j] = c
			j++
		}
		i++
	}
	return t, nil
}

// elems counts the children of k that are not attributes.
func elems(k *data.Node) int {
	c := 0
	for _, cn := range k.Kids {
		if !cn.IsAttr() {
			c++
		}
	}
	return c
}

// countValues counts the values of a <col>'s v attribute without reading
// them: one per space-separated token, none of them empty, and a String one
// per length-prefixed value.
func countValues(typ, v string) (int, error) {
	if v == "" {
		return 0, nil
	}
	if typ != "String" {
		if v[0] == ' ' || v[len(v)-1] == ' ' || strings.Contains(v, "  ") {
			return 0, fmt.Errorf("empty value in %.20q", v)
		}
		return strings.Count(v, " ") + 1, nil
	}
	c := 0
	for ; v != ""; c++ {
		var err error
		if _, v, err = nextValue(typ, v); err != nil {
			return 0, err
		}
	}
	return c, nil
}

func colError(k *data.Node, err error) error {
	return fmt.Errorf("tab: <col> %s: %v", k.Attr("name"), err)
}

// readCol reads the values of one <col>, counted already, into every
// stride-th cell of cells.
func readCol(k *data.Node, cells []Cell, stride int) error {
	typ, v := k.Attr("type"), k.Attr("v")
	switch typ {
	case "Int", "Float", "Bool", "String":
	default:
		return fmt.Errorf("unknown atom type %q", typ)
	}
	for i := 0; v != ""; i++ {
		a, rest, err := nextValue(typ, v)
		if err != nil {
			return err
		}
		cells[i*stride] = AtomCell(a)
		v = rest
	}
	return nil
}

// nextValue reads the first value of a <col>'s v attribute and returns it
// with the rest of the attribute, past the separating space. Empty values
// between spaces are countValues' to refuse.
func nextValue(typ, v string) (data.Atom, string, error) {
	if typ == "String" {
		colon := strings.IndexByte(v, ':')
		size, err := strconv.Atoi(v[:max(colon, 0)])
		if colon < 0 || err != nil || size < 0 {
			return data.Atom{}, "", fmt.Errorf("bad String length in %.20q", v)
		}
		v = v[colon+1:]
		if size > len(v) {
			return data.Atom{}, "", fmt.Errorf("String of %d bytes past the end of %d", size, len(v))
		}
		s, rest := v[:size], v[size:]
		if rest != "" {
			if rest[0] != ' ' || len(rest) == 1 {
				return data.Atom{}, "", fmt.Errorf("no separator after String %.20q", s)
			}
			rest = rest[1:]
		}
		return data.String(s), rest, nil
	}
	tok, rest, _ := strings.Cut(v, " ")
	if typ == "Bool" && tok != "true" && tok != "false" {
		return data.Atom{}, "", fmt.Errorf("bad Bool atom %q", tok)
	}
	a, err := parseAtom(typ, tok)
	return a, rest, err
}

// parseAtom reads the text of an atom of the named type; a String is the
// text itself.
func parseAtom(typ, text string) (data.Atom, error) {
	switch typ {
	case "Int":
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return data.Atom{}, fmt.Errorf("bad Int atom %q", text)
		}
		return data.Int(v), nil
	case "Float":
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return data.Atom{}, fmt.Errorf("bad Float atom %q", text)
		}
		return data.Float(v), nil
	case "Bool":
		return data.Bool(text == "true"), nil
	case "String":
		return data.String(text), nil
	default:
		return data.Atom{}, fmt.Errorf("unknown atom type %q", typ)
	}
}

func cellFromXML(n *data.Node) (Cell, error) {
	switch n.Label {
	case "null":
		return Null(), nil
	case "atom":
		var text string
		if v := n.Child("@v"); v != nil && v.Atom != nil {
			text = v.Atom.S
		} else if n.Atom != nil {
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
		a, err := parseAtom(n.Attr("type"), text)
		if err != nil {
			return Null(), fmt.Errorf("tab: %v", err)
		}
		return AtomCell(a), nil
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
