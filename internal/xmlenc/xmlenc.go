// Package xmlenc is the XML substrate of the YAT reproduction: a hand-rolled
// scanner, parser and serializer converting between XML text and YAT trees
// (internal/data). Wrappers and mediators communicate data, structures and
// operations in XML (Section 2 of the paper), so this package underlies the
// wire protocol, the capability-description language and data export.
//
// Mapping conventions (matching Figure 1 of the paper):
//
//   - an `id` attribute becomes the node identifier (data.Node.ID);
//   - a `refs` attribute becomes one reference child per whitespace-separated
//     identifier (e.g. <owners refs="p1 p2 p3"/>);
//   - a `ref` attribute makes the element itself a reference node;
//   - any other attribute name becomes a child element labeled "@name";
//   - character data becomes an unlabeled string leaf; an element whose only
//     child would be such a leaf becomes a leaf carrying the text directly.
package xmlenc

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/data"
)

// ParseError reports a syntax error with its byte offset and line.
type ParseError struct {
	Offset int
	Line   int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xml: line %d (offset %d): %s", e.Line, e.Offset, e.Msg)
}

type scanner struct {
	src string
	pos int
}

func (s *scanner) errf(format string, args ...any) error {
	line := 1 + strings.Count(s.src[:s.pos], "\n")
	return &ParseError{Offset: s.pos, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (s *scanner) eof() bool { return s.pos >= len(s.src) }

func (s *scanner) peek() byte {
	if s.eof() {
		return 0
	}
	return s.src[s.pos]
}

func (s *scanner) skipSpace() {
	for !s.eof() {
		switch s.src[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func (s *scanner) name() (string, error) {
	start := s.pos
	if s.eof() || !isNameStart(s.src[s.pos]) {
		return "", s.errf("expected name")
	}
	for !s.eof() && isNameChar(s.src[s.pos]) {
		s.pos++
	}
	return s.src[start:s.pos], nil
}

// skipMisc consumes comments, processing instructions and doctype
// declarations between markup.
func (s *scanner) skipMisc() error {
	for {
		s.skipSpace()
		if s.pos+3 < len(s.src) && s.src[s.pos:s.pos+4] == "<!--" {
			end := strings.Index(s.src[s.pos+4:], "-->")
			if end < 0 {
				return s.errf("unterminated comment")
			}
			s.pos += 4 + end + 3
			continue
		}
		if s.pos+1 < len(s.src) && s.src[s.pos:s.pos+2] == "<?" {
			end := strings.Index(s.src[s.pos+2:], "?>")
			if end < 0 {
				return s.errf("unterminated processing instruction")
			}
			s.pos += 2 + end + 2
			continue
		}
		if s.pos+1 < len(s.src) && s.src[s.pos:s.pos+2] == "<!" &&
			!(s.pos+8 < len(s.src) && s.src[s.pos:s.pos+9] == "<![CDATA[") {
			// DOCTYPE etc: skip to matching '>'
			depth := 0
			for ; s.pos < len(s.src); s.pos++ {
				switch s.src[s.pos] {
				case '<':
					depth++
				case '>':
					depth--
					if depth == 0 {
						s.pos++
						goto again
					}
				}
			}
			return s.errf("unterminated declaration")
		}
		return nil
	again:
	}
}

// Parse parses an XML document and returns its root element as a YAT tree.
func Parse(src string) (*data.Node, error) {
	s := &scanner{src: src}
	if err := s.skipMisc(); err != nil {
		return nil, err
	}
	if s.eof() || s.peek() != '<' {
		return nil, s.errf("expected root element")
	}
	n, err := s.element()
	if err != nil {
		return nil, err
	}
	if err := s.skipMisc(); err != nil {
		return nil, err
	}
	s.skipSpace()
	if !s.eof() {
		return nil, s.errf("trailing content after root element")
	}
	return n, nil
}

// ParseForest parses a sequence of sibling XML elements (no single root),
// as produced when serializing a data.Forest.
func ParseForest(src string) (data.Forest, error) {
	s := &scanner{src: src}
	var out data.Forest
	for {
		if err := s.skipMisc(); err != nil {
			return nil, err
		}
		s.skipSpace()
		if s.eof() {
			return out, nil
		}
		if s.peek() != '<' {
			return nil, s.errf("expected element")
		}
		n, err := s.element()
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
}

func (s *scanner) element() (*data.Node, error) {
	if s.peek() != '<' {
		return nil, s.errf("expected '<'")
	}
	s.pos++
	label, err := s.name()
	if err != nil {
		return nil, err
	}
	n := &data.Node{Label: label}
	// attributes; the references of a refs attribute follow the others, where
	// Serialize writes it
	refs := ""
	for {
		s.skipSpace()
		if s.eof() {
			return nil, s.errf("unterminated start tag <%s", label)
		}
		c := s.peek()
		if c == '/' || c == '>' {
			break
		}
		aname, err := s.name()
		if err != nil {
			return nil, err
		}
		s.skipSpace()
		if s.peek() != '=' {
			return nil, s.errf("expected '=' after attribute %q", aname)
		}
		s.pos++
		s.skipSpace()
		aval, err := s.attrValue()
		if err != nil {
			return nil, err
		}
		switch aname {
		case "id":
			n.ID = aval
		case "ref":
			n.Ref = aval
		case "refs":
			if refs == "" {
				refs = aval
			} else {
				refs += " " + aval
			}
		default:
			n.Add(data.Text("@"+aname, aval))
		}
	}
	for _, id := range strings.Fields(refs) {
		n.Add(data.RefNode("ref", id))
	}
	if s.peek() == '/' {
		s.pos++
		if s.peek() != '>' {
			return nil, s.errf("expected '>' after '/'")
		}
		s.pos++
		return n, nil
	}
	s.pos++ // '>'
	if err := s.content(n); err != nil {
		return nil, err
	}
	// closing tag
	cname, err := s.name()
	if err != nil {
		return nil, err
	}
	if cname != label {
		return nil, s.errf("mismatched closing tag </%s> for <%s>", cname, label)
	}
	s.skipSpace()
	if s.peek() != '>' {
		return nil, s.errf("expected '>' in closing tag")
	}
	s.pos++
	normalizeLeaf(n)
	return n, nil
}

// normalizeLeaf collapses <e>text</e> into a leaf node labeled e.
func normalizeLeaf(n *data.Node) {
	if len(n.Kids) == 1 && n.Kids[0].Label == "" && n.Kids[0].Atom != nil && n.Ref == "" {
		n.Atom = n.Kids[0].Atom
		n.Kids = nil
	}
}

// content parses mixed element/text content until the matching `</` is
// consumed (leaving the scanner positioned at the closing tag name).
func (s *scanner) content(parent *data.Node) error {
	var text strings.Builder
	flush := func() {
		t := strings.TrimSpace(text.String())
		text.Reset()
		if t != "" {
			parent.Add(&data.Node{Atom: &data.Atom{Kind: data.KindString, S: collapseSpace(t)}})
		}
	}
	for {
		if s.eof() {
			return s.errf("unterminated element <%s>", parent.Label)
		}
		c := s.src[s.pos]
		if c != '<' {
			if c == '&' {
				r, err := s.entity()
				if err != nil {
					return err
				}
				text.WriteString(r)
				continue
			}
			text.WriteByte(c)
			s.pos++
			continue
		}
		// markup
		if s.pos+8 < len(s.src) && s.src[s.pos:s.pos+9] == "<![CDATA[" {
			end := strings.Index(s.src[s.pos+9:], "]]>")
			if end < 0 {
				return s.errf("unterminated CDATA")
			}
			text.WriteString(s.src[s.pos+9 : s.pos+9+end])
			s.pos += 9 + end + 3
			continue
		}
		if s.pos+3 < len(s.src) && s.src[s.pos:s.pos+4] == "<!--" {
			end := strings.Index(s.src[s.pos+4:], "-->")
			if end < 0 {
				return s.errf("unterminated comment")
			}
			s.pos += 4 + end + 3
			continue
		}
		if s.pos+1 < len(s.src) && s.src[s.pos+1] == '?' {
			end := strings.Index(s.src[s.pos+2:], "?>")
			if end < 0 {
				return s.errf("unterminated processing instruction")
			}
			s.pos += 2 + end + 2
			continue
		}
		if s.pos+1 < len(s.src) && s.src[s.pos+1] == '/' {
			flush()
			s.pos += 2
			return nil
		}
		flush()
		kid, err := s.element()
		if err != nil {
			return err
		}
		parent.Add(kid)
	}
}

func collapseSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

func (s *scanner) attrValue() (string, error) {
	q := s.peek()
	if q != '"' && q != '\'' {
		return "", s.errf("expected quoted attribute value")
	}
	s.pos++
	var b strings.Builder
	for {
		if s.eof() {
			return "", s.errf("unterminated attribute value")
		}
		c := s.src[s.pos]
		if c == q {
			s.pos++
			return b.String(), nil
		}
		if c == '&' {
			r, err := s.entity()
			if err != nil {
				return "", err
			}
			b.WriteString(r)
			continue
		}
		b.WriteByte(c)
		s.pos++
	}
}

func (s *scanner) entity() (string, error) {
	end := strings.IndexByte(s.src[s.pos:], ';')
	if end < 0 || end > 12 {
		return "", s.errf("unterminated entity reference")
	}
	ent := s.src[s.pos+1 : s.pos+end]
	s.pos += end + 1
	switch ent {
	case "lt":
		return "<", nil
	case "gt":
		return ">", nil
	case "amp":
		return "&", nil
	case "quot":
		return "\"", nil
	case "apos":
		return "'", nil
	}
	if strings.HasPrefix(ent, "#") {
		base, digits := 10, ent[1:]
		if strings.HasPrefix(digits, "x") || strings.HasPrefix(digits, "X") {
			base, digits = 16, digits[1:]
		}
		code, err := strconv.ParseInt(digits, base, 32)
		if err != nil {
			return "", s.errf("bad character reference &%s;", ent)
		}
		return string(rune(code)), nil
	}
	return "", s.errf("unknown entity &%s;", ent)
}

// Escape returns s with the five predefined XML entities escaped.
func Escape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '&':
			b.WriteString("&amp;")
		case '"':
			b.WriteString("&quot;")
		case '\'':
			b.WriteString("&apos;")
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// Serialize renders a YAT tree as XML text, inverse to Parse: identifiers
// become id attributes, reference-only children collapse into refs
// attributes, "@name" children become attributes, leaves become element text.
func Serialize(n *data.Node) string {
	var b strings.Builder
	serialize(&b, n, -1)
	return b.String()
}

// SerializeIndent renders the tree as indented XML.
func SerializeIndent(n *data.Node) string {
	var b strings.Builder
	serialize(&b, n, 0)
	b.WriteByte('\n')
	return b.String()
}

// SerializeForest renders each tree of the forest in order.
func SerializeForest(f data.Forest) string {
	var b strings.Builder
	for i, n := range f {
		if i > 0 {
			b.WriteByte('\n')
		}
		serialize(&b, n, 0)
	}
	return b.String()
}

func serialize(b *strings.Builder, n *data.Node, indent int) {
	if n == nil {
		return
	}
	pad := ""
	if indent >= 0 {
		pad = strings.Repeat("  ", indent)
	}
	if n.Label == "" && n.Atom != nil { // bare text node
		b.WriteString(pad)
		b.WriteString(Escape(n.Atom.Text()))
		return
	}
	b.WriteString(pad)
	b.WriteByte('<')
	b.WriteString(n.Label)
	if n.ID != "" {
		fmt.Fprintf(b, ` id="%s"`, Escape(n.ID))
	}
	if n.Ref != "" {
		fmt.Fprintf(b, ` ref="%s"`, Escape(n.Ref))
	}
	// Split children: attributes, the run of bare references before any
	// other child (a refs attribute, which Parse reads back to the same
	// place), others.
	var attrs, refs, kids []*data.Node
	for _, k := range n.Kids {
		switch {
		case k.IsAttr() && k.Atom != nil:
			attrs = append(attrs, k)
		case len(kids) == 0 && k.Label == "ref" && k.IsRef() && k.ID == "" && k.Atom == nil && len(k.Kids) == 0:
			refs = append(refs, k)
		default:
			kids = append(kids, k)
		}
	}
	for _, a := range attrs {
		fmt.Fprintf(b, ` %s="%s"`, a.Label[1:], Escape(a.Atom.Text()))
	}
	if len(refs) > 0 {
		ids := make([]string, len(refs))
		for i, r := range refs {
			ids[i] = r.Ref
		}
		fmt.Fprintf(b, ` refs="%s"`, Escape(strings.Join(ids, " ")))
	}
	if n.Atom != nil {
		b.WriteByte('>')
		b.WriteString(Escape(n.Atom.Text()))
		b.WriteString("</")
		b.WriteString(n.Label)
		b.WriteByte('>')
		return
	}
	if len(kids) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	inline := true
	for _, k := range kids {
		if !(k.Label == "" && k.Atom != nil) {
			inline = false
			break
		}
	}
	if inline || indent < 0 {
		for _, k := range kids {
			serialize(b, k, -1)
		}
	} else {
		for _, k := range kids {
			b.WriteByte('\n')
			serialize(b, k, indent+1)
		}
		b.WriteByte('\n')
		b.WriteString(pad)
	}
	b.WriteString("</")
	b.WriteString(n.Label)
	b.WriteByte('>')
}

// InferAtoms returns a copy of the tree in which every string leaf whose text
// parses as an integer, float or boolean is retyped accordingly. Wrappers
// apply it when the source (e.g. Wais) stores untyped text but the imported
// structure declares Int or Float fields.
func InferAtoms(n *data.Node) *data.Node {
	c := n.Clone()
	c.Walk(func(m *data.Node) bool {
		if m.Atom != nil && m.Atom.Kind == data.KindString {
			s := strings.TrimSpace(m.Atom.S)
			if v, err := strconv.ParseInt(s, 10, 64); err == nil {
				a := data.Int(v)
				m.Atom = &a
			} else if v, err := strconv.ParseFloat(s, 64); err == nil {
				a := data.Float(v)
				m.Atom = &a
			} else if s == "true" || s == "false" {
				a := data.Bool(s == "true")
				m.Atom = &a
			}
		}
		return true
	})
	return c
}
