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
//
// Parse never types: every atom it builds is a String, because it also reads
// tabs, plans, patterns and interfaces, where a string must stay a string
// (an atom cell's own type= attribute says what it is). A shipped document is
// typed once on arrival, in place, by InferAtoms.
package xmlenc

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"

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
	src    string
	pos    int
	b      data.Block
	kids   []*data.Node // the children of the open elements, innermost last
	labels [8]string    // the attribute labels made so far
}

// newScanner returns a scanner over src with the parse's block reserved from
// blockSize's counts over src.
func newScanner(src string) scanner {
	nodes, atoms := blockSize(src)
	kids := max(nodes-1, 0)
	return scanner{src: src, b: data.NewBlock(nodes, atoms, kids), kids: make([]*data.Node, 0, min(kids, 64))}
}

// blockSize counts, in one pass over src, the nodes and atoms Parse builds
// from it, exactly for the frames and documents Serialize writes. An element
// opens with '<' and one "</" of those closes it. Text before a closing tag
// that does not follow another ("></") is an atom, and so is an attribute
// (="), unless it is an id or refs. Other attributes are a node each, and
// refs one per reference: one per space between ` refs="` and the next '"',
// counted only once that quote is seen. Text right after a start tag with
// attributes ("> not followed by '<') is a child. Counts over text that is
// not XML can be far above what a parse builds before it fails, so neither
// exceeds one item per four bytes of input, the size of <a/>.
func blockSize(src string) (nodes, atoms int) {
	var lt, closes, afterClose, attrs, ids, refs, refSpaces, quoteGT, quoteGTLT int
	inRefs, spaces := false, 0 // inside a refs value, and its spaces so far
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '<':
			lt++
			if i+1 < len(src) && src[i+1] == '/' {
				closes++
				if i > 0 && src[i-1] == '>' {
					afterClose++
				}
			}
		case '"':
			if inRefs {
				refSpaces += spaces
				inRefs = false
			}
			if i > 0 && src[i-1] == '=' {
				attrs++
				if i >= 4 && src[i-4:i] == ` id=` {
					ids++
				}
				if i >= 6 && src[i-6:i] == ` refs=` {
					refs++
					inRefs, spaces = true, 0
				}
			}
			if i+1 < len(src) && src[i+1] == '>' {
				quoteGT++
				if i+2 < len(src) && src[i+2] == '<' {
					quoteGTLT++
				}
			}
		case ' ':
			if inRefs {
				spaces++
			}
		}
	}
	attrs -= ids
	nodes = lt - closes + attrs + quoteGT - quoteGTLT + refSpaces
	atoms = closes - afterClose + attrs - refs
	return min(nodes, len(src)/4), min(atoms, len(src)/4)
}

// attrLabel returns the label of attribute name, "@"+name, made once per
// parse for each of the first len(s.labels) names.
func (s *scanner) attrLabel(name string) string {
	for i, l := range s.labels {
		if l == "" {
			s.labels[i] = "@" + name
		}
		if s.labels[i][1:] == name {
			return s.labels[i]
		}
	}
	return "@" + name
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
	s := newScanner(src)
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
	s := newScanner(src)
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
	n := s.b.Elem(label)
	base := len(s.kids)
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
			s.kids = append(s.kids, s.b.Leaf(s.attrLabel(aname), data.String(aval)))
		}
	}
	// The identifiers of refs, split where strings.Fields would split them
	// but without its slice.
	for rest := strings.TrimLeftFunc(refs, unicode.IsSpace); rest != ""; rest = strings.TrimLeftFunc(rest, unicode.IsSpace) {
		end := strings.IndexFunc(rest, unicode.IsSpace)
		if end < 0 {
			end = len(rest)
		}
		r := s.b.Elem("ref")
		r.Ref = rest[:end]
		s.kids = append(s.kids, r)
		rest = rest[end:]
	}
	if s.peek() == '/' {
		s.pos++
		if s.peek() != '>' {
			return nil, s.errf("expected '>' after '/'")
		}
	} else {
		s.pos++ // '>'
		if err := s.content(n, base); err != nil {
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
	}
	s.pos++
	// the children gathered since base become one list from the block
	n.Kids = s.b.List(len(s.kids) - base)
	copy(n.Kids, s.kids[base:])
	s.kids = s.kids[:base]
	return n, nil
}

// content parses mixed element/text content until the matching `</` is
// consumed (leaving the scanner positioned at the closing tag name), pushing
// parent's children onto s.kids above base. Text that is the element's only
// content, with no reference attribute, becomes the element's own atom
// (<e>text</e> is a leaf labeled e); any other text becomes an unlabeled
// string leaf among the children.
func (s *scanner) content(parent *data.Node, base int) error {
	var text textRun
	flush := func(closing bool) {
		t := strings.TrimSpace(text.take())
		if t == "" {
			return
		}
		a := data.String(CollapseSpace(t))
		if closing && len(s.kids) == base && parent.Ref == "" {
			parent.Atom = s.b.Atom(a)
		} else {
			s.kids = append(s.kids, s.b.Leaf("", a))
		}
	}
	for {
		if s.eof() {
			return s.errf("unterminated element <%s>", parent.Label)
		}
		switch s.src[s.pos] {
		case '<':
		case '&':
			r, err := s.entity()
			if err != nil {
				return err
			}
			text.add(r)
			continue
		default:
			start := s.pos
			for s.pos < len(s.src) && s.src[s.pos] != '<' && s.src[s.pos] != '&' {
				s.pos++
			}
			text.add(s.src[start:s.pos])
			continue
		}
		// markup
		if s.pos+8 < len(s.src) && s.src[s.pos:s.pos+9] == "<![CDATA[" {
			end := strings.Index(s.src[s.pos+9:], "]]>")
			if end < 0 {
				return s.errf("unterminated CDATA")
			}
			text.add(s.src[s.pos+9 : s.pos+9+end])
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
			flush(true)
			s.pos += 2
			return nil
		}
		flush(false)
		kid, err := s.element()
		if err != nil {
			return err
		}
		s.kids = append(s.kids, kid)
	}
}

// textRun gathers the character data between two elements. Text in one piece
// (no entity, CDATA section or comment inside it) stays a substring of the
// source; only text of several pieces is copied.
type textRun struct {
	one    string
	buf    []byte
	pieces int
}

func (t *textRun) add(p string) {
	switch t.pieces {
	case 0:
		t.one = p
	case 1:
		t.buf = append(append(t.buf[:0], t.one...), p...)
	default:
		t.buf = append(t.buf, p...)
	}
	t.pieces++
}

// take returns the gathered text and starts a new run.
func (t *textRun) take() string {
	s := t.one
	if t.pieces > 1 {
		s = string(t.buf)
	}
	t.one, t.pieces = "", 0
	return s
}

// CollapseSpace trims s and collapses every run of white space inside it to
// one space, as strings.Fields does. Text that has nothing to collapse (no
// byte \t\n\v\f\r, no non-ASCII byte, no leading, trailing or double space)
// is returned as it is, without allocating.
func CollapseSpace(s string) string {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\t', c == '\n', c == '\v', c == '\f', c == '\r', c >= utf8.RuneSelf,
			c == ' ' && (i == 0 || i == len(s)-1 || s[i-1] == ' '):
			return strings.Join(strings.Fields(s), " ")
		}
	}
	return s
}

func (s *scanner) attrValue() (string, error) {
	q := s.peek()
	if q != '"' && q != '\'' {
		return "", s.errf("expected quoted attribute value")
	}
	s.pos++
	if end := strings.IndexByte(s.src[s.pos:], q); end >= 0 && strings.IndexByte(s.src[s.pos:s.pos+end], '&') < 0 {
		v := s.src[s.pos : s.pos+end]
		s.pos += end + 1
		return v, nil
	}
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

// Escape returns s with the five predefined XML entities escaped; s itself
// when it has none of them.
func Escape(s string) string {
	if !strings.ContainsAny(s, `<>&"'`) {
		return s
	}
	return bytesString(AppendEscaped(nil, s))
}

// AppendEscaped appends s to b with the five predefined XML entities
// escaped, copying the runs between them as they are: text fit for an
// element or for an attribute value in either quote.
func AppendEscaped(b []byte, s string) []byte {
	run := 0 // s[run:i] is copied as it is
	for i := 0; i < len(s); i++ {
		if c := s[i]; int(c) < len(entityOf) && entityOf[c] != "" {
			b = append(append(b, s[run:i]...), entityOf[c]...)
			run = i + 1
		}
	}
	return append(b, s[run:]...)
}

var entityOf = [...]string{'<': "&lt;", '>': "&gt;", '&': "&amp;", '"': "&quot;", '\'': "&apos;"}

// bytesString returns b as a string without copying it, as
// strings.Builder.String does: the callers here never write b again.
func bytesString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// AppendSerialize appends the XML text of a YAT tree to dst and returns the
// extended buffer, inverse to Parse: identifiers become id attributes,
// reference-only children collapse into refs attributes, "@name" children
// become attributes, leaves become element text. It is the one serializer:
// Serialize and the others below are built on it, and the wire's frame
// writer appends a chunk into its connection's buffer with it.
func AppendSerialize(dst []byte, n *data.Node) []byte { return appendNode(dst, n, -1) }

// Serialize renders a YAT tree as XML text (AppendSerialize into a new
// buffer).
func Serialize(n *data.Node) string { return bytesString(appendNode(nil, n, -1)) }

// SerializeIndent renders the tree as indented XML.
func SerializeIndent(n *data.Node) string {
	return bytesString(append(appendNode(nil, n, 0), '\n'))
}

// SerializeForest renders each tree of the forest in order.
func SerializeForest(f data.Forest) string {
	var b []byte
	for i, n := range f {
		if i > 0 {
			b = append(b, '\n')
		}
		b = appendNode(b, n, 0)
	}
	return bytesString(b)
}

// appendNode appends n at the given depth (-1: no indentation). Its children
// are written in passes over n.Kids: the attributes; then the run of bare
// references before any other child, as a refs attribute (which Parse reads
// back to the same place); then the others.
func appendNode(b []byte, n *data.Node, indent int) []byte {
	if n == nil {
		return b
	}
	b = appendPad(b, indent)
	if n.Label == "" && n.Atom != nil { // bare text node
		return AppendAtom(b, n.Atom)
	}
	b = append(append(b, '<'), n.Label...)
	if n.ID != "" {
		b = AppendAttr(b, "id", n.ID)
	}
	if n.Ref != "" {
		b = AppendAttr(b, "ref", n.Ref)
	}
	for _, k := range n.Kids {
		if isAttr(k) {
			b = append(append(append(b, ' '), k.Label[1:]...), `="`...)
			b = append(AppendAtom(b, k.Atom), '"')
		}
	}
	rest, refs := 0, 0 // n.Kids[rest:] holds the others
	for ; rest < len(n.Kids); rest++ {
		k := n.Kids[rest]
		if isAttr(k) {
			continue
		}
		if k.Label != "ref" || !k.IsRef() || k.ID != "" || k.Atom != nil || len(k.Kids) > 0 {
			break
		}
		if refs == 0 {
			b = append(b, ` refs="`...)
		} else {
			b = append(b, ' ')
		}
		b = AppendEscaped(b, k.Ref)
		refs++
	}
	if refs > 0 {
		b = append(b, '"')
	}
	if n.Atom != nil {
		b = AppendAtom(append(b, '>'), n.Atom)
		return appendEnd(b, n.Label)
	}
	others, inline := 0, true
	for _, k := range n.Kids[rest:] {
		if !isAttr(k) {
			others++
			inline = inline && k.Label == "" && k.Atom != nil
		}
	}
	if others == 0 {
		return append(b, "/>"...)
	}
	b = append(b, '>')
	for _, k := range n.Kids[rest:] {
		switch {
		case isAttr(k):
		case inline || indent < 0:
			b = appendNode(b, k, -1)
		default:
			b = appendNode(append(b, '\n'), k, indent+1)
		}
	}
	if !inline && indent >= 0 {
		b = appendPad(append(b, '\n'), indent)
	}
	return appendEnd(b, n.Label)
}

// isAttr reports whether the child k is written as an attribute.
func isAttr(k *data.Node) bool { return k.IsAttr() && k.Atom != nil }

func appendPad(b []byte, indent int) []byte {
	for i := 0; i < indent; i++ {
		b = append(b, "  "...)
	}
	return b
}

// AppendAttr appends the attribute name="v", v escaped, with the space
// before it, as the serializer writes an id or a ref.
func AppendAttr(b []byte, name, v string) []byte {
	b = append(append(append(b, ' '), name...), `="`...)
	return append(AppendEscaped(b, v), '"')
}

func appendEnd(b []byte, label string) []byte {
	return append(append(append(b, "</"...), label...), '>')
}

// appendAtom appends the atom's text (data.Atom.Text), escaped; a number is
// formatted straight into b.
func AppendAtom(b []byte, a *data.Atom) []byte {
	switch a.Kind {
	case data.KindInt:
		return strconv.AppendInt(b, a.I, 10)
	case data.KindFloat:
		return strconv.AppendFloat(b, a.F, 'g', -1, 64)
	default:
		return AppendEscaped(b, a.Text())
	}
}

// InferAtoms retypes, in place, every string leaf of the tree whose trimmed
// text parses as an integer, float or boolean. It is for a tree its caller
// owns, freshly parsed: XML carries atoms as text, and a shipped document or
// feed record is typed once on arrival. A failed number parse allocates its
// error, so a parse is tried only where numberSyntax says it can succeed.
func InferAtoms(n *data.Node) {
	if a := n.Atom; a != nil && a.Kind == data.KindString {
		s := strings.TrimSpace(a.S)
		if isInt, isNum := numberSyntax(s); isNum {
			typed := false
			if isInt {
				if v, err := strconv.ParseInt(s, 10, 64); err == nil {
					*a, typed = data.Int(v), true
				}
			}
			if !typed {
				if v, err := strconv.ParseFloat(s, 64); err == nil {
					*a = data.Float(v)
				}
			}
		} else if s == "true" || s == "false" {
			*a = data.Bool(s == "true")
		}
	}
	for _, k := range n.Kids {
		InferAtoms(k)
	}
}

// numberSyntax reports whether strconv.ParseInt (base 10) and ParseFloat
// can accept s. isInt: s is an optional sign and digits. isNum: s holds no
// space, starts with a digit, a sign or a point, or is inf, infinity or nan
// in any case, and has a sign only first or right after an exponent letter
// (e, E, p, P) — so an ISSN such as 0317-8471 is no number to try.
func numberSyntax(s string) (isInt, isNum bool) {
	if s == "" || strings.IndexByte("0123456789+-.", s[0]) < 0 &&
		!strings.EqualFold(s, "inf") && !strings.EqualFold(s, "infinity") && !strings.EqualFold(s, "nan") {
		return false, false
	}
	digits := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			digits++
		case c == ' ':
			return false, false
		case c == '+' || c == '-':
			if i > 0 && strings.IndexByte("eEpP", s[i-1]) < 0 {
				return false, false
			}
		}
	}
	sign := 0
	if s[0] == '+' || s[0] == '-' {
		sign = 1
	}
	return digits > 0 && digits == len(s)-sign, true
}
