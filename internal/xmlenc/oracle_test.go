package xmlenc_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/o2wrap"
	"repro/internal/tab"
	"repro/internal/xmlenc"
)

// The oracle: a test-only copy of the node-by-node parser that Parse and
// ParseForest replaced. Every tree the codec builds must equal the oracle's,
// strictly: reflect.DeepEqual tells a nil child list from an empty one.

type oracleScanner struct {
	src string
	pos int
}

func (s *oracleScanner) errf(format string, args ...any) error {
	line := 1 + strings.Count(s.src[:s.pos], "\n")
	return &xmlenc.ParseError{Offset: s.pos, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (s *oracleScanner) eof() bool { return s.pos >= len(s.src) }

func (s *oracleScanner) peek() byte {
	if s.eof() {
		return 0
	}
	return s.src[s.pos]
}

func (s *oracleScanner) skipSpace() {
	for !s.eof() {
		switch s.src[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

func oracleNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func oracleNameChar(c byte) bool {
	return oracleNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func (s *oracleScanner) name() (string, error) {
	start := s.pos
	if s.eof() || !oracleNameStart(s.src[s.pos]) {
		return "", s.errf("expected name")
	}
	for !s.eof() && oracleNameChar(s.src[s.pos]) {
		s.pos++
	}
	return s.src[start:s.pos], nil
}

// skipMisc consumes comments, processing instructions and doctype
// declarations between markup.
func (s *oracleScanner) skipMisc() error {
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

// oracleParse parses an XML document and returns its root element as a YAT tree.
func oracleParse(src string) (*data.Node, error) {
	s := &oracleScanner{src: src}
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

// oracleParseForest parses a sequence of sibling XML elements (no single root),
// as produced when serializing a data.Forest.
func oracleParseForest(src string) (data.Forest, error) {
	s := &oracleScanner{src: src}
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

func (s *oracleScanner) element() (*data.Node, error) {
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
	return n, nil
}

// content parses mixed element/text content until the matching `</` is
// consumed (leaving the oracleScanner positioned at the closing tag name). Text that
// is the element's only content, with no reference attribute, becomes the
// element's own atom (<e>text</e> is a leaf labeled e); any other text becomes
// an unlabeled string leaf among the children.
func (s *oracleScanner) content(parent *data.Node) error {
	var text oracleTextRun
	flush := func(closing bool) {
		t := strings.TrimSpace(text.take())
		if t == "" {
			return
		}
		a := &data.Atom{Kind: data.KindString, S: xmlenc.CollapseSpace(t)}
		if closing && len(parent.Kids) == 0 && parent.Ref == "" {
			parent.Atom = a
		} else {
			parent.Add(&data.Node{Atom: a})
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
		parent.Add(kid)
	}
}

// oracleTextRun gathers the character data between two elements. Text in one piece
// (no entity, CDATA section or comment inside it) stays a substring of the
// source; only text of several pieces is copied.
type oracleTextRun struct {
	one    string
	buf    []byte
	pieces int
}

func (t *oracleTextRun) add(p string) {
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
func (t *oracleTextRun) take() string {
	s := t.one
	if t.pieces > 1 {
		s = string(t.buf)
	}
	t.one, t.pieces = "", 0
	return s
}

func (s *oracleScanner) attrValue() (string, error) {
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

func (s *oracleScanner) entity() (string, error) {
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

// oracleInputs are the texts both parsers read: the inputs of the xmlenc
// tests, FuzzParseXML's seeds, the frames of the wire package's fuzz corpora
// (each frame on its own and the whole corpus entry), a 300-work document and
// an O₂ extent as the wrapper ships it.
func oracleInputs(t *testing.T) []string {
	in := []string{
		"\n<object id=\"a1\" class=\"artifact\">\n  <tuple>\n    <title> Nympheas </title>\n    <year> 1897 </year>\n" +
			"    <creator> Claude Monet </creator>\n  </tuple>\n  <owners refs=\"p1 p2 p3\"/>\n</object>",
		`<history>Painted with <technique>Oil on canvas</technique> in ...</history>`,
		`<a>x<!-- c --><![CDATA[<y>]]>&amp;<b/></a>`,
		`<size>21 &lt; 61 &amp; more &#65;<![CDATA[<raw>]]></size>`,
		`<a>&bogus;</a>`, `<a>&#xZZ;</a>`,
		``, `plain text`, `<a>`, `<a></b>`, `<a attr></a>`, `<a attr=>`, `<a attr="x></a>`,
		`<a><!-- unterminated</a>`, `<a/><b/>`, `<a/>trailing`, `<1tag/>`, `<a /b>`,
		"<a>\n<b>\n</c>\n</a>",
		"<?xml version=\"1.0\"?>\n<!DOCTYPE doc [<!ELEMENT doc ANY>]>\n<!-- a comment -->\n<doc><x>1</x></doc>\n<!-- trailing -->",
		`<owners refs="p1 p2"/>`, `<owner ref="p1"/>`, "<a>1</a>\n<b>\n  <c>2</c>\n</b>", "  \n ",
		`<t>plain text</t>`, `<e a="1" a="2" refs="x" refs=" y  z "/>`, `<e k='v' id='i'>  </e>`,
		// refs split at every space strings.Fields knows, and nowhere else
		"<e refs=\"\u00a0p1\u2003p2\u0085p3\u200bp4\tp5\n\xffp6 \u3000\"/>",
		`<e refs="&#xA0;p1&#x2028;p2&#9;p3&#x200B;p4"/>`,
	}
	in = append(in, parseSeeds()...)
	in = append(in, worksDocument(), xmlenc.SerializeForest(artifacts(t)))
	files, err := filepath.Glob(filepath.Join("..", "wire", "testdata", "fuzz", "*", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("wire corpus: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(b), "\n", 3)
		v := strings.TrimSpace(lines[1])
		v = v[strings.IndexByte(v, '(')+1 : len(v)-1]
		raw, err := strconv.Unquote(v)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		in = append(in, raw)
		for len(raw) >= 4 {
			n := int(raw[0])<<24 | int(raw[1])<<16 | int(raw[2])<<8 | int(raw[3])
			raw = raw[4:]
			n = min(n, len(raw))
			in = append(in, raw[:n])
			raw = raw[n:]
		}
	}
	return in
}

// artifacts is the O₂ artifacts extent of the paper's database, as o2wrap
// ships it.
func artifacts(t testing.TB) data.Forest {
	f, err := o2wrap.New("o2artifact", datagen.Generate(datagen.DefaultParams(20)).DB).Fetch("artifacts")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// sameParse reports how Parse's result differs from the oracle's on src, ""
// when tree and error are identical.
func sameParse(src string) string {
	got, gerr := xmlenc.Parse(src)
	want, werr := oracleParse(src)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return fmt.Sprintf("Parse error %v, oracle %v", gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("Parse tree\n%s\noracle\n%s", got, want)
	}
	gotF, gerr := xmlenc.ParseForest(src)
	wantF, werr := oracleParseForest(src)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return fmt.Sprintf("ParseForest error %v, oracle %v", gerr, werr)
	}
	if !reflect.DeepEqual(gotF, wantF) {
		return fmt.Sprintf("ParseForest trees\n%s\noracle\n%s", gotF, wantF)
	}
	return ""
}

func TestParseMatchesOracle(t *testing.T) {
	for i, src := range oracleInputs(t) {
		if diff := sameParse(src); diff != "" {
			t.Fatalf("input %d: %s\n%q", i, diff, src)
		}
		if len(src) > 2048 {
			continue
		}
		// every prefix: each error path, and each state a frame is torn in
		for j := range len(src) {
			if diff := sameParse(src[:j]); diff != "" {
				t.Fatalf("input %d, prefix %d: %s\n%q", i, j, diff, src[:j])
			}
		}
	}
}

// checkNoSharedKids adds a child to each node of the trees in turn and fails
// when that changes the child list of any other node. A builder that carves
// child lists from one shared slice must cap each list, or Add on one node
// overwrites the first child of the next list.
func checkNoSharedKids(t *testing.T, name string, roots ...*data.Node) {
	t.Helper()
	var all []*data.Node
	for _, r := range roots {
		r.Walk(func(m *data.Node) bool { all = append(all, m); return true })
	}
	before := make([][]*data.Node, len(all))
	for i, m := range all {
		before[i] = slices.Clone(m.Kids)
	}
	extra := data.Elem("extra")
	for _, m := range all {
		kids := m.Kids
		m.Add(extra)
		for j, o := range all {
			if o != m && !slices.Equal(o.Kids, before[j]) {
				t.Fatalf("%s: adding a child to <%s> changed the children of <%s>", name, m.Label, o.Label)
			}
		}
		m.Kids = kids
	}
}

// TestBuiltTreesDoNotShareKids holds the builders of whole trees to child
// lists of their own: the parser (over works and over a tab's XML tree,
// which is the parse of its text), an O₂ extent's export and a clone.
func TestBuiltTreesDoNotShareKids(t *testing.T) {
	works := datagen.Generate(datagen.DefaultParams(10)).Works
	parsed, err := xmlenc.ParseForest(xmlenc.SerializeForest(works) +
		`<a k="v" refs="p1 p2">t<b/>u<c><d/></c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	checkNoSharedKids(t, "Parse", parsed...)

	rows := tab.New("$a", "$t", "$s", "$n", "$x")
	nested := tab.New("$y")
	nested.AddRow(tab.Row{tab.AtomCell(data.Int(1))})
	nested.AddRow(tab.Row{tab.AtomCell(data.String("two"))})
	for _, w := range works[:3] {
		rows.AddRow(tab.Row{tab.AtomCell(data.String(w.Child("title").Atom.S)), tab.TreeCell(w),
			tab.SeqCell(data.Forest{data.Text("@k", "v"), data.RefNode("ref", "p1"), w.Child("artist")}),
			tab.Null(), tab.TabCell(nested)})
	}
	tn, err := tab.ToXML(rows)
	if err != nil {
		t.Fatal(err)
	}
	checkNoSharedKids(t, "tab.ToXML", tn)

	checkNoSharedKids(t, "o2wrap Fetch", artifacts(t)...)

	checkNoSharedKids(t, "Clone", works[0].Clone(), works[1].Clone())
}
