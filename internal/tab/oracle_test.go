package tab

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/xmlenc"
)

// oracleToXML is a test-only copy of the node-by-node ToXML that the block
// builder replaced.
func oracleToXML(t *Tab) *data.Node {
	root := data.Elem("tab")
	cols := ""
	for i, c := range t.Cols {
		if i > 0 {
			cols += " "
		}
		cols += c
	}
	root.Add(data.Text("@cols", cols))
	for _, r := range t.Rows {
		row := data.Elem("row")
		for _, c := range r {
			row.Add(oracleCellToXML(c))
		}
		root.Add(row)
	}
	return root
}

func oracleCellToXML(c Cell) *data.Node {
	switch c.Kind {
	case CNull:
		return data.Elem("null")
	case CAtom:
		n := data.Leaf("atom", c.Atom)
		n.Kids = append(n.Kids, data.Text("@type", c.Atom.Kind.String()))
		return n
	case CTree:
		return data.Elem("tree", c.Tree)
	case CSeq:
		s := data.Elem("seq")
		s.Kids = append(s.Kids, c.Seq...)
		return s
	case CTab:
		return oracleToXML(c.Tab)
	default:
		return data.Elem("null")
	}
}

// oracleFromXML is a test-only copy of the per-cell FromXML that the column
// reader replaced: every row a <row>, every cell an element of its own.
func oracleFromXML(n *data.Node) (*Tab, error) {
	if n == nil || n.Label != "tab" {
		return nil, fmt.Errorf("tab: expected <tab> element, got %v", n)
	}
	var cols []string
	if s := n.Attr("cols"); s != "" {
		cols = oracleSplitFields(s)
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
			c, err := oracleCellFromXML(cn)
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

func oracleCellFromXML(n *data.Node) (Cell, error) {
	switch n.Label {
	case "null":
		return Null(), nil
	case "atom":
		typ := n.Attr("type")
		text := ""
		if n.Atom != nil {
			text = n.Atom.Text()
		} else {
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
		nested, err := oracleFromXML(n)
		if err != nil {
			return Null(), err
		}
		return TabCell(nested), nil
	default:
		return Null(), fmt.Errorf("tab: unknown cell element <%s>", n.Label)
	}
}

func oracleSplitFields(s string) []string {
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

// oracleRoundTrip ships t the way the oracle codec did: its per-cell tree,
// serialized, parsed and read back cell by cell.
func oracleRoundTrip(t *Tab) (*Tab, error) {
	n, err := xmlenc.Parse(xmlenc.Serialize(oracleToXML(t)))
	if err != nil {
		return nil, err
	}
	return oracleFromXML(n)
}

// oracleTabs cover every cell kind: atoms of the four kinds (an empty string,
// text to escape, extreme numbers), a tree, a seq of attribute and bare
// reference nodes (written as attributes of <seq>) beside an element, an
// empty seq, a nested tab, a null; and a tab with no columns, one with no
// rows, and the 64-row atom tab of the allocation guard.
func oracleTabs() []*Tab {
	work := data.Elem("work", data.Text("title", "Nympheas"), data.RefNode("owner", "p1")).WithID("w1")
	nested := New("$y", "$z")
	nested.AddRow(Row{AtomCell(data.Int(-7)), TreeCell(work)})
	nested.AddRow(Row{Null(), AtomCell(data.String(""))})
	all := New("$i", "$f", "$b", "$s", "$e", "$t", "$q", "$o", "$n", "$x")
	all.AddRow(Row{
		AtomCell(data.Int(math.MinInt64)), AtomCell(data.Float(1e-300)), AtomCell(data.Bool(true)),
		AtomCell(data.String(`<a & "b">`)), AtomCell(data.String("")), TreeCell(work),
		SeqCell(data.Forest{data.Text("@k", "v"), data.RefNode("ref", "p1"), data.RefNode("ref", "p2"), work}),
		SeqCell(nil), Null(), TabCell(nested),
	})
	all.AddRow(Row{
		AtomCell(data.Int(0)), AtomCell(data.Float(math.Inf(-1))), AtomCell(data.Bool(false)),
		AtomCell(data.String("x")), AtomCell(data.String("  ")), TreeCell(data.Text("leaf", "v")),
		SeqCell(data.Forest{data.RefNode("ref", "p3")}), SeqCell(data.Forest{}), Null(), TabCell(New("$none")),
	})
	empty := New()
	empty.AddRow(Row{})
	return []*Tab{all, nested, empty, New("$a", "$b"), atomTab(64)}
}

// atomTab is a reply tab of n rows of three atom cells.
func atomTab(n int) *Tab {
	t := New("$t", "$y", "$p")
	for i := range n {
		t.AddRow(Row{AtomCell(data.String("Painting")), AtomCell(data.Int(int64(1800 + i))), AtomCell(data.Float(1.5 * float64(i)))})
	}
	return t
}

// exactAtoms compares a tab read with this package's codec to the oracle's
// reading of the same tab. The one difference allowed is a String atom the
// oracle trimmed and collapsed (its text travelled as element text), which
// the column form keeps exact: exactAtoms returns those, and false when any
// other cell, column or row differs.
func exactAtoms(got, oracle *Tab) ([]string, bool) {
	if got == nil || oracle == nil || !reflect.DeepEqual(got.Cols, oracle.Cols) || len(got.Rows) != len(oracle.Rows) {
		return nil, reflect.DeepEqual(got, oracle)
	}
	var exact []string
	for i, r := range got.Rows {
		if len(r) != len(oracle.Rows[i]) {
			return nil, false
		}
		for j, c := range r {
			o := oracle.Rows[i][j]
			switch {
			case c.Kind == CTab && o.Kind == CTab:
				e, ok := exactAtoms(c.Tab, o.Tab)
				if !ok {
					return nil, false
				}
				exact = append(exact, e...)
			case reflect.DeepEqual(c, o):
			case c.Kind == CAtom && o.Kind == CAtom && c.Atom.Kind == data.KindString && o.Atom.Kind == data.KindString &&
				xmlenc.CollapseSpace(c.Atom.S) == o.Atom.S:
				exact = append(exact, c.Atom.S)
			default:
				return nil, false
			}
		}
	}
	return exact, true
}

// TestToXMLMatchesOracle holds the tab codec to the oracle's: each of
// oracleTabs, shipped through Marshal and Unmarshal, reads back
// reflect.DeepEqual to what the oracle's writer and reader give, but for the
// one String atom the oracle collapsed, "  ", which arrives exact.
func TestToXMLMatchesOracle(t *testing.T) {
	var exact []string
	for i, tb := range oracleTabs() {
		got, err := Unmarshal(Marshal(tb))
		if err != nil {
			t.Fatalf("tab %d: %v\n%s", i, err, Marshal(tb))
		}
		want, err := oracleRoundTrip(tb)
		if err != nil {
			t.Fatalf("tab %d: oracle: %v", i, err)
		}
		e, ok := exactAtoms(got, want)
		if !ok {
			t.Errorf("tab %d: read back\n%s\noracle\n%s\nfrom %s", i, got, want, Marshal(tb))
		}
		exact = append(exact, e...)
	}
	if want := []string{"  "}; !reflect.DeepEqual(exact, want) {
		t.Errorf("atoms kept exact where the oracle collapsed them: %q, want %q", exact, want)
	}
}

// TestCorpusTabsMatchOracle reads every <tab> of the wire fuzz corpora — the
// reply frames FuzzReplyFrames found and the requests FuzzServeRequest found,
// each whole frame that parses as XML — with FromXML and with the oracle:
// both fail, or both read reflect.DeepEqual tabs.
func TestCorpusTabsMatchOracle(t *testing.T) {
	tabs := 0
	for _, dir := range []string{"FuzzReplyFrames", "FuzzServeRequest"} {
		files, err := filepath.Glob(filepath.Join("..", "wire", "testdata", "fuzz", dir, "*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no %s corpus: %v", dir, err)
		}
		for _, f := range files {
			raw := corpusBytes(t, f)
			payloads := []string{raw}
			if dir == "FuzzReplyFrames" {
				payloads = splitFrames(raw)
			}
			for _, p := range payloads {
				root, err := xmlenc.Parse(p)
				if err != nil {
					continue
				}
				root.Walk(func(n *data.Node) bool {
					if n.Label != "tab" {
						return true
					}
					tabs++
					got, err := FromXML(n)
					want, oerr := oracleFromXML(n)
					if (err == nil) != (oerr == nil) || err == nil && !reflect.DeepEqual(got, want) {
						// the corpora are in the per-cell form, read alike
						t.Errorf("%s: %s\nreads %v, %v\noracle %v, %v", f, xmlenc.Serialize(n), got, err, want, oerr)
					}
					return false
				})
			}
		}
	}
	if tabs == 0 {
		t.Fatal("the corpora hold no <tab>")
	}
}

// corpusBytes reads one input of a Go fuzz corpus file ([]byte("…")).
func corpusBytes(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, lit, ok := strings.Cut(strings.TrimSpace(string(b)), "\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: not a []byte corpus entry", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return s
}

// splitFrames cuts a byte stream into its length-prefixed frames, as many as
// arrive whole.
func splitFrames(s string) []string {
	var out []string
	for len(s) >= 4 {
		n := int(s[0])<<24 | int(s[1])<<16 | int(s[2])<<8 | int(s[3])
		if n > len(s)-4 {
			break
		}
		out = append(out, s[4:4+n])
		s = s[4+n:]
	}
	return out
}

// TestCellKeysPinned pins Cell.Key for every cell kind, as it read when the
// tree and seq keys were formatted with fmt.
func TestCellKeysPinned(t *testing.T) {
	work := data.Elem("work", data.Text("title", "Nympheas"), data.IntLeaf("year", 1897))
	nested := New("$y")
	nested.AddRow(Row{AtomCell(data.Int(1))})
	for _, c := range []struct {
		cell Cell
		want string
	}{
		{Null(), "_"},
		{AtomCell(data.Int(-3)), "a:Int:-3"},
		{AtomCell(data.Float(2.5)), "a:Float:2.5"},
		{AtomCell(data.String("x")), "a:String:x"},
		{TreeCell(work), "t:4c0b761b9cf8a31c"},
		{TreeCell(data.Elem("e443")), "t:007b53e6a1a6f5ce"}, // leading zeros
		{TreeCell(data.Text("leaf", "v")), "a:String:v"},
		{SeqCell(data.Forest{work, data.Elem("e443")}), "s:4c0b761b9cf8a31c.007b53e6a1a6f5ce."},
		{SeqCell(nil), "s:"},
		{TabCell(nested), "T:$y\n1 \n"},
	} {
		if got := c.cell.Key(); got != c.want {
			t.Errorf("%s: Key = %q, want %q", c.cell, got, c.want)
		}
	}
}

func TestMarshalAllocs(t *testing.T) {
	rows := atomTab(64)
	// measured: 8, the growth of the one buffer AppendXML writes the three
	// <col>s into (18 when the tab went through its XML tree, 1,245 when
	// that was built node by node)
	if n := testing.AllocsPerRun(20, func() { _ = Marshal(rows) }); n > 8 {
		t.Errorf("Marshal of a 64-row atom tab: %v allocations, want at most 8", n)
	}
}

// TestKeyLenIsKeyLength holds Cell.KeyLen, which measures a shipped cell, to
// the length of the key it does not build, for every cell of oracleTabs and
// of the tabs nested in them.
func TestKeyLenIsKeyLength(t *testing.T) {
	var check func(tb *Tab)
	check = func(tb *Tab) {
		for _, r := range tb.Rows {
			for _, c := range r {
				if got, want := c.KeyLen(), len(c.Key()); got != want {
					t.Errorf("%s: KeyLen %d, len(Key) %d", c, got, want)
				}
				if c.Kind == CTab {
					check(c.Tab)
				}
			}
		}
	}
	for _, tb := range oracleTabs() {
		check(tb)
	}
}
