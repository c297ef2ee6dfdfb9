package syntax

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/data"
)

// TestLex pins each token class and each pair of tokens that some parser
// reads as one thing: the lexer itself never does.
func TestLex(t *testing.T) {
	w := func(s string, pos int) Token { return Token{Word, s, pos} }
	v := func(s string, pos int) Token { return Token{Var, s, pos} }
	n := func(s string, pos int) Token { return Token{Number, s, pos} }
	p := func(s string, pos int) Token { return Token{Punct, s, pos} }
	for _, tc := range []struct {
		src  string
		want []Token
	}{
		{`title`, []Token{w("title", 0)}},
		{`more-info t'`, []Token{w("more-info", 0), w("t'", 10)}},
		{`$t' $1`, []Token{v("$t'", 0), v("$1", 4)}},
		{`1897 29.2`, []Token{n("1897", 0), n("29.2", 5)}},
		{`1e+06 2.5000005e+06 1e-05 2E3`, []Token{n("1e+06", 0), n("2.5000005e+06", 6), n("1e-05", 20), n("2E3", 26)}},
		{`1e 1ex`, []Token{n("1", 0), w("e", 1), n("1", 3), w("ex", 4)}}, // no digit, no exponent
		{`"Giverny"`, []Token{{String, "Giverny", 0}}},
		{`-5`, []Token{p("-", 0), n("5", 1)}},
		{`$a - 1`, []Token{v("$a", 0), p("-", 3), n("1", 5)}},
		{`@id`, []Token{p("@", 0), w("id", 1)}},
		{`work@$w`, []Token{w("work", 0), p("@", 4), v("$w", 5)}},
		{`$p@Float`, []Token{v("$p", 0), p("@", 2), w("Float", 3)}},
		{`f($x) := r`, []Token{w("f", 0), p("(", 1), v("$x", 2), p(")", 4), p(":=", 6), w("r", 9)}},
		{`doc.**.x`, []Token{w("doc", 0), p(".", 3), p("**", 4), p(".", 6), w("x", 7)}},
		{`a != b <= c >= d < e`, []Token{w("a", 0), p("!=", 2), w("b", 5), p("<=", 7), w("c", 10), p(">=", 12), w("d", 15), p("<", 17), w("e", 19)}},
		{"a # MAKE \"\n;", []Token{w("a", 0), p(";", 11)}},
		{"\"#\" # x", []Token{{String, "#", 0}}},
		{"", nil},
	} {
		got, err := Lex(tc.src)
		if err != nil {
			t.Errorf("Lex(%q): %v", tc.src, err)
			continue
		}
		want := append(tc.want, Token{EOF, "", len(tc.src)})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Lex(%q) =\n %v\nwant\n %v", tc.src, got, want)
		}
	}
	for _, bad := range []string{`"open`, `"a\"`, `"\q"`, `"\'"`, `$`, `$ x`, `!`, `a ? b`, `é`} {
		if toks, err := Lex(bad); err == nil {
			t.Errorf("Lex(%q) = %v, want an error", bad, toks)
		}
	}
}

// TestLexInvertsQuote states the printer/lexer inverse once: every printer
// writes a string constant with %q, and the lexer reads it back unchanged.
// Raw bytes, which no printer writes but people type, stand for themselves.
func TestLexInvertsQuote(t *testing.T) {
	for _, s := range []string{
		"", "plain", "a\nb", "a\tb", "a\x01b", "\x00", "é", "😀", "\u2028", "\xff", `\`, `"`,
		`a\";b`, `a" # b`, "\\n", `C:\path\to`, "a <b> & \"c\"  double  space",
	} {
		toks, err := Lex(fmt.Sprintf("%q", s))
		if err != nil || len(toks) != 2 || toks[0].Kind != String || toks[0].Text != s {
			t.Errorf("Lex(%%q of %q) = %v, %v", s, toks, err)
		}
	}
	if toks, _ := Lex("\"a\nb\té\""); toks[0].Text != "a\nb\té" {
		t.Errorf("raw bytes = %q", toks[0].Text)
	}
}

func TestCursorLiteralAndGlued(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want data.Atom
		ok   bool
	}{
		{`7`, data.Int(7), true},
		{`-5`, data.Int(-5), true},
		{`2.5`, data.Float(2.5), true},
		{`1e+06`, data.Float(1e6), true},
		{`-1.5e+06`, data.Float(-1.5e6), true},
		{`"x"`, data.String("x"), true},
		{`- 5`, data.Atom{}, false}, // not glued: an operator and a number
		{`-$a`, data.Atom{}, false},
		{`title`, data.Atom{}, false},
	} {
		c, err := newCursor(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		a, ok, err := c.Literal()
		if err != nil || ok != tc.ok || (ok && !reflect.DeepEqual(a, tc.want)) {
			t.Errorf("Literal(%q) = %v, %v, %v; want %v, %v", tc.src, a, ok, err, tc.want, tc.ok)
		}
		if ok && c.Cur().Kind != EOF || !ok && c.Cur().Pos != 0 {
			t.Errorf("Literal(%q) left the cursor at %v", tc.src, c.Cur())
		}
	}
	for _, bad := range []string{`1.2.3`, `99999999999999999999`, `1e999`} {
		c, _ := newCursor(bad)
		if _, ok, err := c.Literal(); !ok || err == nil {
			t.Errorf("Literal(%q) must report a bad number", bad)
		}
	}
	c, _ := newCursor(`@id @ x`)
	if !c.Glued(Word) {
		t.Error("@id is glued")
	}
	c.Next()
	c.Next()
	if c.Glued(Word) {
		t.Error("@ x is not glued")
	}
}

func TestParseRequiresEOF(t *testing.T) {
	word := func(c *Cursor) (string, error) { return c.Next().Text, nil }
	if got, err := Parse(`a # comment`, "test", word); err != nil || got != "a" {
		t.Errorf("Parse = %q, %v", got, err)
	}
	if _, err := Parse(`a b`, "test", word); err == nil || err.Error() != "test: trailing input at offset 2" {
		t.Errorf("trailing input: %v", err)
	}
	if _, err := Parse(`"a`, "test", word); err == nil || err.Error() != "test: unterminated string at offset 0" {
		t.Errorf("lex error: %v", err)
	}
}
