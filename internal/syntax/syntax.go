// Package syntax is the lexical grammar of YAT_L, the one tokenizer behind
// every textual syntax the mediator prints and reads back: rules and queries
// (internal/yatl), filters (internal/filter), constructions and expressions
// (internal/algebra) and structural patterns (internal/pattern). A plan
// pushed to a wrapper carries those texts inside XML, so the wrapper reads
// exactly what the mediator printed only if all of them agree on what a token
// is; this package is where they agree.
//
//	token    = word | variable | number | string | punct
//	word     = start { start | digit | "-" | "'" }      start = "_" | "A"…"Z" | "a"…"z"
//	variable = "$" ( start | digit | "-" | "'" ) { start | digit | "-" | "'" }
//	number   = digit { digit | "." } [ ( "e" | "E" ) [ "+" | "-" ] digit { digit } ]
//	string   = `"` { any byte but `"` and `\` | escape } `"`
//	punct    = "**" | ":=" | "!=" | "<=" | ">=" | one of  [ ] ( ) : , . ~ & * + - / < > = % @ | ;
//	comment  = "#" { any byte but newline }
//
// Blanks and comments separate tokens and are otherwise ignored. A number is
// Go's float syntax, exponent included, because data.Atom.Text prints large
// and small floats as 1e+06 and 1e-05; it is an Int unless it has a "." or an
// exponent. A string's escapes are Go's, decoded by strconv.UnquoteChar — the
// inverse of the %q every printer writes — and every other byte, a raw
// newline included, stands for itself.
//
// The lexer is context-free: "-" before a digit and "@" before a name are two
// tokens everywhere. A parser that gives such a pair a meaning — a negative
// constant in filters, patterns and constructions (subtraction in
// expressions), an attribute label "@id" in patterns (a binder or type marker
// after a filter node) — asks the Cursor whether the two touch (Glued).
package syntax

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/data"
)

// Kind classifies a token.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	Word
	Var
	Number
	String
	Punct
)

// Token is one lexeme. Text is the source spelling, except for a String,
// whose Text is the decoded value; Pos is the byte offset of its first byte.
type Token struct {
	Kind Kind
	Text string
	Pos  int
}

// Lex splits src into tokens, ending with one EOF token.
func Lex(src string) ([]Token, error) {
	var toks []Token
	i := 0
	for i < len(src) {
		c := src[i]
		start := i
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
			continue
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
			continue
		case c == '"':
			s, n, err := lexString(src[i:])
			if err != nil {
				return nil, fmt.Errorf("%v at offset %d", err, i)
			}
			toks = append(toks, Token{String, s, i})
			i += n
			continue
		case c == '$':
			i++
			for i < len(src) && isWordByte(src[i]) {
				i++
			}
			if i == start+1 {
				return nil, fmt.Errorf("empty variable at offset %d", start)
			}
			toks = append(toks, Token{Var, src[start:i], start})
			continue
		case isDigit(c):
			i = lexNumber(src, i)
			toks = append(toks, Token{Number, src[start:i], start})
			continue
		case isWordStart(c):
			for i < len(src) && isWordByte(src[i]) {
				i++
			}
			toks = append(toks, Token{Word, src[start:i], start})
			continue
		}
		if i+1 < len(src) {
			switch two := src[i : i+2]; two {
			case "**", ":=", "!=", "<=", ">=":
				toks = append(toks, Token{Punct, two, i})
				i += 2
				continue
			}
		}
		if strings.IndexByte("[]():,.~&*+-/<>=%@|;", c) < 0 {
			return nil, fmt.Errorf("unexpected character %q at offset %d", c, i)
		}
		toks = append(toks, Token{Punct, src[i : i+1], i})
		i++
	}
	return append(toks, Token{EOF, "", len(src)}), nil
}

// lexString reads the string literal that src starts with and returns its
// decoded value and its length in bytes.
func lexString(src string) (string, int, error) {
	i := 1
	for i < len(src) && src[i] != '"' && src[i] != '\\' {
		i++
	}
	if i < len(src) && src[i] == '"' {
		return src[1:i], i + 1, nil // no escapes: the value is the source
	}
	var b strings.Builder
	b.WriteString(src[1:i])
	for i < len(src) && src[i] != '"' {
		if src[i] != '\\' {
			b.WriteByte(src[i])
			i++
			continue
		}
		r, multibyte, tail, err := strconv.UnquoteChar(src[i:], '"')
		if err != nil {
			return "", 0, fmt.Errorf("bad escape in string")
		}
		if multibyte {
			b.WriteRune(r)
		} else {
			b.WriteByte(byte(r))
		}
		i = len(src) - len(tail)
	}
	if i >= len(src) {
		return "", 0, fmt.Errorf("unterminated string")
	}
	return b.String(), i + 1, nil
}

// lexNumber returns the end of the number starting at src[i].
func lexNumber(src string, i int) int {
	for i < len(src) && (isDigit(src[i]) || src[i] == '.') {
		i++
	}
	if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
		j := i + 1
		if j < len(src) && (src[j] == '+' || src[j] == '-') {
			j++
		}
		if j < len(src) && isDigit(src[j]) {
			for i = j; i < len(src) && isDigit(src[i]); i++ {
			}
		}
	}
	return i
}

// number converts a number token's text, optionally preceded by "-", to an
// Int atom, or to a Float when it has a "." or an exponent.
func number(text string) (data.Atom, error) {
	if strings.ContainsAny(text, ".eE") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return data.Atom{}, fmt.Errorf("bad number %q", text)
		}
		return data.Float(f), nil
	}
	v, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return data.Atom{}, fmt.Errorf("bad number %q", text)
	}
	return data.Int(v), nil
}

// IsWord reports whether s lexes as exactly one word token.
func IsWord(s string) bool {
	if s == "" || !isWordStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isWordByte(s[i]) {
			return false
		}
	}
	return true
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isWordStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isWordByte(c byte) bool {
	return isWordStart(c) || isDigit(c) || c == '-' || c == '\''
}

// Cursor walks a token slice for a recursive-descent parser. Each parser
// stops at the first token it cannot use and leaves it current, so one
// token stream can be handed from parser to parser.
type Cursor struct {
	toks []Token
	i    int
}

// newCursor lexes src and returns a cursor at its first token.
func newCursor(src string) (*Cursor, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	return &Cursor{toks: toks}, nil
}

// Parse lexes src, runs parse from its first token and requires parse to
// consume every token. Errors are prefixed with who.
func Parse[T any](src, who string, parse func(*Cursor) (T, error)) (T, error) {
	var zero T
	c, err := newCursor(src)
	if err == nil {
		var v T
		if v, err = parse(c); err == nil {
			if c.Cur().Kind == EOF {
				return v, nil
			}
			err = fmt.Errorf("trailing input at offset %d", c.Cur().Pos)
		}
	}
	return zero, fmt.Errorf("%s: %w", who, err)
}

// Cur returns the current token.
func (c *Cursor) Cur() Token { return c.toks[c.i] }

// Peek returns the token after the current one.
func (c *Cursor) Peek() Token {
	if c.i+1 < len(c.toks) {
		return c.toks[c.i+1]
	}
	return c.toks[c.i]
}

// Next returns the current token and advances past it (never past EOF).
func (c *Cursor) Next() Token {
	t := c.toks[c.i]
	if t.Kind != EOF {
		c.i++
	}
	return t
}

// IsPunct reports whether the current token is the punctuation s.
func (c *Cursor) IsPunct(s string) bool {
	t := c.Cur()
	return t.Kind == Punct && t.Text == s
}

// IsKeyword reports whether the current token is the word s, in any case.
func (c *Cursor) IsKeyword(s string) bool {
	t := c.Cur()
	return t.Kind == Word && strings.EqualFold(t.Text, s)
}

// Eat consumes the punctuation s or reports what stands in its place.
func (c *Cursor) Eat(s string) error {
	if !c.IsPunct(s) {
		return fmt.Errorf("expected %q at offset %d, got %s", s, c.Cur().Pos, show(c.Cur()))
	}
	c.i++
	return nil
}

// Unexpected reports the current token as one the parser cannot use.
func (c *Cursor) Unexpected() error {
	return fmt.Errorf("unexpected %s at offset %d", show(c.Cur()), c.Cur().Pos)
}

// show quotes a token for an error message, cut short when it is long.
func show(t Token) string {
	switch {
	case t.Kind == EOF:
		return "end of input"
	case len(t.Text) > 32:
		return fmt.Sprintf("%q…", t.Text[:32])
	}
	return fmt.Sprintf("%q", t.Text)
}

// Glued reports whether the current token is punctuation immediately
// followed, with nothing between them, by a token of kind k.
func (c *Cursor) Glued(k Kind) bool {
	t, u := c.Cur(), c.Peek()
	return t.Kind == Punct && u.Kind == k && t.Pos+len(t.Text) == u.Pos
}

// Literal consumes a constant: a string, a number, or a "-" glued to a
// number (a negative number). At any other token it consumes nothing and
// ok is false.
func (c *Cursor) Literal() (a data.Atom, ok bool, err error) {
	t := c.Cur()
	switch {
	case t.Kind == String:
		c.i++
		return data.String(t.Text), true, nil
	case t.Kind == Number:
		c.i++
		a, err = number(t.Text)
	case c.IsPunct("-") && c.Glued(Number):
		c.i += 2
		a, err = number("-" + c.toks[c.i-1].Text)
	default:
		return a, false, nil
	}
	if err != nil {
		return a, true, fmt.Errorf("%v at offset %d", err, t.Pos)
	}
	return a, true, nil
}
