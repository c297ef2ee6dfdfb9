package o2

import (
	"fmt"
	"strconv"
	"strings"
)

// OQL subset: select [distinct] <projection> from <ranges> [where <pred>]
// [order by <exprs>], with path expressions navigating attributes and
// references, dependent ranges over nested collections (o in A.owners),
// ranges over a collection literal (b in bag(tuple(i: 0, t: "x"), …)) and
// method calls (A.current_price()). This is the fragment exercised by the
// wrapper translation of Section 4.1.

// Query is a parsed OQL query.
type Query struct {
	Distinct bool
	Star     bool
	Proj     []ProjItem
	Ranges   []Range
	Where    OExpr
	OrderBy  []OrderItem
}

// ProjItem is one projection, optionally labeled (struct projection).
type ProjItem struct {
	Name string
	E    OExpr
}

// Range is `var in path`, or `var in bag(tuple(i: 0, a: "x"), …)`: a
// collection literal (Lit, with Path nil) that the range iterates in place
// of a path. That is how a wrapper hands a set of bindings to one query.
type Range struct {
	Var  string
	Path *OPath
	Lit  *Val
}

func (r Range) oqlString() string {
	if r.Lit != nil {
		return r.Var + " in " + r.Lit.String()
	}
	return r.Var + " in " + r.Path.oqlString()
}

// OrderItem is one order-by key.
type OrderItem struct {
	E    OExpr
	Desc bool
}

// OExpr is an OQL expression node.
type OExpr interface{ oqlString() string }

// OPath is a path expression: root identifier followed by attribute steps
// and method calls.
type OPath struct {
	Root  string
	Steps []OStep
}

// OStep is one path step.
type OStep struct {
	Name   string
	Method bool
}

func (p *OPath) oqlString() string {
	var b strings.Builder
	b.WriteString(p.Root)
	for _, s := range p.Steps {
		b.WriteByte('.')
		b.WriteString(s.Name)
		if s.Method {
			b.WriteString("()")
		}
	}
	return b.String()
}

// OLit is a literal.
type OLit struct{ V Val }

func (l OLit) oqlString() string { return l.V.String() }

// OCmp is a comparison.
type OCmp struct {
	Op   string
	L, R OExpr
}

func (c OCmp) oqlString() string {
	return operand(c.L) + " " + c.Op + " " + operand(c.R)
}

// operand prints an operand of a comparison or of arithmetic. A comparison
// or a negation in that place was written in parentheses, which the tree
// does not keep; and/or and arithmetic print their own.
func operand(e OExpr) string {
	s := e.oqlString()
	switch x := e.(type) {
	case OCmp:
		return "(" + s + ")"
	case OBool:
		if x.Op == "not" {
			return "(" + s + ")"
		}
	}
	return s
}

// OBool is a boolean connective (and/or) or negation (not, L nil).
type OBool struct {
	Op   string
	L, R OExpr
}

func (b OBool) oqlString() string {
	if b.Op == "not" {
		return "not (" + b.R.oqlString() + ")"
	}
	return "(" + b.L.oqlString() + " " + b.Op + " " + b.R.oqlString() + ")"
}

// OArith is arithmetic.
type OArith struct {
	Op   string
	L, R OExpr
}

func (a OArith) oqlString() string {
	return "(" + operand(a.L) + " " + a.Op + " " + operand(a.R) + ")"
}

// String renders the query in OQL concrete syntax.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("select ")
	if q.Distinct {
		b.WriteString("distinct ")
	}
	if q.Star {
		b.WriteString("*")
	} else {
		parts := make([]string, len(q.Proj))
		for i, p := range q.Proj {
			if p.Name != "" {
				parts[i] = p.Name + ": " + p.E.oqlString()
			} else {
				parts[i] = p.E.oqlString()
			}
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	b.WriteString("\nfrom ")
	parts := make([]string, len(q.Ranges))
	for i, r := range q.Ranges {
		parts[i] = r.oqlString()
	}
	b.WriteString(strings.Join(parts, ", "))
	if q.Where != nil {
		b.WriteString("\nwhere ")
		b.WriteString(q.Where.oqlString())
	}
	if len(q.OrderBy) > 0 {
		b.WriteString("\norder by ")
		op := make([]string, len(q.OrderBy))
		for i, o := range q.OrderBy {
			op[i] = o.E.oqlString()
			if o.Desc {
				op[i] += " desc"
			}
		}
		b.WriteString(strings.Join(op, ", "))
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Lexer / parser
// ---------------------------------------------------------------------------

type otok struct {
	kind string // kw, ident, num, str, punct, eof
	text string
	pos  int
}

var oqlKeywords = map[string]bool{
	"select": true, "distinct": true, "from": true, "where": true,
	"order": true, "by": true, "in": true, "and": true, "or": true,
	"not": true, "asc": true, "desc": true, "true": true, "false": true,
}

func olex(src string) ([]otok, error) {
	var toks []otok
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '<' && i+1 < len(src) && src[i+1] == '=',
			c == '>' && i+1 < len(src) && src[i+1] == '=',
			c == '!' && i+1 < len(src) && src[i+1] == '=',
			c == '<' && i+1 < len(src) && src[i+1] == '>':
			toks = append(toks, otok{"punct", src[i : i+2], i})
			i += 2
		case strings.IndexByte("().,:*+-/<>=", c) >= 0:
			toks = append(toks, otok{"punct", string(c), i})
			i++
		case c == '"' || c == '\'':
			q := c
			start := i
			i++
			var b strings.Builder
			for i < len(src) && src[i] != q {
				if src[i] != '\\' {
					b.WriteByte(src[i])
					i++
					continue
				}
				// The escapes Val.String writes (Go's %q) read back as the
				// byte or rune they stand for; after any other backslash the
				// next byte stands for itself.
				r, multibyte, tail, err := strconv.UnquoteChar(src[i:], q)
				if err != nil {
					i++
					if i < len(src) {
						b.WriteByte(src[i])
						i++
					}
					continue
				}
				if multibyte {
					b.WriteRune(r)
				} else {
					b.WriteByte(byte(r))
				}
				i = len(src) - len(tail)
			}
			if i >= len(src) {
				return nil, fmt.Errorf("oql: unterminated string at offset %d", start)
			}
			i++
			toks = append(toks, otok{"str", b.String(), start})
		case c >= '0' && c <= '9':
			start := i
			for i < len(src) && (src[i] >= '0' && src[i] <= '9' || src[i] == '.') {
				i++
			}
			toks = append(toks, otok{"num", src[start:i], start})
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			start := i
			for i < len(src) && (src[i] == '_' || src[i] >= 'a' && src[i] <= 'z' ||
				src[i] >= 'A' && src[i] <= 'Z' || src[i] >= '0' && src[i] <= '9') {
				i++
			}
			word := src[start:i]
			kind := "ident"
			if oqlKeywords[strings.ToLower(word)] {
				kind = "kw"
				word = strings.ToLower(word)
			}
			toks = append(toks, otok{kind, word, start})
		default:
			return nil, fmt.Errorf("oql: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, otok{"eof", "", i})
	return toks, nil
}

type oparser struct {
	toks []otok
	i    int
}

func (p *oparser) cur() otok { return p.toks[p.i] }

func (p *oparser) kw(s string) bool {
	t := p.cur()
	return t.kind == "kw" && t.text == s
}

func (p *oparser) punct(s string) bool {
	t := p.cur()
	return t.kind == "punct" && t.text == s
}

// next reports whether the token after the current one is the punctuation s.
func (p *oparser) next(s string) bool {
	t := p.toks[p.i+1]
	return t.kind == "punct" && t.text == s
}

func (p *oparser) expectKw(s string) error {
	if !p.kw(s) {
		return fmt.Errorf("oql: expected %q at offset %d, got %q", s, p.cur().pos, p.cur().text)
	}
	p.i++
	return nil
}

// ParseOQL parses an OQL query.
func ParseOQL(src string) (*Query, error) {
	toks, err := olex(src)
	if err != nil {
		return nil, err
	}
	p := &oparser{toks: toks}
	q := &Query{}
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	if p.kw("distinct") {
		p.i++
		q.Distinct = true
	}
	if p.punct("*") {
		p.i++
		q.Star = true
	} else {
		for {
			item := ProjItem{}
			// Labeled projection: IDENT ':' expr
			if p.cur().kind == "ident" && p.next(":") {
				item.Name = p.cur().text
				p.i += 2
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item.E = e
			q.Proj = append(q.Proj, item)
			if p.punct(",") {
				p.i++
				continue
			}
			break
		}
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	for {
		v := p.cur()
		if v.kind != "ident" {
			return nil, fmt.Errorf("oql: expected range variable at offset %d", v.pos)
		}
		p.i++
		if err := p.expectKw("in"); err != nil {
			return nil, err
		}
		r := Range{Var: v.text}
		if p.cur().kind == "ident" && p.next("(") {
			// No path has a '(' after its root: a collection literal.
			lit, err := p.value()
			if err != nil {
				return nil, err
			}
			if lit.Kind != VColl {
				return nil, fmt.Errorf("oql: range %s iterates a non-collection %s", v.text, lit)
			}
			r.Lit = &lit
		} else if r.Path, err = p.path(); err != nil {
			return nil, err
		}
		q.Ranges = append(q.Ranges, r)
		if p.punct(",") {
			p.i++
			continue
		}
		break
	}
	if p.kw("where") {
		p.i++
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	if p.kw("order") {
		p.i++
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{E: e}
			if p.kw("desc") {
				p.i++
				item.Desc = true
			} else if p.kw("asc") {
				p.i++
			}
			q.OrderBy = append(q.OrderBy, item)
			if p.punct(",") {
				p.i++
				continue
			}
			break
		}
	}
	if p.cur().kind != "eof" {
		return nil, fmt.Errorf("oql: trailing input at offset %d", p.cur().pos)
	}
	return q, nil
}

func (p *oparser) path() (*OPath, error) {
	t := p.cur()
	if t.kind != "ident" {
		return nil, fmt.Errorf("oql: expected identifier at offset %d", t.pos)
	}
	p.i++
	path := &OPath{Root: t.text}
	for p.punct(".") {
		p.i++
		s := p.cur()
		if s.kind != "ident" {
			return nil, fmt.Errorf("oql: expected attribute after '.' at offset %d", s.pos)
		}
		p.i++
		step := OStep{Name: s.text}
		if p.punct("(") {
			p.i++
			if !p.punct(")") {
				return nil, fmt.Errorf("oql: method arguments are not supported at offset %d", p.cur().pos)
			}
			p.i++
			step.Method = true
		}
		path.Steps = append(path.Steps, step)
	}
	return path, nil
}

var collKinds = map[string]CollKind{"set": CSet, "bag": CBag, "list": CList, "array": CArray}

// value parses a literal as Val.String writes it: an atom, tuple(name: v, …)
// or a collection constructor over values, bag(v, …).
func (p *oparser) value() (Val, error) {
	t := p.cur()
	kind, isColl := collKinds[t.text]
	if cons := t.kind == "ident" && p.next("(") && (isColl || t.text == "tuple"); !cons {
		e, err := p.unary()
		if err != nil {
			return Nil(), err
		}
		lit, ok := e.(OLit)
		if !ok {
			return Nil(), fmt.Errorf("oql: expected a literal at offset %d", t.pos)
		}
		return lit.V, nil
	}
	p.i += 2
	var elems []Val
	var pairs []any
	for !p.punct(")") {
		if len(elems)+len(pairs) > 0 {
			if !p.punct(",") {
				return Nil(), fmt.Errorf("oql: expected ',' or ')' at offset %d", p.cur().pos)
			}
			p.i++
		}
		if !isColl {
			if p.cur().kind != "ident" || !p.next(":") {
				return Nil(), fmt.Errorf("oql: expected a field name at offset %d", p.cur().pos)
			}
			pairs = append(pairs, p.cur().text)
			p.i += 2
		}
		v, err := p.value()
		if err != nil {
			return Nil(), err
		}
		if isColl {
			elems = append(elems, v)
		} else {
			pairs = append(pairs, v)
		}
	}
	p.i++
	if isColl {
		return Coll(kind, elems...), nil
	}
	return Tuple(pairs...), nil
}

func (p *oparser) expr() (OExpr, error) { return p.orExpr() }

func (p *oparser) orExpr() (OExpr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.kw("or") {
		p.i++
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = OBool{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *oparser) andExpr() (OExpr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.kw("and") {
		p.i++
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = OBool{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *oparser) notExpr() (OExpr, error) {
	if p.kw("not") {
		p.i++
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return OBool{Op: "not", R: e}, nil
	}
	return p.cmpExpr()
}

func (p *oparser) cmpExpr() (OExpr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"<=", ">=", "!=", "<>", "=", "<", ">"} {
		if p.punct(op) {
			p.i++
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			if op == "<>" {
				op = "!="
			}
			return OCmp{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *oparser) addExpr() (OExpr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.punct("+") || p.punct("-") {
		op := p.cur().text
		p.i++
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = OArith{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *oparser) mulExpr() (OExpr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.punct("*") || p.punct("/") {
		op := p.cur().text
		p.i++
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = OArith{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *oparser) unary() (OExpr, error) {
	t := p.cur()
	switch {
	case p.punct("-"):
		p.i++
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		// A negated number is a literal, so that `x = -5` prints as it was
		// read and can pin an index.
		if lit, ok := e.(OLit); ok && lit.V.Kind == VInt {
			return OLit{Int(-lit.V.I)}, nil
		} else if ok && lit.V.Kind == VFloat {
			return OLit{Float(-lit.V.F)}, nil
		}
		return OArith{Op: "-", L: OLit{Int(0)}, R: e}, nil
	case p.punct("("):
		p.i++
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if !p.punct(")") {
			return nil, fmt.Errorf("oql: expected ')' at offset %d", p.cur().pos)
		}
		p.i++
		return e, nil
	case t.kind == "num":
		p.i++
		// Digits alone are an integer, unless they overflow one: a large
		// float prints without a fraction (Val.String).
		if v, err := strconv.ParseInt(t.text, 10, 64); err == nil {
			return OLit{Int(v)}, nil
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("oql: bad number %q", t.text)
		}
		return OLit{Float(f)}, nil
	case t.kind == "str":
		p.i++
		return OLit{Str(t.text)}, nil
	case t.kind == "kw" && (t.text == "true" || t.text == "false"):
		p.i++
		return OLit{Bool(t.text == "true")}, nil
	case t.kind == "ident":
		return p.path()
	default:
		return nil, fmt.Errorf("oql: unexpected %q at offset %d", t.text, t.pos)
	}
}
