package o2

import (
	"fmt"
	"sort"
)

// OQL evaluation: nested-loop iteration over the from-ranges with dependent
// paths, predicate filtering, struct projection, distinct and order-by.
// When the where-clause equates indexed attributes of an extent range with
// literals or with paths on variables bound further out, the most selective
// of those hash indexes restricts the range's candidates (extentCandidates)
// — the associative access of Section 5.3.

type oenv map[string]Val

// Execute parses and runs an OQL query, returning the result collection
// (a bag, or a set under distinct).
func (db *DB) Execute(src string) (Val, error) {
	q, err := ParseOQL(src)
	if err != nil {
		return Nil(), err
	}
	return db.Run(q)
}

// Run evaluates a parsed query. Concurrent Runs are safe: evaluation only
// reads the schema, extents and indexes; the query counter is locked.
func (db *DB) Run(q *Query) (Val, error) {
	db.statsMu.Lock()
	db.QueriesRun++
	db.statsMu.Unlock()
	var out []Val
	env := oenv{}
	err := db.iterate(q, q.Ranges, env, func() error {
		if q.Where != nil {
			ok, err := db.truth(q.Where, env)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		v, err := db.project(q, env)
		if err != nil {
			return err
		}
		out = append(out, v)
		return nil
	})
	if err != nil {
		return Nil(), err
	}
	if len(q.OrderBy) > 0 {
		if err := db.orderBy(q, out, env); err != nil {
			return Nil(), err
		}
	}
	kind := CBag
	if q.Distinct {
		kind = CSet
		var dedup []Val
		for _, v := range out {
			found := false
			for _, d := range dedup {
				if d.Equal(v) {
					found = true
					break
				}
			}
			if !found {
				dedup = append(dedup, v)
			}
		}
		out = dedup
	}
	return Coll(kind, out...), nil
}

// orderBy sorts results by re-evaluating order keys; it requires each order
// key to be a projected field or a literal path over the projection.
func (db *DB) orderBy(q *Query, out []Val, env oenv) error {
	keys := make([][]Val, len(out))
	for i, row := range out {
		keys[i] = make([]Val, len(q.OrderBy))
		for j, ob := range q.OrderBy {
			// Order keys reference projected fields by name.
			p, ok := ob.E.(*OPath)
			if !ok || len(p.Steps) != 0 || row.Kind != VTuple {
				return fmt.Errorf("oql: order by supports projected field names only")
			}
			v, exists := row.Fields[p.Root]
			if !exists {
				return fmt.Errorf("oql: order by unknown field %q", p.Root)
			}
			keys[i][j] = v
		}
	}
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for j, ob := range q.OrderBy {
			c := keys[idx[a]][j].Compare(keys[idx[b]][j])
			if ob.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	sorted := make([]Val, len(out))
	for i, k := range idx {
		sorted[i] = out[k]
	}
	copy(out, sorted)
	return nil
}

func (db *DB) project(q *Query, env oenv) (Val, error) {
	if q.Star {
		if len(q.Ranges) == 1 {
			return env[q.Ranges[0].Var], nil
		}
		pairs := []any{}
		for _, r := range q.Ranges {
			pairs = append(pairs, r.Var, env[r.Var])
		}
		return Tuple(pairs...), nil
	}
	if len(q.Proj) == 1 && q.Proj[0].Name == "" {
		return db.eval(q.Proj[0].E, env)
	}
	pairs := []any{}
	for i, p := range q.Proj {
		v, err := db.eval(p.E, env)
		if err != nil {
			return Nil(), err
		}
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("f%d", i+1)
		}
		pairs = append(pairs, name, v)
	}
	return Tuple(pairs...), nil
}

// iterate runs fn for every binding of the remaining ranges.
func (db *DB) iterate(q *Query, ranges []Range, env oenv, fn func() error) error {
	if len(ranges) == 0 {
		return fn()
	}
	r, rest := ranges[0], ranges[1:]
	defer delete(env, r.Var)
	if oids, ok := db.extentCandidates(q, r, env); ok {
		for _, oid := range oids {
			env[r.Var] = Oid(oid)
			if err := db.iterate(q, rest, env, fn); err != nil {
				return err
			}
		}
		return nil
	}
	var coll Val
	if r.Lit != nil {
		coll = *r.Lit
	} else {
		var err error
		if coll, err = db.evalPath(r.Path, env); err != nil {
			return err
		}
	}
	if coll.Kind != VColl {
		return fmt.Errorf("oql: range %s iterates a non-collection %s", r.Var, coll)
	}
	for _, elem := range coll.Elems {
		env[r.Var] = elem
		if err := db.iterate(q, rest, env, fn); err != nil {
			return err
		}
	}
	return nil
}

// extentCandidates is the access path of a range that scans a whole extent:
// the oids to try, in extent order, and whether r is such a range. Every
// where-conjunct `r.attr = e` whose e is a literal or a path on a variable
// bound further out (a binding passed in, an outer range: index nested
// loop) probes the hash index on attr, if there is one, and the shortest
// posting list wins; without a usable index it is the extent itself. The
// caller still checks the whole where-clause on each candidate, so the
// choice changes what is visited, never what is answered.
func (db *DB) extentCandidates(q *Query, r Range, env oenv) ([]string, bool) {
	if r.Path == nil || len(r.Path.Steps) != 0 {
		return nil, false
	}
	if _, bound := env[r.Path.Root]; bound {
		return nil, false
	}
	best, ok := db.Extents[r.Path.Root]
	if !ok {
		return nil, false
	}
	if cls := db.Schema.ClassByExtent(r.Path.Root); cls != nil && q.Where != nil {
		db.probe(q.Where, r.Var, cls, env, &best)
	}
	return best, true
}

// probe walks the conjuncts of e and leaves in best the shortest posting
// list that an equality on rangeVar selects.
func (db *DB) probe(e OExpr, rangeVar string, cls *Class, env oenv, best *[]string) {
	switch x := e.(type) {
	case OBool:
		if x.Op == "and" {
			db.probe(x.L, rangeVar, cls, env, best)
			db.probe(x.R, rangeVar, cls, env, best)
		}
	case OCmp:
		if x.Op != "=" {
			return
		}
		attr, key := x.L, x.R
		p, ok := attr.(*OPath)
		if !ok || p.Root != rangeVar {
			attr, key = x.R, x.L
			if p, ok = attr.(*OPath); !ok || p.Root != rangeVar {
				return
			}
		}
		if len(p.Steps) != 1 || p.Steps[0].Method {
			return
		}
		idx, ok := db.indexes[cls.Name+"."+p.Steps[0].Name]
		if !ok {
			return
		}
		var v Val
		switch k := key.(type) {
		case OLit:
			v = k.V
		case *OPath:
			if _, bound := env[k.Root]; !bound {
				return
			}
			var err error
			if v, err = db.evalPath(k, env); err != nil {
				return // the where-clause check reports it, if a candidate gets there
			}
		default:
			return
		}
		if oids := idx[v.String()]; len(oids) < len(*best) {
			*best = oids
		}
	}
}

func (db *DB) truth(e OExpr, env oenv) (bool, error) {
	v, err := db.eval(e, env)
	if err != nil {
		return false, err
	}
	if v.Kind != VBool {
		return false, fmt.Errorf("oql: predicate evaluated to %s, not boolean", v)
	}
	return v.B, nil
}

func (db *DB) eval(e OExpr, env oenv) (Val, error) {
	switch x := e.(type) {
	case OLit:
		return x.V, nil
	case *OPath:
		return db.evalPath(x, env)
	case OCmp:
		l, err := db.eval(x.L, env)
		if err != nil {
			return Nil(), err
		}
		r, err := db.eval(x.R, env)
		if err != nil {
			return Nil(), err
		}
		switch x.Op {
		case "=":
			return Bool(l.Equal(r)), nil
		case "!=":
			return Bool(!l.Equal(r)), nil
		}
		if !l.IsNumeric() && l.Kind != VStr || !r.IsNumeric() && r.Kind != VStr {
			return Nil(), fmt.Errorf("oql: ordered comparison on %s and %s", l, r)
		}
		c := l.Compare(r)
		switch x.Op {
		case "<":
			return Bool(c < 0), nil
		case "<=":
			return Bool(c <= 0), nil
		case ">":
			return Bool(c > 0), nil
		case ">=":
			return Bool(c >= 0), nil
		default:
			return Nil(), fmt.Errorf("oql: unknown comparison %q", x.Op)
		}
	case OBool:
		if x.Op == "not" {
			v, err := db.truth(x.R, env)
			if err != nil {
				return Nil(), err
			}
			return Bool(!v), nil
		}
		l, err := db.truth(x.L, env)
		if err != nil {
			return Nil(), err
		}
		if x.Op == "and" && !l {
			return Bool(false), nil
		}
		if x.Op == "or" && l {
			return Bool(true), nil
		}
		r, err := db.truth(x.R, env)
		if err != nil {
			return Nil(), err
		}
		return Bool(r), nil
	case OArith:
		l, err := db.eval(x.L, env)
		if err != nil {
			return Nil(), err
		}
		r, err := db.eval(x.R, env)
		if err != nil {
			return Nil(), err
		}
		if !l.IsNumeric() || !r.IsNumeric() {
			return Nil(), fmt.Errorf("oql: arithmetic on %s and %s", l, r)
		}
		if l.Kind == VInt && r.Kind == VInt && x.Op != "/" {
			switch x.Op {
			case "+":
				return Int(l.I + r.I), nil
			case "-":
				return Int(l.I - r.I), nil
			case "*":
				return Int(l.I * r.I), nil
			}
		}
		a, b := l.AsFloat(), r.AsFloat()
		switch x.Op {
		case "+":
			return Float(a + b), nil
		case "-":
			return Float(a - b), nil
		case "*":
			return Float(a * b), nil
		case "/":
			if b == 0 {
				return Nil(), fmt.Errorf("oql: division by zero")
			}
			return Float(a / b), nil
		default:
			return Nil(), fmt.Errorf("oql: unknown operator %q", x.Op)
		}
	default:
		return Nil(), fmt.Errorf("oql: unsupported expression %T", e)
	}
}

// evalPath resolves a path: the root is a bound variable or a named extent;
// steps navigate tuple attributes (dereferencing oids transparently) or
// invoke methods.
func (db *DB) evalPath(p *OPath, env oenv) (Val, error) {
	var cur Val
	if v, ok := env[p.Root]; ok {
		cur = v
	} else if oids, ok := db.Extents[p.Root]; ok {
		elems := make([]Val, len(oids))
		for i, oid := range oids {
			elems[i] = Oid(oid)
		}
		cur = Coll(CSet, elems...)
	} else {
		return Nil(), fmt.Errorf("oql: unknown name %q", p.Root)
	}
	for _, s := range p.Steps {
		if s.Method {
			if cur.Kind != VOid {
				return Nil(), fmt.Errorf("oql: method %s on non-object %s", s.Name, cur)
			}
			o := db.Objects[cur.S]
			if o == nil {
				return Nil(), fmt.Errorf("oql: dangling reference %s", cur.S)
			}
			m := db.Schema.Classes[o.Class].Methods[s.Name]
			if m == nil {
				return Nil(), fmt.Errorf("oql: class %s has no method %q", o.Class, s.Name)
			}
			v, err := m.Fn(db, o)
			if err != nil {
				return Nil(), err
			}
			cur = v
			continue
		}
		// Dereference before attribute access.
		if cur.Kind == VOid {
			o := db.Objects[cur.S]
			if o == nil {
				return Nil(), fmt.Errorf("oql: dangling reference %s", cur.S)
			}
			cur = o.Value
		}
		if cur.Kind != VTuple {
			return Nil(), fmt.Errorf("oql: attribute %q on non-tuple %s", s.Name, cur)
		}
		v, ok := cur.Fields[s.Name]
		if !ok {
			return Nil(), fmt.Errorf("oql: unknown attribute %q", s.Name)
		}
		cur = v
	}
	return cur, nil
}
