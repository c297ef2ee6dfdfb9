package pattern

// Emptiness and disjointness analysis over patterns (the "empty
// intersection" machinery behind plan typing, Section 2's instantiation
// order read contrapositively: if no data tree can instantiate both p and
// q, any operator whose input is typed p and whose consumer demands q is
// provably dead).
//
// Both predicates are conservative in the safe direction for static
// analysis: Empty returns true only when p provably has no instances, and
// Disjoint returns true only when p and q provably share no instance.
// "Instance" here means a materialized (non-reference) data tree:
// reference nodes match every node pattern under MatchData, so with refs
// admitted nothing involving node patterns would ever be disjoint. The
// analyses that build on these predicates (a Bind's provable emptiness,
// wire conformance) deal in shipped wrapper rows, which are materialized.

// Empty reports whether p provably has no instances under m: an
// unresolvable reference, a union with no satisfiable alternative, a node
// one of whose mandatory items is empty, or a reference cycle with no
// finite base case (a least-fixpoint reading: every data tree is finite).
func Empty(m *Model, p *P) bool {
	e := &emptiness{m: m, memo: map[*P]bool{}, inflight: map[*P]bool{}}
	return e.empty(p)
}

type emptiness struct {
	m        *Model
	memo     map[*P]bool
	inflight map[*P]bool
}

func (e *emptiness) empty(p *P) bool {
	if p == nil {
		return true
	}
	if v, ok := e.memo[p]; ok {
		return v
	}
	// Inductive (least-fixpoint) treatment of cycles: while a pattern's
	// emptiness is being computed, assume it is empty; only a finite
	// derivation avoiding the cycle can prove it inhabited.
	if e.inflight[p] {
		return true
	}
	e.inflight[p] = true
	defer delete(e.inflight, p)

	v := false
	switch p.Kind {
	case KRef:
		if e.m == nil {
			v = true
		} else if def := e.m.Lookup(p.Name); def == nil {
			v = true
		} else {
			v = e.empty(def)
		}
	case KUnion:
		v = true
		for _, alt := range p.Alts {
			if !e.empty(alt) {
				v = false
				break
			}
		}
	case KNode:
		for _, it := range p.Items {
			if !it.Star && e.empty(it.P) {
				v = true
				break
			}
		}
	}
	e.memo[p] = v
	return v
}

// Disjoint reports whether p (under mp) and q (under mq) provably have no
// common materialized instance. It is sound but incomplete: false means
// "a common instance may exist". Reference patterns are compared
// coinductively (a cyclic comparison with no finite witness of overlap
// stays disjoint).
func Disjoint(mp *Model, p *P, mq *Model, q *P) bool {
	if Empty(mp, p) || Empty(mq, q) {
		return true
	}
	d := &disjointer{mp: mp, mq: mq, assume: map[[2]*P]bool{}}
	return d.disjoint(p, q)
}

type disjointer struct {
	mp, mq *Model
	assume map[[2]*P]bool
}

func (d *disjointer) disjoint(p, q *P) bool {
	if p == nil || q == nil {
		// Unknown type: no claim.
		return false
	}
	key := [2]*P{p, q}
	if v, ok := d.assume[key]; ok {
		return v
	}
	// Coinductive assumption: cyclic pairs are disjoint unless some finite
	// unfolding exhibits a shared shape.
	d.assume[key] = true
	v := d.decide(p, q)
	d.assume[key] = v
	return v
}

func (d *disjointer) decide(p, q *P) bool {
	if p.Kind == KRef {
		if d.mp == nil {
			return false
		}
		def := d.mp.Lookup(p.Name)
		if def == nil {
			return true
		}
		return d.disjoint(def, q)
	}
	if q.Kind == KRef {
		if d.mq == nil {
			return false
		}
		def := d.mq.Lookup(q.Name)
		if def == nil {
			return true
		}
		return d.disjoint(p, def)
	}
	if p.Kind == KUnion {
		for _, alt := range p.Alts {
			if !d.disjoint(alt, q) {
				return false
			}
		}
		return true
	}
	if q.Kind == KUnion {
		for _, alt := range q.Alts {
			if !d.disjoint(p, alt) {
				return false
			}
		}
		return true
	}
	if p.Kind == KAny || q.Kind == KAny {
		return false
	}
	// Normalize so the non-node side (if any) is q.
	if q.Kind == KNode && p.Kind != KNode {
		p, q = q, p
	}
	switch p.Kind {
	case KNode:
		if q.Kind == KNode {
			return d.disjointNodes(p, q)
		}
		return d.disjointNodeAtom(p, q)
	default:
		return atomsDisjoint(p, q)
	}
}

// atomsDisjoint decides disjointness between two atomic/constant patterns.
// Int <: Float, so those two overlap; a constant overlaps exactly the
// atomic kinds that subsume it (mirroring subsumer.sub's KConst cases).
func atomsDisjoint(p, q *P) bool {
	if p.Kind == KConst && q.Kind == KConst {
		return !p.Const.Equal(*q.Const)
	}
	if q.Kind == KConst {
		p, q = q, p
	}
	if p.Kind == KConst {
		// q is a plain atomic kind.
		return !Subsumes(nil, q, nil, p)
	}
	if (p.Kind == KInt || p.Kind == KFloat) && (q.Kind == KInt || q.Kind == KFloat) {
		return false
	}
	return p.Kind != q.Kind
}

// disjointNodeAtom: an atomic (or constant) pattern matches only nodes
// that carry an atom, and a node pattern matches an atom-carrying node
// only through the leaf rule — exactly one item whose pattern matches the
// leaf itself. So the two overlap exactly when p has a single item
// compatible with q.
func (d *disjointer) disjointNodeAtom(p, q *P) bool {
	if len(p.Items) != 1 {
		return true
	}
	return d.disjoint(p.Items[0].P, q)
}

func (d *disjointer) disjointNodes(p, q *P) bool {
	if !p.AnyLabel && !q.AnyLabel && p.Label != q.Label {
		return true
	}
	// Compare mandatory arity ranges: a node with k mandatory items needs
	// at least k children, and with no star items admits at most
	// len(Items) children. (Leaf instances are covered: a leaf matches
	// only patterns with exactly one item, which have arity range
	// containing 1.)
	pMin, pMax := arity(p)
	qMin, qMax := arity(q)
	if pMin > qMax || qMin > pMax {
		return true
	}
	// Single-mandatory-item vs single-mandatory-item: the shared child
	// must instantiate both.
	if pMin == 1 && pMax == 1 && qMin == 1 && qMax == 1 {
		return d.disjoint(firstMandatory(p), firstMandatory(q))
	}
	return false
}

// arity returns the (min, max) number of children a node pattern admits;
// max is maxInt when a starred item is present.
func arity(p *P) (int, int) {
	min, max := 0, 0
	for _, it := range p.Items {
		if it.Star {
			max = int(^uint(0) >> 1)
		} else {
			min++
			if max != int(^uint(0)>>1) {
				max++
			}
		}
	}
	return min, max
}

func firstMandatory(p *P) *P {
	for _, it := range p.Items {
		if !it.Star {
			return it.P
		}
	}
	return nil
}
