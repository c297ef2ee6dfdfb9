package typecheck

import (
	"repro/internal/filter"
	"repro/internal/pattern"
)

// filterTypes types the variables a filter binds when matched against data
// of the given pattern, and reports whether the filter is compatible with
// the pattern at all (false = the filter provably matches no instance, so
// the Bind is dead).
//
// The walk mirrors the matcher: a variable on a content position (the
// virtual unlabeled child exposing a leaf's atom) gets the atomic content
// type; a variable on a structural node gets the node's pattern; label
// variables are strings; collect variables bind sequences and stay
// untyped. When a filter item can align with several pattern items or
// union alternatives, the contributions are joined — the inferred type
// must cover every way the match can go.
func (c *checker) filterTypes(p *pattern.P, f *filter.Filter) (map[string]*pattern.P, bool) {
	w := &fwalker{model: c.ann.Model, types: map[string]*pattern.P{}}
	compatible := true
	if p == nil {
		w.assignAll(f.Root)
	} else {
		compatible = w.walk(f.Root, p)
		if !compatible {
			// Still surface every variable (as Any) so the row type keeps
			// full column coverage.
			w.assignAll(f.Root)
		}
	}
	return w.types, compatible
}

type fwalker struct {
	model *pattern.Model
	types map[string]*pattern.P
}

// assign joins a contribution into a variable's type.
func (w *fwalker) assign(v string, p *pattern.P) {
	if v == "" {
		return
	}
	cur, seen := w.types[v]
	if !seen {
		w.types[v] = p
		return
	}
	if cur == nil || p == nil {
		w.types[v] = nil // unknown absorbs
		return
	}
	w.types[v] = unionType(w.model, cur, p)
}

// assignAll marks every variable below the node as untyped (Any).
func (w *fwalker) assignAll(fn *filter.FNode) {
	if fn == nil {
		return
	}
	w.assign(fn.LabelVar, pattern.Str())
	w.assign(fn.Var, nil)
	for _, it := range fn.Items {
		w.assign(it.CollectVar, nil)
		w.assignAll(it.F)
	}
}

// fork clones the walker for a trial alignment.
func (w *fwalker) fork() *fwalker {
	c := &fwalker{model: w.model, types: make(map[string]*pattern.P, len(w.types))}
	for v, p := range w.types {
		c.types[v] = p
	}
	return c
}

// join folds a successful trial's contributions back into the walker.
func (w *fwalker) join(trial *fwalker) {
	for v, p := range trial.types {
		if cur, seen := w.types[v]; seen {
			if cur == nil || p == nil {
				w.types[v] = nil
			} else if cur != p {
				w.types[v] = unionType(w.model, cur, p)
			}
		} else {
			w.types[v] = p
		}
	}
}

// deref chases references (cycle-safe: resolve returns nil on a pure ref
// cycle, which walk treats as unknown).
func (w *fwalker) deref(p *pattern.P) *pattern.P {
	for p != nil && p.Kind == pattern.KRef {
		if w.model == nil {
			return nil
		}
		next := w.model.Lookup(p.Name)
		if next == nil || next == p {
			return nil
		}
		p = next
	}
	return p
}

// walk aligns a filter node with a pattern, accumulating variable types.
// It returns false only when the filter provably cannot match any
// instance of the pattern.
func (w *fwalker) walk(fn *filter.FNode, p *pattern.P) bool {
	if fn == nil {
		return true
	}
	p = w.deref(p)
	if p == nil || p.Kind == pattern.KAny {
		w.assignAll(fn)
		return true
	}
	switch p.Kind {
	case pattern.KUnion:
		ok := false
		for _, alt := range p.Alts {
			trial := w.fork()
			if trial.walk(fn, alt) {
				w.join(trial)
				ok = true
			}
		}
		return ok

	case pattern.KInt, pattern.KFloat, pattern.KBool, pattern.KString, pattern.KConst:
		// An atomic pattern describes an atom-carrying node of any label.
		if fn.Const != nil && pattern.Disjoint(nil, pattern.Const(*fn.Const), nil, p) {
			return false
		}
		w.assign(fn.LabelVar, pattern.Str())
		if t := w.usableType(fn.Type); t != nil {
			w.assign(fn.Var, t)
		} else {
			w.assign(fn.Var, widen(p))
		}
		// Deeper requirements against an atom: the matcher may still
		// satisfy them through the content child; claim nothing.
		for _, it := range fn.Items {
			w.assign(it.CollectVar, nil)
			w.assignAll(it.F)
		}
		return true

	case pattern.KNode:
		if fn.Label != "" && !p.AnyLabel && fn.Label != p.Label {
			// Collection wrapping: declared structures often describe one
			// member (class[...]) while the filter matches the wrapped
			// extent (set[ *class[...] ]). Align the filter's items
			// against the member pattern directly.
			if pattern.ColFromString(fn.Label) != pattern.ColNone {
				ok := true
				for _, it := range fn.Items {
					w.assign(it.CollectVar, nil)
					if it.F == nil {
						continue
					}
					// Starred items too must match at least once (the
					// matcher fails a node whose required item finds no
					// match), so any unalignable item dooms the filter.
					if !w.walk(it.F, p) {
						ok = false
					}
				}
				w.assign(fn.Var, nil)
				w.assign(fn.LabelVar, pattern.Str())
				return ok
			}
			return false
		}
		w.assign(fn.LabelVar, pattern.Str())
		if t := w.usableType(fn.Type); t != nil {
			w.assign(fn.Var, t)
		} else {
			w.assign(fn.Var, p)
		}
		if fn.Const != nil {
			// A constant leaf requirement against a structural node: the
			// node's single item must admit the constant.
			if len(p.Items) == 1 &&
				pattern.Disjoint(nil, pattern.Const(*fn.Const), w.model, p.Items[0].P) {
				return false
			}
			return true
		}
		ok := true
		for _, it := range fn.Items {
			w.assign(it.CollectVar, nil)
			if it.F == nil {
				continue
			}
			if it.Descend {
				// ** searches arbitrary depth; type its variables Any.
				w.assignAll(it.F)
				continue
			}
			// Starred items too must match at least once (the matcher
			// fails a node whose required item finds no match), so any
			// unalignable item dooms the filter.
			if !w.alignItem(it.F, p) {
				ok = false
			}
		}
		return ok
	default:
		w.assignAll(fn)
		return true
	}
}

// usableType accepts a declared @T filter type as the variable's inferred
// type only when its references resolve under the merged model — a @T
// whose names live solely in the filter's own model would not resolve
// where the annotation is consumed.
func (w *fwalker) usableType(t *pattern.P) *pattern.P {
	if t == nil || !refsResolve(w.model, t, map[*pattern.P]bool{}) {
		return nil
	}
	return t
}

func refsResolve(m *pattern.Model, p *pattern.P, seen map[*pattern.P]bool) bool {
	if p == nil || seen[p] {
		return true
	}
	seen[p] = true
	if p.Kind == pattern.KRef {
		if m == nil || m.Lookup(p.Name) == nil {
			return false
		}
		return true
	}
	for _, it := range p.Items {
		if !refsResolve(m, it.P, seen) {
			return false
		}
	}
	for _, alt := range p.Alts {
		if !refsResolve(m, alt, seen) {
			return false
		}
	}
	return true
}

// alignItem aligns one filter child against every pattern item that can
// host it, joining the contributions of each viable alignment.
func (w *fwalker) alignItem(fn *filter.FNode, p *pattern.P) bool {
	ok := false
	for _, pi := range p.Items {
		trial := w.fork()
		if trial.walk(fn, pi.P) {
			w.join(trial)
			ok = true
		}
	}
	if !ok {
		// No item can host the child; still record its variables so the
		// row keeps full column coverage.
		w.assignAll(fn)
	}
	return ok
}
