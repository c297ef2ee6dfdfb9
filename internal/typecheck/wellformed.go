package typecheck

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/filter"
	"repro/internal/pattern"
)

// Diagnostic codes.
const (
	CodeNilPlan       = "nil-plan"       // a nil operator or child
	CodeUnboundVar    = "unbound-var"    // expression references a variable no input provides
	CodeUnknownColumn = "unknown-column" // operator names a column its input lacks
	CodeDuplicateCol  = "duplicate-col"  // an operator introduces a column that already exists
	CodeArity         = "arity"          // Union/Intersect inputs with different widths
	CodeSkolemArity   = "skolem-arity"   // one Skolem function used with two arities
	CodePattern       = "pattern"        // filter incompatible with the document's declared type
	CodeCapability    = "capability"     // pushed subplan exceeds the source's interface
	CodeUnknownDoc    = "unknown-doc"    // named document no source or catalog exports
	CodeMalformed     = "malformed"      // an operator form Eval and Columns disagree on
	CodeBatchShape    = "batch-shape"    // DJoin inner plan reads parameters nothing provides
)

// Diagnostic is one invariant violation, located by a plan path: operator
// kinds (algebra.OpKind) joined by '/', with 'L'/'R' marking which side of
// a binary operator was entered (e.g. "Select/Join/R/Bind").
type Diagnostic struct {
	Code string // one of the Code* constants
	Path string // plan path from the root to the offending operator
	Op   string // the offending operator's Detail() rendering
	Msg  string // human-readable explanation
}

// String renders the diagnostic on one line.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s at %s [%s]: %s", d.Code, d.Path, d.Op, d.Msg)
}

// Error folds diagnostics into a single error (nil when the slice is empty);
// convenient for call sites that abort on the first dirty plan.
func Error(ds []Diagnostic) error {
	if len(ds) == 0 {
		return nil
	}
	lines := make([]string, len(ds))
	for i, d := range ds {
		lines[i] = d.String()
	}
	return fmt.Errorf("typecheck: %d violation(s):\n  %s", len(ds), strings.Join(lines, "\n  "))
}

// extend appends a segment to a plan path.
func extend(path, seg string) string {
	if path == "" {
		return seg
	}
	return path + "/" + seg
}

func diagnostic(code, path string, op algebra.Op, format string, args ...any) Diagnostic {
	detail := "<nil>"
	if op != nil {
		detail = op.Detail()
	}
	return Diagnostic{Code: code, Path: path, Op: detail, Msg: fmt.Sprintf(format, args...)}
}

func (c *checker) report(code, path string, op algebra.Op, format string, args ...any) {
	c.diags = append(c.diags, diagnostic(code, path, op, format, args...))
}

func (c *checker) checkDoc(name, path string, op algebra.Op) {
	if _, known := c.cfg.SourceDocs[name]; !known && c.cfg.SourceDocs != nil {
		c.report(CodeUnknownDoc, path, op, "no source or catalog exports document %q", name)
	}
}

// checkVars verifies that every referenced variable is a column of the input
// or a parameter the environment provides. Outside a Tree construction,
// which reads input columns only, an unbound variable is one a DJoin would
// have to provide.
func (c *checker) checkVars(vars, cols []string, env map[string]*pattern.P, path string, op algebra.Op) {
	_, tree := op.(*algebra.TreeOp)
	var seen []string
	for _, v := range vars {
		if _, provided := env[v]; provided || slices.Contains(cols, v) || slices.Contains(seen, v) {
			continue
		}
		seen = append(seen, v)
		if !tree {
			c.free = addFree(c.free, v)
		}
		c.report(CodeUnboundVar, path, op,
			"variable %s is not bound upstream (input columns %v)", v, cols)
	}
}

// checkDisjoint flags output columns produced by both sides of a Join/DJoin:
// the concatenated row would carry two columns with one name, and every
// later positional lookup silently reads the left one.
func (c *checker) checkDisjoint(l, r []string, path string, op algebra.Op) {
	for _, col := range r {
		if slices.Contains(l, col) {
			c.report(CodeDuplicateCol, path, op,
				"column %s is produced by both join sides", col)
		}
	}
}

type skolemUse struct {
	arity int
	path  string
}

// checkSkolems records every Skolem function use (definition sites and
// reference sites) and flags arity disagreements: Skolem identity is the
// (function, argument values) pair, so two call sites with different arities
// can never fuse and almost certainly indicate a miscompiled construction.
func (c *checker) checkSkolems(cons *algebra.Cons, path string, op algebra.Op) {
	record := func(name string, arity int) {
		if name == "" {
			return
		}
		prev, ok := c.skolems[name]
		if !ok {
			c.skolems[name] = skolemUse{arity: arity, path: path}
			return
		}
		if prev.arity != arity {
			c.report(CodeSkolemArity, path, op,
				"Skolem function %s used with %d argument(s) here but %d at %s",
				name, arity, prev.arity, prev.path)
		}
	}
	var walk func(n *algebra.Cons)
	walk = func(n *algebra.Cons) {
		if n == nil {
			return
		}
		if n.Skolem != "" {
			record(n.Skolem, len(n.SkolemArgs))
		}
		if n.RefTo != "" {
			record(n.RefTo, len(n.RefArgs))
		}
		for _, it := range n.Kids {
			walk(it.C)
		}
	}
	walk(cons)
}

// checkPattern verifies a document Bind's filter against the document's
// declared structural pattern. The check is conservative: it only flags
// filters that can NEVER match a conforming document — concretely, a filter
// requiring a label that occurs nowhere in the pattern's closure. (Exact
// positional instantiation checking would reject filters the matcher aligns
// through wrapping levels; label reachability is sound for both.) Collection
// constructor labels (set/bag/list/array) are always allowed: a declared
// pattern describes one instance, while the exported document wraps the
// extent in a collection level the matcher aligns through.
func (c *checker) checkPattern(b *algebra.Bind, path string) {
	st, ok := c.cfg.Structures.Doc(b.Doc)
	if !ok || st.Model == nil {
		return
	}
	root := st.Model.Lookup(st.Pattern)
	if root == nil {
		return
	}
	labels := patternLabels(st.Model, root)
	var bad []string
	var walk func(fn *filter.FNode)
	walk = func(fn *filter.FNode) {
		if fn == nil {
			return
		}
		if fn.Label != "" && !labels[fn.Label] &&
			pattern.ColFromString(fn.Label) == pattern.ColNone {
			bad = append(bad, fn.Label)
		}
		for _, it := range fn.Items {
			walk(it.F)
		}
	}
	walk(b.F.Root)
	if len(bad) > 0 {
		sort.Strings(bad)
		c.report(CodePattern, path, b,
			"filter requires label(s) %v which the declared pattern %s of %q can never produce",
			bad, st.Pattern, b.Doc)
	}
}

// patternLabels returns every node label reachable in the pattern's closure
// (following references through the model, cycle-safe).
func patternLabels(m *pattern.Model, p *pattern.P) map[string]bool {
	labels := map[string]bool{}
	seenRefs := map[string]bool{}
	var walk func(p *pattern.P)
	walk = func(p *pattern.P) {
		if p == nil {
			return
		}
		switch p.Kind {
		case pattern.KRef:
			if seenRefs[p.Name] {
				return
			}
			seenRefs[p.Name] = true
			walk(m.Lookup(p.Name))
		case pattern.KUnion:
			for _, a := range p.Alts {
				walk(a)
			}
		case pattern.KNode:
			if p.Label != "" {
				labels[p.Label] = true
			}
			for _, it := range p.Items {
				walk(it.P)
			}
		}
	}
	walk(p)
	return labels
}
