package algebra

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/tab"
)

// BatchSource is the optional set-at-a-time extension of Source (the
// batched information passing of Section 5.3's cost model): the plan is
// shipped once together with a list of parameter-binding rows, the source
// evaluates it once per binding, and the results come back as an indexed
// set — one tab per binding, in binding order. Over the wire this is one
// round trip instead of one per binding.
type BatchSource interface {
	Source
	// PushBatch evaluates plan once per binding set and returns exactly
	// len(bindings) result tabs, results[i] belonging to bindings[i]. The
	// call is all-or-error: on error no partial results are returned.
	PushBatch(plan Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error)
	// PushBatchContext is PushBatch under a cancellation context.
	PushBatchContext(ctx context.Context, plan Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error)
}

// DefaultBatchChunk is the number of binding sets shipped per batched push
// when exec.Options.BatchChunk is unset. A fixed default (rather than one
// derived from worker counts) keeps push counts identical between serial and
// parallel execution.
const DefaultBatchChunk = 64

// FreeVars returns, sorted, the variables a plan reads from Context.Params
// when evaluated: expression variables not bound by the operator's input
// columns, plus parameter Binds (From == nil, Doc == ""). These are exactly
// the bindings a DJoin must pass sideways for the plan to evaluate — tree
// construction variables are excluded because Cons evaluation reads input
// columns only, never parameters.
func FreeVars(op Op) []string {
	set := map[string]bool{}
	freeVars(op, set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func freeVars(op Op, out map[string]bool) {
	if op == nil {
		return
	}
	switch x := op.(type) {
	case *Literal:
	case *Bind:
		if x.From != nil {
			freeVars(x.From, out)
		} else if x.Doc == "" && x.Col != "" {
			out[x.Col] = true
		}
	case *Select:
		freeVars(x.From, out)
		exprFree(x.Pred, safeCols(x.From), out)
	case *Project:
		freeVars(x.From, out)
	case *MapExpr:
		freeVars(x.From, out)
		exprFree(x.E, safeCols(x.From), out)
	case *Join:
		freeVars(x.L, out)
		freeVars(x.R, out)
		exprFree(x.Pred, append(safeCols(x.L), safeCols(x.R)...), out)
	case *DJoin:
		freeVars(x.L, out)
		inner := map[string]bool{}
		freeVars(x.R, inner)
		lcols := SetOf(safeCols(x.L))
		for v := range inner {
			if !lcols[v] {
				out[v] = true
			}
		}
	case *Union:
		freeVars(x.L, out)
		freeVars(x.R, out)
	case *Intersect:
		freeVars(x.L, out)
		freeVars(x.R, out)
	case *Distinct:
		freeVars(x.From, out)
	case *Group:
		freeVars(x.From, out)
	case *Sort:
		freeVars(x.From, out)
	case *TreeOp:
		freeVars(x.From, out)
	case *SourceQuery:
		freeVars(x.Plan, out)
	default:
		for _, c := range op.Children() {
			freeVars(c, out)
		}
	}
}

func exprFree(e Expr, inputCols []string, out map[string]bool) {
	if e == nil {
		return
	}
	cols := SetOf(inputCols)
	for _, v := range e.Vars() {
		if !cols[v] {
			out[v] = true
		}
	}
}

func safeCols(op Op) []string {
	if op == nil {
		return nil
	}
	return op.Columns()
}

// SetOf returns the set of the given column or variable names.
func SetOf(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// SetUnion returns a new set holding the members of a and b.
func SetUnion(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// DJoinBindings is the set-at-a-time form of a DJoin's outer input: the
// distinct parameter-binding sets the inner plan must be evaluated under
// (in first-occurrence order), plus the mapping from each outer row back to
// its set, so results re-expand to exactly the per-row output.
type DJoinBindings struct {
	Vars []string              // the inner plan's free variables, sorted
	Sets []map[string]tab.Cell // distinct binding sets, first-occurrence order
	Row  []int                 // outer row index -> Sets index
}

// NewDJoinBindings deduplicates the outer rows of a DJoin to distinct
// binding sets over the inner plan's free variables. A free variable is
// taken from the outer row when the left side provides the column, else
// from the surrounding parameters (a constant across rows, e.g. under a
// nested DJoin); variables bound by neither are simply absent, surfacing
// an unbound-variable error when the inner plan reads them.
func NewDJoinBindings(l *tab.Tab, vars []string, outer map[string]tab.Cell) *DJoinBindings {
	b := &DJoinBindings{Vars: vars, Row: make([]int, l.Len())}
	cols := make([]int, len(vars))
	for i, v := range vars {
		cols[i] = l.ColIndex(v)
	}
	// A set is keyed by the row's cells of its variables; one the left side
	// does not provide keys as absent in every row, as an outer constant is
	// one value for all of them.
	seen := map[string]int{}
	var key []byte
	for ri, r := range l.Rows {
		key = r.AppendKey(key[:0], cols)
		idx, ok := seen[string(key)]
		if !ok {
			idx = len(b.Sets)
			seen[string(key)] = idx
			set := make(map[string]tab.Cell, len(vars))
			for i, v := range vars {
				if cols[i] >= 0 {
					set[v] = r[cols[i]]
				} else if c, ok := outer[v]; ok {
					set[v] = c
				}
			}
			b.Sets = append(b.Sets, set)
		}
		b.Row[ri] = idx
	}
	return b
}

// DJoinSet is the evaluation state of one set-at-a-time DJoin: the distinct
// binding sets and the per-set results being filled in. The engine
// (internal/exec) builds one per outer bite and may run its EvalChunk/EvalSet
// units concurrently — they write disjoint Results slots and only touch
// thread-safe state, so that is race-free.
type DJoinSet struct {
	Bindings *DJoinBindings
	Results  []*tab.Tab

	q *SourceQuery // the inner plan when batched pushes evaluate it; nil otherwise
}

// NewDJoinSet builds the set-at-a-time state for evaluating j over the
// outer rows l. The batched push path engages when the inner plan is
// directly a SourceQuery — PushBatch decides how its source takes a batch;
// any other inner plan still benefits from deduplication, evaluated once
// per distinct binding set.
func NewDJoinSet(ctx *Context, j *DJoin, l *tab.Tab) *DJoinSet {
	s := &DJoinSet{
		Bindings: NewDJoinBindings(l, j.innerVars(), ctx.Params),
	}
	s.Results = make([]*tab.Tab, len(s.Bindings.Sets))
	s.q, _ = j.R.(*SourceQuery)
	return s
}

// Batchable reports whether the inner plan goes through batched pushes.
func (s *DJoinSet) Batchable() bool { return s.q != nil }

// PendingChunks probes the result cache for every binding set and returns
// the cache-missing set indexes grouped into chunks of at most chunk (> 0)
// sets, one push each. Must only be called when Batchable.
func (s *DJoinSet) PendingChunks(ctx *Context, chunk int) [][]int {
	var pending []int
	for i, set := range s.Bindings.Sets {
		if t, ok := ctx.cached(s.q.cacheKey(ctx, set)); ok {
			s.Results[i] = t
			continue
		}
		pending = append(pending, i)
	}
	var chunks [][]int
	for start := 0; start < len(pending); start += chunk {
		chunks = append(chunks, pending[start:min(start+chunk, len(pending))])
	}
	return chunks
}

// EvalChunk ships one batched push (a single round trip) for the given set
// indexes: the same source call, row bookkeeping and cache fill as a
// SourceQuery's own push, for many bindings at once. Results are stored and
// cached only when the call succeeded and every result passed arrived, so a
// failed push — or one result failing the conformance check — leaves the
// cache untouched. Under tracing, each chunk gets its own span (child of
// the ambient DJoin or worker span) so a profile shows every batched round
// trip individually.
func (s *DJoinSet) EvalChunk(ctx *Context, idxs []int) error {
	if ctx.Trace != nil {
		sp := ctx.Trace.NewChild("chunk", fmt.Sprintf("PushBatch(%s) [%d bindings]", s.q.Source, len(idxs)))
		cc := *ctx
		cc.Trace = sp
		if cc.Ctx != nil {
			cc.Ctx = obs.WithSpan(cc.Ctx, sp)
		}
		err := s.evalChunk(&cc, idxs)
		rows := 0
		for _, bi := range idxs {
			if s.Results[bi] != nil {
				rows += s.Results[bi].Len()
			}
		}
		sp.Finish(rows, err)
		return err
	}
	return s.evalChunk(ctx, idxs)
}

func (s *DJoinSet) evalChunk(ctx *Context, idxs []int) error {
	sets := make([]map[string]tab.Cell, len(idxs))
	for i, bi := range idxs {
		sets[i] = s.Bindings.Sets[bi]
	}
	var res []*tab.Tab
	_, err := s.q.call(ctx, func(src Source) (err error) {
		res, err = PushBatch(ctx.Ctx, src, s.q.Plan, sets)
		return err
	})
	if err != nil {
		return err
	}
	for _, t := range res {
		if err := s.q.arrived(ctx, t); err != nil {
			return err
		}
	}
	for i, bi := range idxs {
		s.Results[bi] = res[i]
		ctx.fill(s.q.cacheKey(ctx, sets[i]), res[i])
	}
	return nil
}

// EvalSet evaluates the inner plan for one distinct binding set through
// eval (the engine, drained). Used when not Batchable.
func (s *DJoinSet) EvalSet(ctx *Context, i int, inner Op, eval func(*Context, Op) (*tab.Tab, error)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sub, err := eval(ctx.WithParams(s.Bindings.Sets[i]), inner)
	if err != nil {
		return err
	}
	s.Results[i] = sub
	return nil
}

// Expand recombines the per-set results with the outer rows, producing
// exactly the rows — in exactly the order — of one evaluation per outer row.
func (s *DJoinSet) Expand(l *tab.Tab, cols []string) *tab.Tab {
	out := tab.New(cols...)
	for ri, lr := range l.Rows {
		sub := s.Results[s.Bindings.Row[ri]]
		for _, rr := range sub.Rows {
			out.AddRow(append(lr.Clone(), rr...))
		}
	}
	return out
}
