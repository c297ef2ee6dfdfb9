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
// when Context.BatchChunk is unset.
const DefaultBatchChunk = 64

// PreparedPlan caches the per-plan work that set-at-a-time evaluation would
// otherwise repeat per row: the canonical XML encoding (used for cache keys)
// and the plan's free variables (the parameters it reads).
type PreparedPlan struct {
	Plan Op
	Enc  string   // canonical encoding; "" when the plan is not encodable
	Vars []string // sorted free variables
}

// PreparePlan computes a plan's PreparedPlan. Plans that cannot be encoded
// (e.g. carrying a Literal of unserializable cells is fine — Literal encodes
// — but an unknown operator type is not) get an empty Enc, which disables
// result caching for them without disabling evaluation.
func PreparePlan(op Op) *PreparedPlan {
	p := &PreparedPlan{Plan: op, Vars: FreeVars(op)}
	if enc, err := MarshalPlan(op); err == nil {
		p.Enc = enc
	}
	return p
}

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
	case *Doc, *Literal:
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
		lcols := colSetOf(safeCols(x.L))
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
	cols := colSetOf(inputCols)
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

func colSetOf(cols []string) map[string]bool {
	m := make(map[string]bool, len(cols))
	for _, c := range cols {
		m[c] = true
	}
	return m
}

// DJoinBindings is the set-at-a-time form of a DJoin's outer input: the
// distinct parameter-binding sets the inner plan must be evaluated under
// (in first-occurrence order), plus the mapping from each outer row back to
// its set, so results re-expand to exactly the per-row output.
type DJoinBindings struct {
	Vars []string              // the inner plan's free variables, sorted
	Sets []map[string]tab.Cell // distinct binding sets, first-occurrence order
	Keys []string              // ParamsKey fragment per set, for cache keys
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
	type varSrc struct {
		col      int
		constant tab.Cell
		isConst  bool
		present  bool
	}
	srcs := make([]varSrc, len(vars))
	for i, v := range vars {
		if ci := l.ColIndex(v); ci >= 0 {
			srcs[i] = varSrc{col: ci, present: true}
		} else if c, ok := outer[v]; ok {
			srcs[i] = varSrc{constant: c, isConst: true, present: true}
		}
	}
	seen := map[string]int{}
	for ri, r := range l.Rows {
		set := make(map[string]tab.Cell, len(vars))
		for i, v := range vars {
			s := srcs[i]
			if !s.present {
				continue
			}
			if s.isConst {
				set[v] = s.constant
			} else {
				set[v] = r[s.col]
			}
		}
		k := ParamsKey(vars, set)
		idx, ok := seen[k]
		if !ok {
			idx = len(b.Sets)
			seen[k] = idx
			b.Sets = append(b.Sets, set)
			b.Keys = append(b.Keys, k)
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

	src    Source        // the source batched pushes go to; nil when not batchable
	pushed *PreparedPlan // the plan they ship
	source string
}

// NewDJoinSet builds the set-at-a-time state for evaluating j over the
// outer rows l. The batched push path engages when the inner
// plan is directly a SourceQuery over a connected BatchSource; any other
// inner plan still benefits from deduplication, evaluated once per distinct
// binding set.
func NewDJoinSet(ctx *Context, j *DJoin, l *tab.Tab) *DJoinSet {
	s := &DJoinSet{
		Bindings: NewDJoinBindings(l, j.Prepared().Vars, ctx.Params),
	}
	s.Results = make([]*tab.Tab, len(s.Bindings.Sets))
	if sq, ok := j.R.(*SourceQuery); ok {
		if src, ok := ctx.Sources[sq.Source]; ok {
			if _, ok := src.(BatchSource); ok {
				s.src = src
				s.pushed = sq.Prepared()
				s.source = sq.Source
			}
		}
	}
	return s
}

// Batchable reports whether the inner plan goes through batched pushes.
func (s *DJoinSet) Batchable() bool { return s.src != nil }

// PendingChunks probes the result cache for every binding set and returns
// the cache-missing set indexes grouped into push-sized chunks. Must only
// be called when Batchable. A non-positive Context.BatchChunk is an error:
// chunk sizes are validated where they enter the system (exec.Options.
// Validate, the yat-mediator flag) and defaulted by NewContext, so a bad
// value reaching this point is a configuration bug worth surfacing, not
// silently papering over.
func (s *DJoinSet) PendingChunks(ctx *Context) ([][]int, error) {
	chunk := ctx.BatchChunk
	if chunk < 1 {
		return nil, fmt.Errorf("algebra: Context.BatchChunk must be positive, got %d (exec.Options.Validate rejects this at the edge)", chunk)
	}
	var pending []int
	for i := range s.Bindings.Sets {
		if t, ok := s.cacheGet(ctx, i); ok {
			s.Results[i] = t
			continue
		}
		pending = append(pending, i)
	}
	var chunks [][]int
	for start := 0; start < len(pending); start += chunk {
		end := start + chunk
		if end > len(pending) {
			end = len(pending)
		}
		chunks = append(chunks, pending[start:end])
	}
	return chunks, nil
}

// EvalChunk ships one batched push (a single round trip) for the given set
// indexes, stores the per-set results and populates the cache. On error no
// result of the failed push is stored or cached. Under tracing, each chunk
// gets its own span (child of the ambient DJoin or worker span) so a
// profile shows every batched round trip individually.
func (s *DJoinSet) EvalChunk(ctx *Context, idxs []int) error {
	if ctx.Trace != nil {
		sp := ctx.Trace.NewChild("chunk", fmt.Sprintf("PushBatch(%s) [%d bindings]", s.source, len(idxs)))
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
	if err := ctx.Err(); err != nil {
		return err
	}
	sets := make([]map[string]tab.Cell, len(idxs))
	for i, bi := range idxs {
		sets[i] = s.Bindings.Sets[bi]
	}
	res, err := PushBatch(ctx.Ctx, s.src, s.pushed.Plan, sets)
	drainRetryStats(ctx, s.src)
	if err != nil {
		return fmt.Errorf("source %s: %w", s.source, err)
	}
	ctx.Stats.SourcePushes++
	traceCounts(ctx, obs.Counts{Pushes: 1})
	for i, bi := range idxs {
		countShipped(ctx, res[i])
		s.Results[bi] = res[i]
		s.cachePut(ctx, bi, res[i])
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

func (s *DJoinSet) cacheGet(ctx *Context, i int) (*tab.Tab, bool) {
	if ctx.Cache == nil || s.pushed.Enc == "" {
		return nil, false
	}
	t, ok := ctx.Cache.Get(CacheKey(s.source, s.pushed.Enc, s.Bindings.Keys[i]))
	if ok {
		ctx.Stats.CacheHits++
		traceCounts(ctx, obs.Counts{CacheHits: 1})
	} else {
		ctx.Stats.CacheMisses++
		traceCounts(ctx, obs.Counts{CacheMisses: 1})
	}
	return t, ok
}

func (s *DJoinSet) cachePut(ctx *Context, i int, t *tab.Tab) {
	if ctx.Cache == nil || s.pushed.Enc == "" {
		return
	}
	if ctx.Cache.Put(CacheKey(s.source, s.pushed.Enc, s.Bindings.Keys[i]), t) {
		ctx.Stats.CacheEvictions++
	}
}

// countShipped accounts rows received from a source (shared by the per-push
// and batched paths).
func countShipped(ctx *Context, t *tab.Tab) {
	ctx.Stats.TuplesShipped += t.Len()
	traceCounts(ctx, obs.Counts{Tuples: t.Len()})
	for _, r := range t.Rows {
		for _, c := range r {
			ctx.Stats.BytesShipped += int64(len(c.Key()))
		}
	}
}
