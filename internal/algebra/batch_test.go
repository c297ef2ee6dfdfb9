package algebra_test

import (
	"context"
	"errors"
	"fmt"
	. "repro/internal/algebra"
	"repro/internal/exec"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/tab"
)

func TestFreeVars(t *testing.T) {
	inner := tab.New("$v")
	inner.Add(tab.AtomCell(data.Int(1)))
	lit := &Literal{T: inner}
	cases := []struct {
		name string
		plan Op
		want string
	}{
		{"select over literal", &Select{From: lit, Pred: MustParseExpr(`$v = $n`)}, "$n"},
		{"bound by input", &Select{From: lit, Pred: MustParseExpr(`$v = 1`)}, ""},
		{"param bind", &Bind{Col: "$w", F: mustFilter(t, `x: $y`)}, "$w"},
		{"doc bind", &Bind{Doc: "d", F: mustFilter(t, `x: $y`)}, ""},
		{"map expr", &MapExpr{From: lit, Col: "$m", E: MustParseExpr(`$v + $k`)}, "$k"},
		{"source query", &SourceQuery{Source: "s", Plan: &Select{From: lit, Pred: MustParseExpr(`$v = $p`)}}, "$p"},
		{"join needs both", &Join{L: lit, R: &Literal{T: tab.New("$w")},
			Pred: MustParseExpr(`$v = $w AND $q = 1`)}, "$q"},
		// A nested DJoin satisfies its inner plan's $v from its own left
		// columns; only $z escapes.
		{"djoin subtracts left columns", &DJoin{L: lit,
			R: &Select{From: &Literal{T: tab.New("$w")}, Pred: MustParseExpr(`$w = $v AND $w = $z`)}}, "$z"},
		// Cons variables read input columns, never parameters.
		{"cons excluded", &TreeOp{From: lit, C: MustParseCons(`work[ title: $v ]`)}, ""},
		{"nil plan", nil, ""},
	}
	for _, c := range cases {
		got := strings.Join(FreeVars(c.plan), ",")
		if got != c.want {
			t.Errorf("%s: FreeVars = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestDocs(t *testing.T) {
	plan := &Union{
		L: &DJoin{
			L: &Bind{Doc: "works", F: mustFilter(t, `works[ *work@$w ]`)},
			R: &Select{From: &Bind{Doc: "artifacts", F: mustFilter(t, `set[ *class@$a ]`)},
				Pred: MustParseExpr(`$a = $outer`)},
		},
		R: &Join{
			L:    &Bind{Doc: "works", F: mustFilter(t, `works[ *work@$w ]`)},
			R:    &Bind{From: &Bind{Doc: "persons", F: mustFilter(t, `set@$doc`)}, Col: "$doc", F: mustFilter(t, `set[ *class@$a ]`)},
			Pred: TrueExpr(),
		},
	}
	// Distinct, in first-occurrence order, nested Binds included.
	if got := strings.Join(Docs(plan), ","); got != "works,artifacts,persons" {
		t.Errorf("Docs = %q, want works,artifacts,persons", got)
	}
	if got := Docs(&Literal{T: tab.New("$v")}); len(got) != 0 {
		t.Errorf("Docs of a literal = %v, want none", got)
	}
}

func TestResultCacheLRU(t *testing.T) {
	one := tab.New("$a")
	if NewResultCache(0) != nil {
		t.Fatal("bound < 1 must disable the cache")
	}
	var nilCache *ResultCache
	if _, ok := nilCache.Get("k"); ok || nilCache.Put("k", one) || nilCache.Len() != 0 {
		t.Fatal("nil cache must be inert")
	}

	c := NewResultCache(2)
	if c.Put("a", one) || c.Put("b", one) {
		t.Fatal("no eviction below capacity")
	}
	// Touch "a" so "b" is the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a cached")
	}
	if !c.Put("c", one) {
		t.Fatal("third insert must evict")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted (a was touched)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a survives")
	}
	// Overwriting an existing key never evicts.
	if c.Put("a", one) || c.Len() != 2 {
		t.Errorf("overwrite: len = %d", c.Len())
	}
}

func TestDJoinBindingsDedup(t *testing.T) {
	l := tab.New("$n", "$x")
	add := func(n string, x int64) {
		l.Add(tab.AtomCell(data.String(n)), tab.AtomCell(data.Int(x)))
	}
	add("a", 1)
	add("b", 2)
	add("a", 3) // same $n as row 0: same binding set over vars {$n}
	add("b", 4)

	outer := map[string]tab.Cell{"$k": tab.AtomCell(data.Int(9))}
	b := NewDJoinBindings(l, []string{"$k", "$n", "$ghost"}, outer)
	if len(b.Sets) != 2 {
		t.Fatalf("distinct sets = %d, want 2", len(b.Sets))
	}
	if want := []int{0, 1, 0, 1}; fmt.Sprint(b.Row) != fmt.Sprint(want) {
		t.Errorf("row map = %v, want %v", b.Row, want)
	}
	// $k is a constant from the surrounding parameters, $ghost is absent.
	if a, _ := b.Sets[0]["$k"].AsAtom(); a.I != 9 {
		t.Errorf("outer constant not threaded: %v", b.Sets[0])
	}
	if _, ok := b.Sets[0]["$ghost"]; ok {
		t.Error("unbound variable must be absent, not null")
	}
	if ParamsKey(b.Vars, b.Sets[0]) == ParamsKey(b.Vars, b.Sets[1]) {
		t.Error("distinct sets must have distinct keys")
	}

	empty := NewDJoinBindings(tab.New("$n"), []string{"$n"}, nil)
	if len(empty.Sets) != 0 || len(empty.Row) != 0 {
		t.Errorf("empty outer input: %+v", empty)
	}

	// With no free variables every row shares the one empty binding set.
	none := NewDJoinBindings(l, nil, nil)
	if len(none.Sets) != 1 {
		t.Errorf("no free vars: sets = %d, want 1", len(none.Sets))
	}
}

// evalBatchSource is a BatchSource that really evaluates the pushed plan per
// binding, counting push round trips.
type evalBatchSource struct {
	fakeSource
	batchCalls int
	rowCalls   int
	failAt     int // fail when evaluating binding #failAt (1-based); 0 = never
	seen       int
}

func (f *evalBatchSource) evalOne(plan Op, params map[string]tab.Cell) (*tab.Tab, error) {
	f.seen++
	if f.failAt > 0 && f.seen >= f.failAt {
		return nil, fmt.Errorf("wrapper exploded")
	}
	ctx := NewContext()
	ctx.Params = params
	return exec.RunSerial(plan, ctx)
}

func (f *evalBatchSource) Push(plan Op, params map[string]tab.Cell) (*tab.Tab, error) {
	f.rowCalls++
	return f.evalOne(plan, params)
}

func (f *evalBatchSource) PushBatch(plan Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	return f.PushBatchContext(context.Background(), plan, bindings)
}

func (f *evalBatchSource) PushBatchContext(_ context.Context, plan Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	f.batchCalls++
	out := make([]*tab.Tab, len(bindings))
	for i, b := range bindings {
		t, err := f.evalOne(plan, b)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// batchFixture returns a DJoin whose inner plan is a pushdown SourceQuery,
// an outer input with duplicate binding rows, and the counting source.
func batchFixture() (*DJoin, *evalBatchSource, *Context) {
	inner := tab.New("$v")
	for i := 1; i <= 3; i++ {
		inner.Add(tab.AtomCell(data.Int(int64(i))))
	}
	l := tab.New("$n")
	for _, n := range []int64{1, 2, 1, 3, 2, 1} {
		l.Add(tab.AtomCell(data.Int(n)))
	}
	j := &DJoin{
		L: &Literal{T: l},
		R: &SourceQuery{Source: "w", Plan: &Select{
			From: &Literal{T: inner},
			Pred: MustParseExpr(`$v <= $n`),
		}},
	}
	src := &evalBatchSource{fakeSource: fakeSource{name: "w"}}
	ctx := NewContext()
	ctx.Sources["w"] = src
	return j, src, ctx
}

func TestDJoinBatchedMatchesPerOuterRow(t *testing.T) {
	// What one inner evaluation per outer row produces, spelled out: outer
	// row n joins every inner v <= n, in outer order.
	want := tab.New("$n", "$v")
	for _, n := range []int64{1, 2, 1, 3, 2, 1} {
		for v := int64(1); v <= n; v++ {
			want.Add(tab.AtomCell(data.Int(n)), tab.AtomCell(data.Int(v)))
		}
	}

	j2, src2, ctx2 := batchFixture()
	got, err := exec.RunSerial(j2, ctx2)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("batched rows differ from one evaluation per outer row:\n%s\nvs\n%s", got, want)
	}
	// 3 distinct bindings, one chunk: a single round trip.
	if src2.batchCalls != 1 || src2.rowCalls != 0 || ctx2.Stats.SourcePushes != 1 {
		t.Errorf("batched: batchCalls=%d rowCalls=%d pushes=%d, want 1/0/1",
			src2.batchCalls, src2.rowCalls, ctx2.Stats.SourcePushes)
	}

	// A chunk bound of 2 also bounds the outer bite to 2 rows, and binding
	// sets are shared within a bite only: [1 2] [1 3] [2 1] is 3 round trips.
	j3, src3, ctx3 := batchFixture()
	if _, err := exec.New(exec.Options{Parallelism: 1, BatchChunk: 2}).Run(context.Background(), j3, ctx3); err != nil {
		t.Fatal(err)
	}
	if src3.batchCalls != 3 || ctx3.Stats.SourcePushes != 3 {
		t.Errorf("chunked: batchCalls=%d pushes=%d, want 3/3", src3.batchCalls, ctx3.Stats.SourcePushes)
	}

	// A chunk bound of 1 is the unbatched baseline: every bite is one outer
	// row, so every outer row costs its own round trip.
	j4, src4, ctx4 := batchFixture()
	got4, err := exec.New(exec.Options{Parallelism: 1, BatchChunk: 1}).Run(context.Background(), j4, ctx4)
	if err != nil {
		t.Fatal(err)
	}
	if got4.String() != want.String() || src4.batchCalls != 6 || ctx4.Stats.SourcePushes != 6 {
		t.Errorf("unbatched: batchCalls=%d pushes=%d, want 6/6; rows:\n%s", src4.batchCalls, ctx4.Stats.SourcePushes, got4)
	}
}

func TestDJoinWarmCacheSkipsPushes(t *testing.T) {
	cache := NewResultCache(16)
	j, src, ctx := batchFixture()
	ctx.Cache = cache
	cold, err := exec.RunSerial(j, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.CacheMisses != 3 || ctx.Stats.CacheHits != 0 || ctx.Stats.SourcePushes != 1 {
		t.Fatalf("cold run stats = %+v", ctx.Stats)
	}

	// Same plan, fresh context, shared cache: zero round trips.
	ctx2 := NewContext()
	ctx2.Sources["w"] = src
	ctx2.Cache = cache
	warm, err := exec.RunSerial(j, ctx2)
	if err != nil {
		t.Fatal(err)
	}
	if warm.String() != cold.String() {
		t.Error("warm rows differ from cold")
	}
	if ctx2.Stats.CacheHits != 3 || ctx2.Stats.SourcePushes != 0 || src.batchCalls != 1 {
		t.Errorf("warm run stats = %+v, batchCalls = %d", ctx2.Stats, src.batchCalls)
	}

	// The cache also answers a plain SourceQuery push of the same subplan
	// under the same binding (key unification across both paths).
	ctx3 := NewContext()
	ctx3.Sources["w"] = src
	ctx3.Cache = cache
	ctx3.Params = map[string]tab.Cell{"$n": tab.AtomCell(data.Int(2))}
	if _, err := exec.RunSerial(j.R, ctx3); err != nil {
		t.Fatal(err)
	}
	if ctx3.Stats.CacheHits != 1 || ctx3.Stats.SourcePushes != 0 {
		t.Errorf("SourceQuery should hit batch-cached entry: %+v", ctx3.Stats)
	}
}

func TestDJoinBatchErrorLeavesCacheClean(t *testing.T) {
	cache := NewResultCache(16)
	j, src, ctx := batchFixture()
	src.failAt = 2 // second binding of the batch fails
	ctx.Cache = cache
	if _, err := exec.RunSerial(j, ctx); err == nil || !strings.Contains(err.Error(), "wrapper exploded") {
		t.Fatalf("batch error must propagate, got %v", err)
	}
	if cache.Len() != 0 {
		t.Errorf("partial batch results leaked into the cache: %d entries", cache.Len())
	}

	// A batch the wrapper answers in full but whose second result fails the
	// wire conformance check is refused whole: the first result passed, yet
	// nothing of the batch is cached.
	j, _, ctx = batchFixture()
	ctx.Cache = cache
	lie := errors.New("row does not conform")
	checked := 0
	ctx.CheckWire = func(q *SourceQuery, t *tab.Tab) error {
		if checked++; checked == 2 {
			return lie
		}
		return nil
	}
	if _, err := exec.RunSerial(j, ctx); !errors.Is(err, lie) {
		t.Fatalf("conformance error must propagate, got %v", err)
	}
	if cache.Len() != 0 {
		t.Errorf("a batch that failed the check leaked into the cache: %d entries", cache.Len())
	}
}

func TestDJoinDedupWithoutBatchSource(t *testing.T) {
	// Inner plan is NOT a SourceQuery: no batching, but distinct-set
	// deduplication still applies. The marker function counts inner
	// evaluations via Stats.FuncCalls.
	inner := tab.New("$v")
	inner.Add(tab.AtomCell(data.Int(1)))
	j := &DJoin{
		L: &Literal{T: func() *tab.Tab {
			l := tab.New("$n")
			for _, n := range []int64{5, 7, 5, 7, 5} {
				l.Add(tab.AtomCell(data.Int(n)))
			}
			return l
		}()},
		R: &Select{From: &Literal{T: inner}, Pred: MustParseExpr(`mark($n) > $v`)},
	}
	ctx := NewContext()
	ctx.Funcs["mark"] = func(args []tab.Cell) (tab.Cell, error) { return args[0], nil }
	got, err := exec.RunSerial(j, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 5 {
		t.Errorf("rows = %d, want 5 (every outer row matches)", got.Len())
	}
	if ctx.Stats.FuncCalls != 2 {
		t.Errorf("inner plan evaluated %d times, want 2 (distinct sets)", ctx.Stats.FuncCalls)
	}
}

func TestDJoinEmptyOuter(t *testing.T) {
	j, src, ctx := batchFixture()
	j.L = &Literal{T: tab.New("$n")}
	got, err := exec.RunSerial(j, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || src.batchCalls != 0 || src.rowCalls != 0 {
		t.Errorf("empty outer: rows=%d batch=%d row=%d", got.Len(), src.batchCalls, src.rowCalls)
	}
}
