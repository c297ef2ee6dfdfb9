// Command yat-experiments regenerates the paper's counter tables of
// EXPERIMENTS.md: the per-figure experiments (F7, F8, F9), the transfer
// sweep (E10), the information-passing crossover (E11), the source-index
// ablation (E12) and the optimizer-round ablation (E13). Each table reports
// shipped bytes/tuples and source calls beside an indicative wall time;
// every run asserts that the compared plans return the same rows and that
// row counts equal the generator's ground truth. Times that are compared
// between commits come from bench/ (see perf/README.md), not from here.
//
// Usage:
//
//	yat-experiments [-quick]
//	yat-experiments -stream-smoke [-wrappers DIR]
//
// -stream-smoke is an assertion, not a report: it holds the streaming
// engine and the feed decode pipeline to their live-heap and first-row
// bounds and exits non-zero when one is broken.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	yat "repro"
	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/feed"
	"repro/internal/filter"
	"repro/internal/mediator"
	"repro/internal/o2wrap"
	"repro/internal/optimizer"
	"repro/internal/tab"
	"repro/internal/waiswrap"
	"repro/internal/wire"
)

func main() {
	quick := flag.Bool("quick", false, "smaller sizes, fewer repetitions")
	streamSmoke := flag.Bool("stream-smoke", false, "assert the streaming engine's memory/latency/identity promises on a large-n Q2 and the feed decode pipeline's heap bound, and exit")
	wrappersDir := flag.String("wrappers", "", "directory with prebuilt o2-wrapper and xmlwais-wrapper binaries for out-of-process memory measurements (empty: build them once with the local toolchain)")
	flag.Parse()
	sizes := []int{250, 1000, 4000}
	sweep := []int{250, 500, 1000, 2000, 4000}
	if *quick {
		sizes = []int{100, 400}
		sweep = []int{100, 200, 400}
	}
	var err error
	if *streamSmoke {
		err = runStreamSmoke(*wrappersDir)
	} else {
		err = run(sizes, sweep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "yat-experiments: %v\n", err)
		os.Exit(1)
	}
}

func run(sizes, sweep []int) error {
	fmt.Println("YAT reproduction experiments — regenerating the EXPERIMENTS.md tables")
	fmt.Println("(deterministic workload: datagen.DefaultParams, seed 42)")
	for _, table := range []func() error{
		func() error { return figure7(sizes) },
		func() error { return figure8(sizes) },
		func() error { return figure9(sizes) },
		func() error { return e10(sweep) },
		e11,
		e12,
		func() error { return e13(sizes[len(sizes)-1]) },
	} {
		if err := table(); err != nil {
			return err
		}
	}
	return nil
}

func setup(n int) (*mediator.Mediator, *datagen.Workload, error) {
	w := datagen.Generate(datagen.DefaultParams(n))
	m, _, _, err := yat.NewCulturalMediator(w.DB, w.Works)
	return m, w, err
}

func med(fn func() (*mediator.Result, error)) (*mediator.Result, time.Duration, error) {
	start := time.Now()
	res, err := fn()
	return res, time.Since(start), err
}

const rowFmt = "%-26s %8d %12s %10d %8d %8d %8d\n"
const headFmt = "%-26s %8s %12s %10s %8s %8s %8s\n"

func printHead(title string) {
	fmt.Printf("\n== %s ==\n", title)
	fmt.Printf(headFmt, "plan", "rows", "time", "bytes", "tuples", "fetches", "pushes")
}

func printRow(name string, res *mediator.Result, d time.Duration) {
	fmt.Printf(rowFmt, name, res.Tab.Len(), d.Round(10*time.Microsecond),
		res.Stats.BytesShipped, res.Stats.TuplesShipped,
		res.Stats.SourceFetches, res.Stats.SourcePushes)
}

// figure7 times the three equivalent Figure 7 plans (monolithic Bind,
// DJoin split, Join with the persons extent) in-process, and checks that
// they return as many rows against the O₂ wrapper served over a loopback
// wire connection, where the artifacts document arrives in frames.
func figure7(sizes []int) error {
	fmt.Println("\n== F7: Bind splitting and DJoin-to-Join (Figure 7, upper row) ==")
	fmt.Printf("%-10s %20s %20s %20s\n", "artifacts", "monolithic Bind", "DJoin split", "Join w/ extent")
	for _, n := range sizes {
		ow := o2wrap.New("o2artifact", datagen.Generate(datagen.DefaultParams(n)).DB)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := wire.Serve(ln, wire.Exported{Source: ow})
		defer srv.Close()
		c, err := wire.Dial(srv.Addr())
		if err != nil {
			return err
		}
		defer c.Close()
		var times [3]time.Duration
		var rows [2][3]int // in-process, over wire
		for i, plan := range datagen.Fig7Plans() {
			for j, src := range []algebra.Source{ow, c} {
				ctx := algebra.NewContext()
				ctx.Sources["o2artifact"] = src
				start := time.Now()
				res, err := exec.RunSerial(plan, ctx)
				if err != nil {
					return err
				}
				if j == 0 {
					times[i] = time.Since(start)
				}
				rows[j][i] = res.Len()
			}
		}
		if r := rows[0]; r[0] != r[1] || r[0] != r[2] || rows[1] != r {
			return fmt.Errorf("F7 plans disagree: %v rows in-process, %v over wire", rows[0], rows[1])
		}
		fmt.Printf("%-10d %20s %20s %20s   (%d rows each, in-process and over wire)\n", n,
			times[0].Round(10*time.Microsecond), times[1].Round(10*time.Microsecond),
			times[2].Round(10*time.Microsecond), rows[0][0])
	}
	return nil
}

func sourceCtx(w *datagen.Workload) *algebra.Context {
	ctx := algebra.NewContext()
	ctx.Sources["o2artifact"] = o2wrap.New("o2artifact", w.DB)
	ctx.Sources["xmlartwork"] = waiswrap.New("xmlartwork", datagen.NewWaisEngine(w.Works))
	ctx.Funcs["contains"] = waiswrap.Contains
	return ctx
}

func figure8(sizes []int) error {
	for _, n := range sizes {
		m, w, err := setup(n)
		if err != nil {
			return err
		}
		printHead(fmt.Sprintf("F8: Q1 naive vs optimized (artifacts=%d, ground truth %d rows)", n, len(w.GivernyTitles)))
		naive, nd, err := med(func() (*mediator.Result, error) { return yat.QueryNaive(m, datagen.Q1Src) })
		if err != nil {
			return err
		}
		opt, od, err := med(func() (*mediator.Result, error) { return m.Query(datagen.Q1Src) })
		if err != nil {
			return err
		}
		printRow("naive (materialize view)", naive, nd)
		printRow("optimized (Fig. 8)", opt, od)
		if naive.Tab.Len() != len(w.GivernyTitles) || !naive.Tab.EqualUnordered(opt.Tab) {
			return fmt.Errorf("F8 correctness check failed at n=%d", n)
		}
	}
	return nil
}

func figure9(sizes []int) error {
	for _, n := range sizes {
		m, w, err := setup(n)
		if err != nil {
			return err
		}
		printHead(fmt.Sprintf("F9: Q2 naive vs pushdown (artifacts=%d, ground truth %d rows)", n, len(w.Q2Titles)))
		naive, nd, err := med(func() (*mediator.Result, error) { return yat.QueryNaive(m, datagen.Q2Src) })
		if err != nil {
			return err
		}
		opt, od, err := med(func() (*mediator.Result, error) { return m.Query(datagen.Q2Src) })
		if err != nil {
			return err
		}
		printRow("naive (materialize view)", naive, nd)
		printRow("pushdown + info passing", opt, od)
		if naive.Tab.Len() != len(w.Q2Titles) || !naive.Tab.EqualUnordered(opt.Tab) {
			return fmt.Errorf("F9 correctness check failed at n=%d", n)
		}
	}
	return nil
}

func e10(sweep []int) error {
	fmt.Println("\n== E10: transfer volume sweep (Q2 bytes shipped, naive vs optimized) ==")
	fmt.Printf("%-10s %12s %12s %8s\n", "artifacts", "naive", "optimized", "ratio")
	for _, n := range sweep {
		m, _, err := setup(n)
		if err != nil {
			return err
		}
		naive, err := yat.QueryNaive(m, datagen.Q2Src)
		if err != nil {
			return err
		}
		opt, err := m.Query(datagen.Q2Src)
		if err != nil {
			return err
		}
		ratio := float64(naive.Stats.BytesShipped) / float64(maxI64(opt.Stats.BytesShipped, 1))
		fmt.Printf("%-10d %12d %12d %7.1fx\n", n, naive.Stats.BytesShipped, opt.Stats.BytesShipped, ratio)
	}
	return nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func e11() error {
	fmt.Println("\n== E11: information passing crossover (bind join vs fetch-all join, artifacts=2000) ==")
	fmt.Printf("%-8s %14s %14s %14s %14s\n", "left", "bindjoin time", "fetchall time", "bindjoin tup", "fetchall tup")
	w := datagen.Generate(datagen.DefaultParams(2000))
	o2Bind := func() algebra.Op {
		return &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
			`set[ *class[ artifact.tuple[ title: $t2, price: $p ] ] ]`)}
	}
	for _, k := range []int{1, 16, 128, 1024, 1600} {
		left := tab.New("$t")
		for i := 0; i < k && i < len(w.Works); i++ {
			title := w.Works[i].Child("title")
			left.Add(tab.AtomCell(*title.Atom))
		}
		bind := &algebra.DJoin{
			L: &algebra.Literal{T: left},
			R: &algebra.SourceQuery{Source: "o2artifact",
				Plan: &algebra.Select{From: o2Bind(), Pred: algebra.MustParseExpr(`$t2 = $t`)}},
		}
		fetch := &algebra.Join{
			L:    &algebra.Literal{T: left},
			R:    &algebra.SourceQuery{Source: "o2artifact", Plan: o2Bind()},
			Pred: algebra.MustParseExpr(`$t = $t2`),
		}
		ctx1, ctx2 := sourceCtx(w), sourceCtx(w)
		t1 := time.Now()
		r1, err := exec.RunSerial(bind, ctx1)
		if err != nil {
			return err
		}
		d1 := time.Since(t1)
		t2 := time.Now()
		r2, err := exec.RunSerial(fetch, ctx2)
		if err != nil {
			return err
		}
		d2 := time.Since(t2)
		if !r1.EqualUnordered(r2) {
			return fmt.Errorf("E11 plans disagree at left=%d (%d vs %d rows)", k, r1.Len(), r2.Len())
		}
		fmt.Printf("%-8d %14s %14s %14d %14d\n", k,
			d1.Round(10*time.Microsecond), d2.Round(10*time.Microsecond),
			ctx1.Stats.TuplesShipped, ctx2.Stats.TuplesShipped)
	}
	return nil
}

func e12() error {
	fmt.Println("\n== E12: source index ablation (pushed point query, artifacts=5000) ==")
	fmt.Printf("%-10s %14s\n", "variant", "time/query")
	for _, indexed := range []bool{false, true} {
		p := datagen.DefaultParams(5000)
		p.NoIndexes = !indexed
		w := datagen.Generate(p)
		ow := o2wrap.New("o2artifact", w.DB)
		plan := &algebra.Select{
			From: &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
				`set[ *class[ artifact.tuple[ title: $t, price: $p ] ] ]`)},
			Pred: algebra.MustParseExpr(`$t = "Painting 777"`),
		}
		const reps = 50
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := ow.Push(plan, nil); err != nil {
				return err
			}
		}
		name := "scan"
		if indexed {
			name = "indexed"
		}
		fmt.Printf("%-10s %14s\n", name, (time.Since(start) / reps).Round(time.Microsecond))
	}
	return nil
}

// e13 isolates the optimizer rounds on Q2: composition only, plus
// capability pushdown, plus information passing. The three plans are the
// rounds of one optimization.
func e13(n int) error {
	m, w, err := setup(n)
	if err != nil {
		return err
	}
	printHead(fmt.Sprintf("E13: optimizer-round ablation on Q2 (artifacts=%d)", n))
	naive, err := m.Compose(datagen.Q2Src)
	if err != nil {
		return err
	}
	rounds, err := optimizer.New(m.OptimizerOptions()).Rounds(naive)
	if err != nil {
		return err
	}
	names := []string{"round 1 only", "rounds 1+2", "rounds 1+2+3 (full)"}
	var first *mediator.Result
	for i, plan := range rounds {
		res, d, err := med(func() (*mediator.Result, error) {
			return m.ExecutePlan(context.Background(), plan, mediator.ExecOptions{Parallelism: 1})
		})
		if err != nil {
			return err
		}
		printRow(names[i], res, d)
		if first == nil {
			first = res
		} else if !first.Tab.EqualUnordered(res.Tab) {
			return fmt.Errorf("E13 variants disagree (%s)", names[i])
		}
	}
	if first.Tab.Len() != len(w.Q2Titles) {
		return fmt.Errorf("E13 correctness check failed")
	}
	return nil
}

// liveSampler tracks the live-heap high-water mark of a measurement by
// forcing a collection at every sample and reading /gc/heap/live:bytes —
// the bytes the completed mark found reachable. (HeapAlloc right after a
// forced GC would also include whatever the still-running query goroutines
// allocated during the collection, a noise term that grows with allocation
// rate and run length; the per-mark live metric does not.) The recorded
// peak is therefore the largest set of rows and trees simultaneously
// retained — the quantity streaming bounds and materialization does not.
// The pre-run baseline is subtracted, so the workload and deployment
// themselves do not count.
type liveSampler struct {
	stop chan struct{}
	done chan struct{}
	base uint64
	peak uint64
}

// liveHeap forces a collection and returns the bytes its mark phase found
// reachable.
func liveHeap() uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

func startLiveSampler(period time.Duration) *liveSampler {
	s := &liveSampler{stop: make(chan struct{}), done: make(chan struct{}), base: liveHeap()}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if live := liveHeap(); live > s.peak {
					s.peak = live
				}
			}
		}
	}()
	return s
}

// stopPeak ends sampling, takes one final forced-GC sample (so short runs
// whose result is still retained are measured even if no tick fired) and
// returns the peak live bytes above the baseline.
func (s *liveSampler) stopPeak() int64 {
	close(s.stop)
	<-s.done
	if live := liveHeap(); live > s.peak {
		s.peak = live
	}
	if s.peak <= s.base {
		return 0
	}
	return int64(s.peak - s.base)
}

// hashRow folds one row into an order-sensitive hash; cell and row
// separators keep ("ab","c") distinct from ("a","bc").
func hashRow(h hash.Hash64, r tab.Row) {
	for _, c := range r {
		io.WriteString(h, c.String())
		h.Write([]byte{0x1f})
	}
	h.Write([]byte{0x1e})
}

func tabHash(t *tab.Tab) uint64 {
	h := fnv.New64a()
	for _, r := range t.Rows {
		hashRow(h, r)
	}
	return h.Sum64()
}

// streamRun is one drained streamed query: row count and order-sensitive
// content hash (the rows themselves are never retained — that is the point),
// first-row and total latency, and the settled Result.
type streamRun struct {
	rows     int
	sum      uint64
	firstRow time.Duration
	total    time.Duration
	res      *mediator.Result
}

// streamMeasure runs src without materializing the result: rows are counted
// and hashed as chunks arrive and then dropped, so the live set stays
// bounded while byte-identity against a drained run remains checkable via
// tabHash.
func streamMeasure(m *mediator.Mediator, src string, opts mediator.ExecOptions) (*streamRun, error) {
	start := time.Now()
	s, err := m.StreamContext(context.Background(), src, opts)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	r := &streamRun{}
	for c := range s.Chunks() {
		if r.rows == 0 && c.Len() > 0 {
			r.firstRow = time.Since(start)
		}
		for _, row := range c.Rows {
			hashRow(h, row)
		}
		r.rows += c.Len()
	}
	r.total = time.Since(start)
	res, err := s.Result()
	if err != nil {
		return nil, err
	}
	r.res = res
	r.sum = h.Sum64()
	return r, nil
}

// memRecord is one point of the streaming memory sweep: Q2 at one workload
// size, drained to a table versus consumed chunk by chunk, with live-heap
// peaks and latencies; the streamed total and first-row latencies are
// medians over the memRuns streamed runs.
type memRecord struct {
	Artifacts        int
	Rows             int
	MaterializedPeak int64
	StreamingPeak    int64
	MaterializedNs   int64
	StreamingNs      int64
	FirstRowNs       int64
}

// memorySweep measures src at each workload size on a fresh out-of-process
// deployment (the wrapper binaries run as child processes, so the sampled
// heap is the mediator's alone): drained to a table first (the result
// hashed, then dropped), consumed as a stream second, rows asserted
// byte-identical via the hash.
func memorySweep(src string, sizes []int, wrappers string) ([]memRecord, error) {
	dir, cleanup, err := ensureWrappers(wrappers)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	var out []memRecord
	for _, n := range sizes {
		m, teardown, err := externalDeploy(dir, n)
		if err != nil {
			return nil, err
		}
		rec, err := memPoint(m, src, n)
		teardown()
		if err != nil {
			return nil, err
		}
		out = append(out, *rec)
	}
	return out, nil
}

// memRuns is how often memPoint measures each side. A live-heap sample is
// the retained set plus whatever was allocated while that mark ran, a term
// that only ever adds; the smallest peak of a few runs estimates the
// retained set.
const memRuns = 5

func memPoint(m *mediator.Mediator, src string, n int) (*memRecord, error) {
	opts := mediator.ExecOptions{Parallelism: 1, Timeout: time.Minute}
	rec := &memRecord{Artifacts: n}
	var baseSum uint64
	var firstRows, totals []int64
	for i := 0; i < memRuns; i++ {
		sampler := startLiveSampler(10 * time.Millisecond)
		base, d, err := med(func() (*mediator.Result, error) {
			return m.ExecuteContext(context.Background(), src, opts)
		})
		peak := sampler.stopPeak()
		if err != nil {
			return nil, err
		}
		if i == 0 || peak < rec.MaterializedPeak {
			rec.MaterializedPeak, rec.MaterializedNs = peak, d.Nanoseconds()
		}
		// Only the hash outlives the iteration, so every run, drained or
		// streamed, starts from the same live set.
		baseSum, rec.Rows = tabHash(base.Tab), base.Tab.Len()
	}
	for i := 0; i < memRuns; i++ {
		sampler := startLiveSampler(10 * time.Millisecond)
		run, err := streamMeasure(m, src, opts)
		peak := sampler.stopPeak()
		if err != nil {
			return nil, err
		}
		if run.rows != rec.Rows || run.sum != baseSum {
			return nil, fmt.Errorf("memory sweep n=%d: streamed rows diverge from the drained table", n)
		}
		if i == 0 || peak < rec.StreamingPeak {
			rec.StreamingPeak = peak
		}
		firstRows = append(firstRows, run.firstRow.Nanoseconds())
		totals = append(totals, run.total.Nanoseconds())
	}
	// One wall-clock sample swings with the machine's load; the medians of
	// the streamed runs of one deployment do not.
	rec.StreamingNs, rec.FirstRowNs = medianNs(totals), medianNs(firstRows)
	return rec, nil
}

func medianNs(xs []int64) int64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// catalogDumpSrc returns one small constructed tree per work: a query whose
// result, not its intermediates, is what grows with the workload.
const catalogDumpSrc = `
MAKE entry[ title: $t, artist: $a, style: $s, size: $si ]
MATCH works WITH works[ *work[ title: $t, artist: $a, style: $s, size: $si ] ]
`

// runStreamSmoke is the -stream-smoke mode, against out-of-process wrappers,
// each query drained to a table and then streamed, asserting the three
// streaming promises: byte-identical rows (checked inside memPoint); bounded
// memory; and low time-to-first-row — on a large-n Q2, the median first row
// of five streamed runs under 25% of their median total time. Memory is held
// to two bounds. On Q2 at n=4000 the mediator's live-heap peak while a
// consumer reads chunk by chunk stays under 1 MB:
// half of the ~2 MB of intermediates the materialized walker PR 12 deleted
// held there, which is the threshold this assertion applied while that
// walker existed to be measured against. Q2's own result is too small for a
// drained run to hold more than a streamed one, so the relative form of the
// promise — streaming under half of what holding the result takes — is
// checked on a large-result catalog dump. The feed family's form of the same
// promise is checked last (feedIngestHeap).
func runStreamSmoke(wrappers string) error {
	const n, heapBound = 4000, 1 << 20
	fmt.Printf("stream-smoke: Q2 over wire, artifacts=%d\n", n)
	recs, err := memorySweep(datagen.Q2Src, []int{n}, wrappers)
	if err != nil {
		return err
	}
	r := recs[0]
	fmt.Printf("  drained:   live-heap peak %d bytes, %s\n",
		r.MaterializedPeak, time.Duration(r.MaterializedNs).Round(time.Millisecond))
	fmt.Printf("  streaming: live-heap peak %d bytes, median %s (first row after %s)\n",
		r.StreamingPeak, time.Duration(r.StreamingNs).Round(time.Millisecond),
		time.Duration(r.FirstRowNs).Round(time.Millisecond))
	if r.StreamingPeak >= heapBound {
		return fmt.Errorf("stream-smoke: streaming live-heap peak %d bytes is not under %d",
			r.StreamingPeak, heapBound)
	}
	if 4*r.FirstRowNs >= r.StreamingNs {
		return fmt.Errorf("stream-smoke: first row after %v of a %v query, want < 25%%",
			time.Duration(r.FirstRowNs), time.Duration(r.StreamingNs))
	}
	const dumpN = 16000
	fmt.Printf("stream-smoke: catalog dump over wire, works=%d\n", dumpN)
	if recs, err = memorySweep(catalogDumpSrc, []int{dumpN}, wrappers); err != nil {
		return err
	}
	d := recs[0]
	fmt.Printf("  drained:   live-heap peak %d bytes, %d rows\n", d.MaterializedPeak, d.Rows)
	fmt.Printf("  streaming: live-heap peak %d bytes\n", d.StreamingPeak)
	if d.StreamingPeak >= d.MaterializedPeak/2 {
		return fmt.Errorf("stream-smoke: streaming live-heap peak %d bytes is not under half the drained table's %d",
			d.StreamingPeak, d.MaterializedPeak)
	}
	if err := feedIngestHeap(); err != nil {
		return err
	}
	fmt.Println("stream-smoke: OK")
	return nil
}

// feedIngestHeap holds the feed decode pipeline to its streaming promise on
// a 20,000-record dump (feed_ingest_lookup's size): a drain-only pass —
// records decoded, normalized and dropped — holds one chunk window, so its
// live-heap peak (mostly allocate-black float from the concurrent mark) must
// stay well under that of a store ingest, which retains every record. If the
// pipeline ever started retaining the dump the two would converge.
func feedIngestHeap() error {
	const n = 20000
	c := datagen.GenerateFeed(datagen.DefaultFeedParams(n))
	// Rendered before either baseline is sampled, so only the pipeline's own
	// window counts against a peak.
	var sb strings.Builder
	if err := c.WriteNDXML(&sb); err != nil {
		return err
	}
	dump := sb.String()
	reader := func() feed.Reader { return feed.NewNDXML(strings.NewReader(dump), "smoke.ndxml") }
	fmt.Printf("stream-smoke: feed ingest, records=%d\n", n)

	sampler := startLiveSampler(10 * time.Millisecond)
	cur := feed.NewIngestCursor(reader(), tab.DefaultStreamChunk)
	for {
		if _, err := cur.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return fmt.Errorf("stream-smoke: feed drain: %w", err)
		}
	}
	cur.Close()
	drainPeak := sampler.stopPeak()

	store := feed.NewStore()
	sampler = startLiveSampler(10 * time.Millisecond)
	stats, err := store.Ingest(reader())
	ingestPeak := sampler.stopPeak()
	runtime.KeepAlive(store) // retained through the final sample
	if err != nil {
		return fmt.Errorf("stream-smoke: feed ingest: %w", err)
	}
	if stats.Ingested != len(c.Records) {
		return fmt.Errorf("stream-smoke: feed ingested %d records, ground truth %d", stats.Ingested, len(c.Records))
	}
	fmt.Printf("  decode pipeline: live-heap peak %d bytes\n", drainPeak)
	fmt.Printf("  store ingest:    live-heap peak %d bytes\n", ingestPeak)
	if 2*drainPeak >= ingestPeak {
		return fmt.Errorf("stream-smoke: decode pipeline live-heap peak %d is not well under the retaining ingest's %d — the pipeline is holding on to the corpus",
			drainPeak, ingestPeak)
	}
	return nil
}
