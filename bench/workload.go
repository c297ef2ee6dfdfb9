package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/algebra"
	"repro/internal/mediator"
	"repro/internal/tab"
)

// config is one run's settings.
type config struct {
	seed    int64   // operation order and lookup keys
	seconds float64 // length of the measured phase
	// small shrinks corpora, fixed passes and the set-up repetitions by
	// smallDiv so that the package's tests can run every workload in both
	// modes within seconds. Its numbers mean nothing; the command never
	// sets it.
	small bool
}

const smallDiv = 10

// corpusSeed is datagen.Params.Seed and FeedParams.Seed in every workload.
// The corpora are pinned and --seed reorders the operations over them: a
// generated corpus's result sizes move with its seed (Q2 at 3,000 artifacts
// makes 8 or 9 pushes and ships 29.5 to 39.9 KB over corpus seeds 1 to 8),
// and the benchmark's bounds are applied across runs that differ in --seed.
const corpusSeed = 42

// size is n, or n/smallDiv (at least 1) in a small run.
func (c config) size(n int) int {
	if c.small {
		return max(1, n/smallDiv)
	}
	return n
}

// sized is the workload with its operation counts scaled to the run.
func (w workload) sized(cfg config) workload {
	w.warmOps, w.cycle = cfg.size(w.warmOps), cfg.size(w.cycle)
	return w
}

// workload is one pinned set of inputs and the way operations are issued
// against it. Every loop is closed: a client issues its next operation when
// the previous one has completed.
type workload struct {
	name, why string
	// clients is the number of closed-loop clients (goroutines, each with
	// its own connection) in the timed phase. Traced phases run one client,
	// so that every span belongs to exactly one operation.
	clients int
	// warmOps is the fixed operation count of the single-client pass that
	// follows set-up: it warms the deployment and, being independent of run
	// length and — through balanced operation orders — of the seed, is what
	// the paper's cost counters are reported over.
	warmOps int
	// cycle is the operation count after which the instance wants
	// beginCycle called again (feed_ingest_lookup re-ingests every 2,000
	// lookups); measured phases end on a cycle boundary. 1 = no cycles.
	cycle int
	// setup builds the deployment. With a recorder every source is tapped.
	setup func(cfg config, rec *recorder) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// op runs operation i of client c and reports what the client saw.
	op(c, i int) sample
	// costs reads the cumulative §5.3 counters.
	costs() costs
	close()
}

// cycler is implemented by instances whose operations come in cycles with
// work in between that is not an operation (the feed ingest).
type cycler interface{ beginCycle() error }

// replayer is implemented by instances whose operations hide the mediator
// behind another layer or behind one call: replay runs the same query text
// stage by stage, one span per stage, after the real operation.
type replayer interface{ replay(i int) error }

// prober is implemented by instances with layers worth timing directly.
type prober interface{ probe(p *probes) }

// sample is one operation as the client observed it.
type sample struct {
	latency  time.Duration
	firstRow time.Duration // 0 when the operation returned no row
	rows     digest
	stats    *algebra.Stats // library calls only: the query's own counters (span attributes in traced runs)
	failed   string         // "" = completed with the oracle's rows
}

func failedSample(format string, args ...any) sample {
	return sample{failed: fmt.Sprintf(format, args...)}
}

// drain consumes a mediator stream as a library caller would, stops the
// clock at the last chunk and only then checks the rows against the oracle.
func drain(s *mediator.Stream, start time.Time, want digest) sample {
	var out sample
	var chunks []*tab.Tab
	for t := range s.Chunks() {
		if out.firstRow == 0 {
			out.firstRow = time.Since(start)
		}
		chunks = append(chunks, t)
	}
	res, err := s.Result()
	out.latency = time.Since(start)
	if err != nil {
		out.failed = err.Error()
		return out
	}
	out.stats = &res.Stats
	for _, t := range chunks {
		digestTab(&out.rows, t)
	}
	if out.rows != want {
		out.failed = fmt.Sprintf("rows %v, oracle %v", out.rows, want)
	}
	return out
}

// streamText is the library caller's operation on a query text.
func streamText(m *mediator.Mediator, text string, opts mediator.ExecOptions, want digest) sample {
	start := time.Now()
	s, err := m.StreamContext(context.Background(), text, opts)
	if err != nil {
		return failedSample("%v", err)
	}
	return drain(s, start, want)
}

// streamPlan is the library caller's operation on a prebuilt plan; with a
// recorder it is one exec.stream span.
func streamPlan(m *mediator.Mediator, rec *recorder, plan algebra.Op, opts mediator.ExecOptions, want digest) sample {
	var sp *openSpan
	if rec != nil {
		sp = rec.begin(spanStream, nil)
	}
	start := time.Now()
	s, err := m.StreamPlan(context.Background(), plan, opts)
	if err != nil {
		if sp != nil {
			sp.end()
		}
		return failedSample("%v", err)
	}
	out := drain(s, start, want)
	if sp != nil {
		sp.attr("first_ns", fmt.Sprint(int64(out.firstRow)))
		if out.stats != nil {
			sp.attr("bind_rows", fmt.Sprint(out.stats.BindRows))
			sp.attr("func_calls", fmt.Sprint(out.stats.FuncCalls))
		}
		sp.end()
	}
	return out
}

// replayStaged runs one query text through the mediator's public stages,
// a span around each: Compose, Optimize (which verifies after every rewrite,
// as the deployment is configured), then StreamPlan (whose lint gate is the
// one StreamContext applies) drained to the end. The three together are the
// work of one StreamContext call.
func replayStaged(m *mediator.Mediator, rec *recorder, q query, opts mediator.ExecOptions) error {
	dialect := "xq"
	if q.yatl {
		dialect = "yatl"
	}
	root := rec.begin(spanReplayOp, map[string]string{"dialect": dialect})
	defer root.end()
	sp := rec.begin(spanCompose, map[string]string{"dialect": dialect})
	naive, err := m.Compose(q.text)
	sp.end()
	if err != nil {
		return err
	}
	sp = rec.begin(spanOptimize, nil)
	opt := m.Optimize(naive)
	sp.end()
	if s := streamPlan(m, rec, opt, opts, q.want); s.failed != "" {
		return fmt.Errorf("replay: %s", s.failed)
	}
	return nil
}

// balancedOrder returns a seeded shuffle in which index i occurs counts[i]
// times: any pass over the whole order issues every index exactly that
// often, so per-operation means over it do not depend on the seed, only the
// order does.
func balancedOrder(counts []int, seed int64) []int {
	var out []int
	for i, n := range counts {
		for ; n > 0; n-- {
			out = append(out, i)
		}
	}
	rng := newRand(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// rand is a SplitMix64 generator: the operation order must be a pure
// function of the seed on every Go version, which math/rand does not promise.
type rand struct{ s uint64 }

func newRand(seed int64) *rand { return &rand{s: uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d} }

func (r *rand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rand) intn(n int) int { return int(r.next() % uint64(n)) }

var workloads = []workload{pointFrontdoor, q2DJoin, union3Ship, feedIngestLookup}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
