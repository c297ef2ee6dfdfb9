package main

import (
	"context"
	"errors"
	"io"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/feed"
	"repro/internal/frontdoor"
	"repro/internal/mediator"
	"repro/internal/tab"
	"repro/internal/xmlenc"
)

// probes are the per-layer numbers taken by calling a layer's public
// functions directly, outside any operation, after the traced phase. Each
// probe times a fixed number of calls, so a traced run's length does not
// depend on how fast the layers are.
type probes struct {
	rec    *recorder
	values map[string]float64
	err    error // first probe that could not run
}

func newProbes(rec *recorder) *probes { return &probes{rec: rec, values: map[string]float64{}} }

func (p *probes) set(name string, v float64) { p.values[name] = v }

func (p *probes) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// time calls fn n times, each call a root span of the given name, and
// returns the median call time.
func (p *probes) time(name string, n int, fn func()) time.Duration {
	d := make([]float64, n)
	for i := range d {
		call := pending{start: time.Now()}
		fn()
		d[i] = float64(time.Since(call.start))
		p.rec.finish(call, name, false, map[string]string{"probe": "direct call"})
	}
	return time.Duration(median(d))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const planningCalls = 30 // timed calls per stage and query text

// planning times the mediator's planning stages on every distinct query
// text and reports, per stage, the median over texts of the per-text median.
// Compose and the verified Optimize are also timed inside every replayed
// operation (spans mediator.compose, optimizer.optimize); what only a probe
// can give is one lint pass, one inference pass, and the optimizer with
// verification switched off.
func (p *probes) planning(m *mediator.Mediator, queries []query) {
	var lint, infer, full, bare []float64
	for _, q := range queries {
		naive, err := m.Compose(q.text)
		if err != nil {
			p.fail(err)
			return
		}
		opt := m.Optimize(naive)
		lint = append(lint, us(p.time(spanLint, planningCalls, func() { m.Lint(opt) })))
		infer = append(infer, us(p.time(spanInfer, planningCalls, func() { _, _ = m.TypecheckPlan(opt) })))
		full = append(full, us(p.time(spanOptimize, planningCalls, func() { m.Optimize(naive) })))
		// No query is in flight during probes, so the field can be flipped.
		m.CheckInvariants = false
		bare = append(bare, us(p.time("optimizer.rewrite", planningCalls, func() { m.Optimize(naive) })))
		m.CheckInvariants = true
	}
	p.set("planlint.lint_us", median(lint))
	p.set("typecheck.infer_us", median(infer))
	if f := median(full); f > 0 {
		p.set("optimizer.verify_share", 1-median(bare)/f)
	}
}

// plan times the only planning work a prebuilt plan meets: the lint gate of
// StreamPlan, and one inference pass for comparison.
func (p *probes) plan(m *mediator.Mediator, plan algebra.Op) {
	p.set("planlint.lint_us", us(p.time(spanLint, planningCalls, func() { m.Lint(plan) })))
	p.set("typecheck.infer_us", us(p.time(spanInfer, planningCalls, func() { _, _ = m.TypecheckPlan(plan) })))
}

// admission times Door.Admit plus release for an idle tenant.
func (p *probes) admission(door *frontdoor.Door) {
	d := p.time(spanAdmit, 2000, func() {
		release, err := door.Admit(context.Background(), "probe")
		if err != nil {
			p.fail(err)
			return
		}
		release()
	})
	p.set("frontdoor.admit_us", us(d))
}

// transport reports the retries and redials the wire clients needed, as the
// mediator's registry counted them.
func (p *probes) transport(d *deployment) {
	p.set("wire.retries", float64(d.reg.Counter("retries_total").Value()))
	p.set("wire.redials", float64(d.reg.Counter("redials_total").Value()))
}

// routes reports how evenly the replica router spread its attempts and
// whether any replica failed.
func (p *probes) routes(d *deployment) {
	for _, rt := range d.routes {
		var lo, hi int64 = -1, 0
		failovers := 0
		for _, h := range rt.Health() {
			if lo < 0 || h.Served < lo {
				lo = h.Served
			}
			if h.Served > hi {
				hi = h.Served
			}
			failovers += h.Failures
			if h.State != "closed" {
				failovers++
			}
		}
		if hi > 0 {
			p.set("route.balance_ratio", float64(lo)/float64(hi))
		}
		p.set("route.failovers", float64(failovers))
	}
}

// xmlenc times the codec on the workload's own works forest under one root,
// the shape a fetch response has on the wire.
func (p *probes) xmlenc(works data.Forest) {
	root := data.Elem("forest")
	root.Kids = append(root.Kids, works...)
	var text string
	d := p.time("xmlenc.serialize", 9, func() { text = xmlenc.Serialize(root) })
	mb := float64(len(text)) / 1e6
	p.set("xmlenc.serialize_mb_s", mb/d.Seconds())
	d = p.time("xmlenc.parse", 9, func() {
		if _, err := xmlenc.Parse(text); err != nil {
			p.fail(err)
		}
	})
	p.set("xmlenc.parse_mb_s", mb/d.Seconds())
}

// feed times the feed layer's write and read paths directly: the decode
// pipeline alone, Store.Ingest at a tenth of the dump and at the whole dump
// (a ratio of 1 means ingest cost is linear in dump size), and
// Wrapper.Push without the wire.
func (p *probes) feed(f *feedInst) {
	lines := len(f.corpus.Lines)
	small := strings.Join(f.corpus.Lines[:lines/10], "\n") + "\n"
	// The prefix of a dump has no recorded ground truth of its own; its
	// first ingest is the reference the timed repeats are held to.
	ref, err := feed.NewStore().Ingest(feed.NewNDXML(strings.NewReader(small), "probe.ndxml"))
	if err != nil {
		p.fail(err)
		return
	}
	rate := func(dump string, lines, valid int, bad map[string]int) float64 {
		var secs []float64
		for i := 0; i < 5; i++ {
			_, d, err := f.ingest(dump, valid, bad)
			if err != nil {
				p.fail(err)
				return 0
			}
			secs = append(secs, d.Seconds())
		}
		return float64(lines) / median(secs)
	}
	r2k := rate(small, lines/10, ref.Ingested, ref.Reasons)
	r20k := rate(f.dump, lines, len(f.corpus.Records), f.corpus.Malformed)
	p.set("feed.ingest_rows_s_2k", r2k)
	p.set("feed.ingest_rows_s_20k", r20k)
	if r2k > 0 {
		p.set("feed.ingest_scaling_ratio", r20k/r2k)
	}

	var decode []float64
	for i := 0; i < 5; i++ {
		cur := feed.NewIngestCursor(feed.NewNDXML(strings.NewReader(f.dump), "probe.ndxml"), tab.DefaultStreamChunk)
		start := time.Now()
		for {
			if _, err := cur.Next(); err != nil {
				if !errors.Is(err, io.EOF) {
					p.fail(err)
				}
				break
			}
		}
		decode = append(decode, time.Since(start).Seconds())
		cur.Close()
	}
	p.set("feed.decode_rows_s", float64(lines)/median(decode))
	if r20k > 0 {
		p.set("feed.index_share", 1-median(decode)*r20k/float64(lines))
	}
	p.set("feed.ingest_rows_s", float64(lines)/median(f.ingests))
	p.set("feed.quarantined", float64(f.wrapper.S.Stats().Quarantined))
	f.drainRetries()
	p.set("wire.retries", float64(f.retries))
	p.set("wire.redials", float64(f.redials))

	var eq, prefix []float64
	for _, l := range f.lookups {
		start := time.Now()
		if _, err := f.wrapper.Push(l.plan, map[string]tab.Cell{"$k": l.param}); err != nil {
			p.fail(err)
			return
		}
		d := us(time.Since(start))
		if l.prefix {
			prefix = append(prefix, d)
		} else {
			eq = append(eq, d)
		}
	}
	p.set("feed.push_eq_us", median(eq))
	p.set("feed.push_prefix_us", median(prefix))
}
