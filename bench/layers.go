package main

import (
	"strconv"
	"strings"
	"time"

	o2lib "repro/internal/o2"
)

// deployed is implemented by instances built on a mediator deployment.
type deployed interface{ deployment() *deployment }

func (p *pointInst) deployment() *deployment { return p.d }
func (q *q2Inst) deployment() *deployment    { return q.d }
func (u *unionInst) deployment() *deployment { return u.d }

// replayO2 re-executes, directly on the O₂ engine, the OQL query the wrapper
// translated last during the operation just finished: one o2.execute span,
// the engine's time for one pushed query without translation, wire or
// mediator.
func replayO2(inst instance, rec *recorder, op int64) {
	d, ok := inst.(deployed)
	if !ok {
		return
	}
	o2 := d.deployment().o2
	oql := o2.LastOQL
	if oql == "" {
		return
	}
	// Parsed outside the span: the wrapper hands the engine a query tree,
	// it never parses text.
	q, err := o2lib.ParseOQL(oql)
	if err != nil {
		return
	}
	p := pending{parent: op, op: op, start: time.Now()}
	_, err = o2.DB.Run(q)
	attrs := map[string]string{"replayed": "after the operation"}
	if err != nil {
		attrs["error"] = err.Error()
	}
	rec.finish(p, spanO2, false, attrs)
}

func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// Source names of the three wrapper families.
const (
	srcO2   = "o2artifact"
	srcWais = "xmlartwork"
	srcFeed = "bulkfeed"
)

// layerMetrics aggregates the traced phase's spans. Per-operation figures
// are over client.op spans only; the stage figures (compose, optimize,
// exec.stream) come from wherever the stage has its own span — the replays
// for query-text workloads, the operation itself for prebuilt plans.
func layerMetrics(spans []span, traced, base phase) map[string]float64 {
	v := map[string]float64{}
	self := selfTimes(spans)
	clientOps := map[int64]bool{}
	for i := range spans {
		if spans[i].Name == spanClientOp {
			clientOps[spans[i].ID] = true
		}
	}
	nOps := float64(len(clientOps))
	if nOps == 0 {
		return v
	}

	var wireCalls, wireSelf float64
	wrapCalls, wrapMS := map[string]float64{}, map[string]float64{}
	var compose, composeYATL, composeXQ, optimize, execSelf, firstChunk, bindRows, funcCalls, o2Exec, clientMS, replayMS []float64
	// explained is, per root operation, the time its spans attribute to a
	// named layer by direct timing: planning stages and source calls.
	explained := map[int64][][2]int64{}
	for i := range spans {
		s := &spans[i]
		inClient := clientOps[s.Op]
		next := strings.HasSuffix(s.Attrs["verb"], ".next")
		switch s.Name {
		case spanClientOp:
			clientMS = append(clientMS, ms(s.dur()))
		case spanReplayOp:
			replayMS = append(replayMS, ms(s.dur()))
		case spanSource:
			explained[s.Op] = append(explained[s.Op], [2]int64{s.StartNS, s.EndNS})
			if inClient {
				wireSelf += ms(self[s.ID])
				if !next {
					wireCalls++
				}
			}
		case spanWrapper:
			if inClient {
				src := s.Attrs["source"]
				wrapMS[src] += ms(s.dur())
				if !next {
					wrapCalls[src]++
				}
			}
		case spanCompose:
			explained[s.Op] = append(explained[s.Op], [2]int64{s.StartNS, s.EndNS})
			compose = append(compose, us(s.dur()))
			if s.Attrs["dialect"] == "yatl" {
				composeYATL = append(composeYATL, us(s.dur()))
			} else {
				composeXQ = append(composeXQ, us(s.dur()))
			}
		case spanOptimize:
			explained[s.Op] = append(explained[s.Op], [2]int64{s.StartNS, s.EndNS})
			optimize = append(optimize, us(s.dur()))
		case spanStream:
			execSelf = append(execSelf, ms(self[s.ID]))
			if ns := attrInt(s, "first_ns"); ns > 0 {
				firstChunk = append(firstChunk, ms(time.Duration(ns)))
			}
			bindRows = append(bindRows, float64(attrInt(s, "bind_rows")))
			funcCalls = append(funcCalls, float64(attrInt(s, "func_calls")))
		case spanO2:
			o2Exec = append(o2Exec, ms(s.dur()))
		}
	}

	v["bench.samples"] = nOps
	v["wire.calls_per_op"] = wireCalls / nOps
	v["wire.self_ms_per_op"] = wireSelf / nOps
	if wireCalls > 0 {
		v["wire.self_us_per_call"] = wireSelf * 1000 / wireCalls
	}
	for src, prefix := range map[string]string{srcO2: "o2wrap", srcWais: "waiswrap", srcFeed: "feed"} {
		v[prefix+".calls_per_op"] = wrapCalls[src] / nOps
		v[prefix+".call_ms_per_op"] = wrapMS[src] / nOps
	}
	// A stage no span of this workload timed has no median: the metric
	// stays unmeasured instead of reading 0.
	for name, samples := range map[string][]float64{
		"mediator.compose_us":      compose,
		"mediator.compose_yatl_us": composeYATL,
		"mediator.compose_xq_us":   composeXQ,
		"optimizer.optimize_us":    optimize,
		"exec.self_ms":             execSelf,
		"exec.first_chunk_ms":      firstChunk,
		"o2.execute_ms":            o2Exec,
	} {
		if len(samples) > 0 {
			v[name] = median(samples)
		}
	}

	// Coverage is taken on the operations whose inside is visible: the
	// replays where there are any (an HTTP operation hides the mediator),
	// the client operations otherwise.
	roots := spanClientOp
	if len(replayMS) > 0 {
		roots = spanReplayOp
		v["replay.gap_ms"] = median(clientMS) - median(replayMS)
	}
	var coverage []float64
	for i := range spans {
		if s := &spans[i]; s.Name == roots && s.dur() > 0 {
			coverage = append(coverage, float64(covered(explained[s.ID], s.StartNS, s.EndNS))/float64(s.dur()))
		}
	}
	v["bench.coverage_ratio"] = median(coverage)

	lat, _ := traced.latencies()
	baseLat, _ := base.latencies()
	v["traced.p50_ms"] = median(lat)
	if b := median(baseLat); b > 0 {
		v["bench.trace_overhead_pct"] = (median(lat)/b - 1) * 100
	}
	if supported(len(baseLat), 99) {
		v["proc.latency_p99_ms"] = percentile(baseLat, 99)
	}
	var rows float64
	for _, s := range traced.samples {
		rows += float64(s.rows.n)
	}
	v["exec.rows_out_per_op"] = rows / float64(len(traced.samples))
	v["exec.bind_rows_per_op"] = mean(bindRows)
	v["exec.func_calls_per_op"] = mean(funcCalls)
	return v
}

func attrInt(s *span, key string) int64 {
	n, _ := strconv.ParseInt(s.Attrs[key], 10, 64) // an absent attribute reads 0
	return n
}

func mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// derive fills the metrics defined in terms of others and removes the
// intermediate values that are not metrics themselves.
func derive(v map[string]float64, w workload, cost costs) {
	warm := float64(w.warmOps)
	o2PerOp := float64(cost.o2Queries) / warm
	v["cost.pushes_per_op"] = float64(cost.pushes) / warm
	v["cost.fetches_per_op"] = float64(cost.fetches) / warm
	v["cost.tuples_shipped_per_op"] = float64(cost.tuples) / warm
	if b := float64(cost.bytes) / warm; b > 0 {
		v["wire.self_ns_per_byte"] = v["wire.self_ms_per_op"] * 1e6 / b
	}
	if v["o2wrap.calls_per_op"] > 0 {
		v["o2.queries_per_op"] = o2PerOp
		v["o2wrap.translate_self_ms"] = v["o2wrap.call_ms_per_op"] - v["o2.execute_ms"]*o2PerOp
	}
	if _, planned := v["planlint.lint_us"]; planned && v["traced.p50_ms"] > 0 {
		// The planning work on an operation's path: compose, the verified
		// optimize, and the lint gate before execution (a prebuilt plan
		// meets only the gate).
		p50 := v["traced.p50_ms"]
		planMS := (v["mediator.compose_us"] + v["optimizer.optimize_us"] + v["planlint.lint_us"]) / 1000
		v["mediator.plan_share"] = planMS / p50
	}
	if w.name == pointFrontdoor.name {
		v["frontdoor.http_self_ms"] = v["replay.gap_ms"]
	}
	delete(v, "replay.gap_ms")
	delete(v, "traced.p50_ms")
}
