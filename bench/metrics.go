package main

// metricDef names one metric. BENCHMARK.json at the repository root lists
// the same names, units, directions and bounds; a test holds the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the base median it may worsen by
	// Floor is the absolute difference below which --compare sees no change
	// (BENCHMARK.json has no key for it): point_frontdoor sets up in 2 ms,
	// and a quarter of that is less than two processes of one commit differ.
	Floor float64 `json:"-"`
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off and no bench code on the path. Every one of them is defined, and never
// zero, on every workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "first_row_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "source_calls_per_op", Unit: "count", Better: "lower", Bound: 0.01},
	{Name: "bytes_shipped_per_op", Unit: "bytes", Better: "lower", Bound: 0.01},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "alloc_bytes_per_op", Unit: "bytes", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// perLayer are the metrics of single layers, from the traced run: span
// aggregates, exact counters, and direct probes. Calls and time per
// operation of a layer that is not on a workload's path are 0 there; its
// percentiles, rates and ratios are not measured (see result.unmeasured).
var perLayer = []metricDef{
	{Name: "frontdoor.admit_us", Unit: "us", Better: "lower"},
	{Name: "frontdoor.http_self_ms", Unit: "ms", Better: "lower"},
	{Name: "frontdoor.shed_count", Unit: "count", Better: "lower"},
	{Name: "mediator.compose_us", Unit: "us", Better: "lower"},
	{Name: "mediator.compose_yatl_us", Unit: "us", Better: "lower"},
	{Name: "mediator.compose_xq_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.optimize_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.verify_share", Unit: "ratio", Better: "lower"},
	{Name: "planlint.lint_us", Unit: "us", Better: "lower"},
	{Name: "typecheck.infer_us", Unit: "us", Better: "lower"},
	{Name: "mediator.plan_share", Unit: "ratio", Better: "lower"},
	{Name: "exec.self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.first_chunk_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.bind_rows_per_op", Unit: "count", Better: "lower"},
	{Name: "exec.func_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "exec.rows_out_per_op", Unit: "count", Better: "higher"},
	{Name: "wire.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "wire.self_us_per_call", Unit: "us", Better: "lower"},
	{Name: "wire.self_ns_per_byte", Unit: "ns", Better: "lower"},
	{Name: "wire.retries", Unit: "count", Better: "lower"},
	{Name: "wire.redials", Unit: "count", Better: "lower"},
	{Name: "xmlenc.serialize_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "xmlenc.parse_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "route.balance_ratio", Unit: "ratio", Better: "higher"},
	{Name: "route.failovers", Unit: "count", Better: "lower"},
	{Name: "o2wrap.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "o2wrap.call_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "o2wrap.translate_self_ms", Unit: "ms", Better: "lower"},
	{Name: "o2.queries_per_op", Unit: "count", Better: "lower"},
	{Name: "o2.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "waiswrap.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "waiswrap.call_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "feed.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "feed.call_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "feed.ingest_rows_s", Unit: "rows/s", Better: "higher"},
	{Name: "feed.decode_rows_s", Unit: "rows/s", Better: "higher"},
	{Name: "feed.ingest_rows_s_2k", Unit: "rows/s", Better: "higher"},
	{Name: "feed.ingest_rows_s_20k", Unit: "rows/s", Better: "higher"},
	{Name: "feed.ingest_scaling_ratio", Unit: "ratio", Better: "higher"},
	{Name: "feed.index_share", Unit: "ratio", Better: "lower"},
	{Name: "feed.push_eq_us", Unit: "us", Better: "lower"},
	{Name: "feed.push_prefix_us", Unit: "us", Better: "lower"},
	{Name: "feed.quarantined", Unit: "count", Better: "lower"},
	{Name: "cost.pushes_per_op", Unit: "count", Better: "lower"},
	{Name: "cost.fetches_per_op", Unit: "count", Better: "lower"},
	{Name: "cost.tuples_shipped_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "proc.heap_live_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.goroutines_leaked", Unit: "count", Better: "lower"},
	{Name: "bench.samples", Unit: "count", Better: "higher"},
	{Name: "bench.error_rate", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.coverage_ratio", Unit: "ratio", Better: "higher"},
}

// measured is one reported value.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload prints as its last line.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
	// unmeasured names the metrics the run took no value for. The result
	// line must give every defined metric as a number, so they read 0
	// there; the report above the line prints them as n/a and result.json
	// leaves them out.
	unmeasured map[string]bool
}

// fill builds the reported metric set: every defined metric, in the
// definitions' units.
func (r *result) fill(defs []metricDef, values map[string]float64) {
	r.Metrics = make(map[string]measured, len(defs))
	r.unmeasured = map[string]bool{}
	for _, d := range defs {
		v, ok := values[d.Name]
		r.Metrics[d.Name] = measured{Value: v, Unit: d.Unit}
		if !ok {
			r.unmeasured[d.Name] = true
		}
	}
	for name := range values {
		if _, ok := r.Metrics[name]; !ok {
			panic("bench: value for undefined metric " + name) // a typo in this package
		}
	}
}
