GO ?= go

.PHONY: check build vet test lint bench-build bench bench-smoke bench-json feed-bench-json fault-matrix profile-smoke typecheck-smoke stream-smoke load-smoke feed-smoke bench-trace fuzz-short

check: build vet test lint bench-build fuzz-short fault-matrix bench-smoke profile-smoke typecheck-smoke stream-smoke load-smoke feed-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -race ./...

lint:
	$(GO) run ./cmd/yat-lint ./...

# bench/ is a module of its own (BENCHMARK.json's benchmark), so `./...`
# above never enters it: vet and test it here, or an engine API change
# breaks the benchmark without tier-1 noticing.
bench-build:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# A short fuzzing pass, 10 s per target, seeded by the checked-in corpora:
# the XQuery-FLWR parser (crash-freedom plus the parse/print/re-parse
# fixpoint property) and the two byte boundaries of the wire — arbitrary
# bytes as a request frame at a server, and as the reply frames at a client.
fuzz-short:
	$(GO) test -run FuzzParseQuery -fuzz FuzzParseQuery -fuzztime 10s ./internal/xq
	$(GO) test -run FuzzServeRequest -fuzz FuzzServeRequest -fuzztime 10s ./internal/wire
	$(GO) test -run FuzzReplyFrames -fuzz FuzzReplyFrames -fuzztime 10s ./internal/wire

bench:
	$(GO) test -bench=. -benchmem .

# One iteration of every benchmark: catches bit-rotted benchmark code (and
# the result-equality assertions inside them) without paying for a full run.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run XXX .

# The fault-injection matrix: every injected fault kind (drop, truncate,
# garble, delay, kill) against Q2 over live wire wrappers, serial and
# parallel, under the race detector. Runs as part of `make test` too; this
# target re-runs just the matrix so a CI step can surface it by name.
fault-matrix:
	$(GO) test -race -run 'TestFaultMatrix|TestOnePercentFaultRate|TestAllowPartial|TestBreaker' ./internal/mediator ./internal/wire ./internal/faults

# Machine-readable Fig. 9 Q2 measurements (per-binding vs batched vs traced vs
# cached vs 1%-fault recovery vs compiled-from-XQuery vs pipelined) plus the
# streaming memory sweep, for CI trend tracking; asserts row equality across
# all variants as it runs.
bench-json:
	$(GO) run ./cmd/yat-experiments -quick -bench-json BENCH_PR8.json

# Machine-readable E23 feed-family measurements: cold bulk ingest (rows/s),
# warm fetch-by-id against the sealed indexes, the three-family union over
# wire, and the ingest memory sweep whose decode-pipeline live-heap peak
# must stay flat across a 10× corpus growth.
feed-bench-json:
	$(GO) run ./cmd/yat-experiments -quick -feed-bench-json BENCH_PR10.json

# End-to-end streaming smoke: a large-n Q2 against out-of-process wrappers
# under live-heap and first-row-latency assertions, then the `stream`
# console command on the real three-process deployment. See
# scripts/stream_smoke.sh.
stream-smoke:
	./scripts/stream_smoke.sh

# End-to-end observability smoke: both wrappers and the mediator console as
# real processes, `profile` on Q2, the rendered span tree checked for
# per-operator lines, the exported Chrome trace validated as JSON, and the
# /metrics endpoints probed. See scripts/profile_smoke.sh.
profile-smoke:
	./scripts/profile_smoke.sh

# End-to-end plan-typing smoke: `typecheck` on Q2 renders the inferred
# pattern types from the wrappers' exported structures, and a query under
# -check-types (wire conformance mode) still returns rows. See
# scripts/typecheck_smoke.sh.
typecheck-smoke:
	./scripts/typecheck_smoke.sh

# End-to-end multi-tenant load smoke: two o2 replicas + the wais wrapper +
# the mediator front door as real processes, yat-loadgen driving concurrent
# closed-loop sessions across tenants, asserting zero errors and bounded
# p99; the JSON report lands in BENCH_PR9.json. Tune with LOADGEN_SESSIONS/
# LOADGEN_DURATION (the checked-in report is a 1000-session run). See
# scripts/load_smoke.sh.
load-smoke:
	./scripts/load_smoke.sh

# End-to-end bulk-feed smoke: feed-wrapper writes its zipped corpus, serves
# it after a quarantining streaming ingest, and the mediator console runs a
# query whose supported predicate is pushed (SourceQuery) while the
# unsupported one stays mediator-side. See scripts/feed_smoke.sh.
feed-smoke:
	./scripts/feed_smoke.sh

# Tracing-overhead benchmark: Fig. 9 Q2 batched with ExecOptions.Trace off
# vs. on (one iteration in CI; run without -benchtime for real numbers).
bench-trace:
	$(GO) test -bench 'BenchmarkTraceOverhead' -benchtime=1x -run XXX .
