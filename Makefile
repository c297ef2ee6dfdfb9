GO ?= go

.PHONY: check build vet test lint bench-build fuzz-short fault-matrix experiments smoke

check: build vet test lint bench-build fuzz-short fault-matrix experiments smoke

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
# fixpoint property), the two byte boundaries of the wire — arbitrary
# bytes as a request frame at a server, and as the reply frames at a client —
# the OQL parser (the same two properties; its corpus is the queries
# o2wrap emits, whose text Wrapper.LastOQL promises can be replayed), and the
# text a tenant sends: arbitrary bytes through Compose never panic (the YAT_L
# parser included), and a clean naive plan optimizes under CheckInvariants.
fuzz-short:
	$(GO) test -run FuzzParseQuery -fuzz FuzzParseQuery -fuzztime 10s ./internal/xq
	$(GO) test -run FuzzServeRequest -fuzz FuzzServeRequest -fuzztime 10s ./internal/wire
	$(GO) test -run FuzzReplyFrames -fuzz FuzzReplyFrames -fuzztime 10s ./internal/wire
	$(GO) test -run FuzzParseOQL -fuzz FuzzParseOQL -fuzztime 10s ./internal/o2
	$(GO) test -run FuzzPlan -fuzz FuzzPlan -fuzztime 10s ./internal/mediator

# The fault-injection matrix: every injected fault kind (drop, truncate,
# garble, delay, kill) against Q2 over live wire wrappers, serial and
# parallel, under the race detector. Runs as part of `make test` too; this
# target re-runs just the matrix so a CI step can surface it by name.
fault-matrix:
	$(GO) test -race -run 'TestFaultMatrix|TestOnePercentFaultRate|TestAllowPartial|TestBreaker' ./internal/mediator ./internal/wire ./internal/faults

# The paper's counter tables (F7–F9, E10–E13) at -quick sizes, about a
# second: each asserts that the plans it compares return the same rows and
# that row counts equal the generator's ground truth.
experiments:
	$(GO) run ./cmd/yat-experiments -quick

# The end-to-end smoke: every binary built once, one deployment of real
# processes (2 o2 replicas + wais + feed), the stream-smoke heap and
# first-row bounds, the profile / typecheck / stream / feed console sessions
# and the front door under yat-loadgen. See scripts/smoke.sh.
smoke:
	./scripts/smoke.sh
