GO ?= go

.PHONY: check build vet test allocs lint bench-build fuzz-short fault-matrix experiments smoke lines

check: build vet test allocs lint bench-build fuzz-short fault-matrix experiments smoke

build:
	$(GO) build ./...

# gofmt -l prints every file whose formatting gofmt would change; any
# output fails the target.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

test:
	$(GO) test -race ./...

# The allocation guards (tests named *Allocs*) again without -race, so each
# pinned count holds in the build that ships as well as under the race
# detector.
allocs:
	$(GO) test -run Allocs ./...

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
# parser included), a YAT_L query re-parses from its printed form, and a
# clean naive plan optimizes under CheckInvariants, to the plan the plan map
# then serves — and the plan a wrapper decodes from a push: arbitrary bytes
# never panic, and an accepted plan marshals to text that decodes to the same
# plan. The next two read the XML every frame, document and capability
# description arrives in: arbitrary text through xmlenc.Parse and
# capability.Unmarshal never panics, and what either accepts serializes to
# text that reads back the same. The last two read a feed dump: arbitrary
# bytes through the newline-delimited XML reader never panic, and every
# non-blank line yields one record or one malformed-line error naming it,
# with reading going on past the error; arbitrary bytes through the zip
# reader never panic, and over an archive of chosen entries every non-blank
# line of each .ndxml or .xml entry yields, in entry order, one record or one
# malformed-line error naming the entry and line, the other entries nothing.
# The next holds the Bind filter matcher to a test-only copy of the matcher it
# replaced, over the random filter, forest and store generated from a seed.
# The next holds the XML the O2 wrapper writes for a shipped extent to the
# serializer's text for the tree it builds, over values decoded from arbitrary
# bytes: every kind, runs of references, empty collections, escaped strings.
# The last holds the one hash key of a row to Row.Equal, over rows of every
# cell kind decoded from arbitrary bytes: Equal rows share a key, and rows
# that differ only in where a boundary between cells falls never do.
fuzz-short:
	$(GO) test -run FuzzParseQuery -fuzz FuzzParseQuery -fuzztime 10s ./internal/xq
	$(GO) test -run FuzzServeRequest -fuzz FuzzServeRequest -fuzztime 10s ./internal/wire
	$(GO) test -run FuzzReplyFrames -fuzz FuzzReplyFrames -fuzztime 10s ./internal/wire
	$(GO) test -run FuzzParseOQL -fuzz FuzzParseOQL -fuzztime 10s ./internal/o2
	$(GO) test -run FuzzPlan -fuzz FuzzPlan -fuzztime 10s ./internal/mediator
	$(GO) test -run FuzzUnmarshalPlan -fuzz FuzzUnmarshalPlan -fuzztime 10s ./internal/algebra
	$(GO) test -run FuzzParseXML -fuzz FuzzParseXML -fuzztime 10s ./internal/xmlenc
	$(GO) test -run FuzzInterfaceXML -fuzz FuzzInterfaceXML -fuzztime 10s ./internal/capability
	$(GO) test -run FuzzNDXML -fuzz FuzzNDXML -fuzztime 10s ./internal/feed
	$(GO) test -run FuzzZipDump -fuzz FuzzZipDump -fuzztime 10s ./internal/feed
	$(GO) test -run FuzzMatch -fuzz FuzzMatch -fuzztime 10s ./internal/filter
	$(GO) test -run FuzzWriteMatchesSerialize -fuzz FuzzWriteMatchesSerialize -fuzztime 10s ./internal/o2wrap
	$(GO) test -run FuzzRowKey -fuzz FuzzRowKey -fuzztime 10s ./internal/tab

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

# Non-blank, non-comment lines of Go per package directory, non-test then
# test, over the tracked files outside bench/ (a module of its own), and the
# totals. A count to compare commits by; not part of check.
lines:
	@git ls-files '*.go' ':!bench/' | xargs awk ' \
		/^[ \t]*$$/ || /^[ \t]*\/\// { next } \
		{ d = FILENAME; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; t = FILENAME ~ /_test\.go$$/; n[d, t]++; all[t]++; dirs[d] } \
		END { for (d in dirs) printf "%-28s %6d %6d\n", d, n[d, 0], n[d, 1] | "sort"; close("sort"); \
			printf "%-28s %6d %6d\n", "total", all[0], all[1] }'
