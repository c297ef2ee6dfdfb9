#!/bin/sh
# smoke.sh — the end-to-end smoke test: every binary built once, one
# deployment of real processes, every console surface driven against it.
#
#   1. yat-experiments -stream-smoke: the streaming engine's live-heap and
#      first-row bounds and the feed decode pipeline's heap bound, against
#      wrappers it spawns itself at the sizes those bounds are stated for.
#   2. The deployment: o2-wrapper x2 (replicas of one logical source),
#      xmlwais-wrapper, and feed-wrapper serving the zipped corpus it wrote,
#      each on an ephemeral port parsed from its startup line.
#   3. Scripted yat-mediator console sessions on the paper's Q2 — profile
#      (span tree, Chrome trace, /metrics), typecheck + a query under
#      -check-types, stream — and the feed pushdown split (query + explain).
#   4. The front door over the replicated connect, driven by yat-loadgen:
#      zero errors, bounded p99, a minimum of completed queries.
#
# The Chrome trace and the loadgen report are left in the directory printed
# on the last line (CI uploads them); everything else is removed on exit.
# Requires only the go toolchain.
set -eu

cd "$(dirname "$0")/.."

OUT="$(mktemp -d "${TMPDIR:-/tmp}/yat-smoke.XXXXXX")"
TMP="$OUT/tmp"
BIN="$TMP/bin"
mkdir -p "$BIN"
PIDS=""

cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

# fail <message> [file...]: report, dump the given logs, exit.
fail() {
    echo "smoke: FAIL — $1" >&2
    shift
    [ $# -eq 0 ] || cat "$@" >&2
    exit 1
}

# wait_for <log> <regex>: up to 10 s for a matching line to appear.
wait_for() {
    i=0
    until grep -q "$2" "$1" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -le 100 ] || fail "$1 never printed \"$2\"" "$1"
        sleep 0.1
    done
}

# want <file> <string>...: every fixed string occurs in the file.
want() {
    f=$1
    shift
    for w in "$@"; do
        grep -qF -- "$w" "$f" || fail "$(basename "$f") lacks \"$w\"" "$f"
    done
}

# start <name> <binary> [flag...]: boot a wrapper, log to $TMP/<name>.log.
start() {
    log="$TMP/$1.log"
    bin="$BIN/$2"
    shift 2
    "$bin" "$@" >"$log" 2>&1 &
    PIDS="$PIDS $!"
}

# The bound port and metrics address a wrapper reported at startup.
port_of() { sed -n 's/.*is running at [^:]*:\([0-9][0-9]*\) .*/\1/p' "$TMP/$1.log"; }
metrics_of() { sed -n 's|.*metrics and pprof at http://\([^/]*\)/.*|\1|p' "$TMP/$1.log"; }

# console <name> [mediator flag...]: one scripted console session read from
# stdin, its output in $TMP/<name>.out.
console() {
    name=$1
    shift
    cat >"$TMP/$name.txt"
    "$BIN/yat-mediator" "$@" -script "$TMP/$name.txt" >"$TMP/$name.out" 2>&1 ||
        fail "the $name session exited non-zero" "$TMP/$name.out"
}

echo "smoke: building binaries"
go build -o "$BIN/" ./cmd/o2-wrapper ./cmd/xmlwais-wrapper ./cmd/feed-wrapper \
    ./cmd/yat-mediator ./cmd/yat-loadgen ./cmd/yat-experiments ./scripts/validate-trace

echo "smoke: memory / first-row assertions (out-of-process wrappers)"
"$BIN/yat-experiments" -stream-smoke -wrappers "$BIN"

echo "smoke: starting 2 o2 replicas + wais + feed wrappers"
"$BIN/feed-wrapper" -write-dump "$TMP/corpus.xml.zip" -records 600 >"$TMP/write.out"
want "$TMP/write.out" "wrote 600 lines"
start o2a o2-wrapper -port 0 -metrics-addr 127.0.0.1:0
start o2b o2-wrapper -port 0
start wais xmlwais-wrapper -port 0 -metrics-addr 127.0.0.1:0
start feed feed-wrapper -port 0 -dump "$TMP/corpus.xml.zip"
for w in o2a o2b wais feed; do wait_for "$TMP/$w.log" "is running at"; done
# The ingest pipeline must have quarantined the corpus's malformed lines
# (4% of 600) rather than aborting on them.
grep -q "records ingested, [1-9][0-9]* quarantined" "$TMP/feed.log" ||
    fail "feed-wrapper reports no quarantined records" "$TMP/feed.log"
O2A="127.0.0.1:$(port_of o2a)"
O2B="127.0.0.1:$(port_of o2b)"
WAIS="127.0.0.1:$(port_of wais)"
FEED="127.0.0.1:$(port_of feed)"

Q2='MAKE result[ title: $t, price: $p ]
MATCH artworks WITH doc[ *work[ title: $t, style: $s, price: $p ] ]
WHERE $s = "Impressionist" AND $p < 200000 ;'
FIG2="connect o2artifact $O2A
connect xmlartwork $WAIS
load view1.yat"

echo "smoke: profile on Q2, Chrome trace and /metrics endpoints"
printf '%s\n' "$FIG2" "profile $Q2" quit |
    console profile -trace-out "$OUT/trace-q2.json" -metrics-addr 127.0.0.1:0
want "$TMP/profile.out" "profile (" "DJoin" "SourceQuery(xmlartwork)" "chrome trace written"
"$BIN/validate-trace" "$OUT/trace-q2.json" \
    "http://$(metrics_of o2a)/metrics" "http://$(metrics_of wais)/metrics"

echo "smoke: typecheck + a query under -check-types on Q2"
printf '%s\n' "$FIG2" "typecheck $Q2" "query $Q2" quit | console typecheck -check-types
want "$TMP/typecheck.out" "typed plan (root" " :: " "SourceQuery(xmlartwork)" "String" " rows (fetches="
if grep -q "error:" "$TMP/typecheck.out"; then
    fail "the typecheck session reported an error" "$TMP/typecheck.out"
fi

echo "smoke: the stream console command on Q2"
printf '%s\n' "$FIG2" "stream $Q2" quit | console stream
want "$TMP/stream.out" "result[title:" "rows streamed (first row"

# The journal equality is within the feed's capability profile and the year
# comparison is not: rows come back, and explain shows a SourceQuery pushed
# to bulkfeed under a mediator-side Select.
echo "smoke: the feed pushdown split"
FEEDQ='MAKE result[ title: $t, journal: $j ]
MATCH records WITH records[ *record[ title: $t, journal: $j, year: $y ] ]
WHERE $j = "Journal of Modern Art" AND $y > 1900 ;'
printf '%s\n' "connect bulkfeed $FEED" "query $FEEDQ" "explain $FEEDQ" quit | console feed
want "$TMP/feed.out" 'result[title:' 'SourceQuery(bulkfeed)' 'Select($y > 1900)'
if grep -q "^error:" "$TMP/feed.out"; then
    fail "the feed session reported an error" "$TMP/feed.out"
fi

echo "smoke: the front door over the replicated connect"
cat >"$TMP/door.txt" <<EOF
connect o2artifact $O2A,$O2B
connect xmlartwork $WAIS
load view1.yat
assume artifacts works \$y > 1800
assume persons works \$y > 1800
replicas
EOF
"$BIN/yat-mediator" -script "$TMP/door.txt" -serve 127.0.0.1:0 \
    -parallel 2 -cache 256 -tenant-concurrency 16 -tenant-queue 128 \
    -tenant-queue-timeout 20s >"$TMP/door.log" 2>&1 &
PIDS="$PIDS $!"
wait_for "$TMP/door.log" "front door is running at"
wait_for "$TMP/door.log" "connected o2artifact across 2 replicas"
DOOR="$(sed -n 's/.*front door is running at \(.*\)/\1/p' "$TMP/door.log")"

echo "smoke: driving 200 sessions for 5s"
"$BIN/yat-loadgen" -addr "$DOOR" -sessions 200 -duration 5s -tenants 8 \
    -out "$OUT/loadgen.json" -assert-no-errors -assert-p99-ms 2000 -assert-min-queries 200
# The console must have reported the replica set connected and healthy
# (post-load distribution across replicas is pinned by the route tests).
want "$TMP/door.log" "2/2 replicas closed"

echo "smoke: OK (trace-q2.json and loadgen.json in $OUT)"
