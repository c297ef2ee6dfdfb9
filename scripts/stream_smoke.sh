#!/bin/sh
# stream_smoke.sh — end-to-end streaming smoke test.
#
# Two stages:
#   1. `yat-experiments -stream-smoke`: queries against out-of-process
#      wrappers, each drained to a table and then read chunk by chunk,
#      asserting the engine's three streaming promises — byte-identical rows;
#      mediator live-heap peak while streaming under 1 MB on a large-n Q2
#      and, on a large-result catalog dump, under half of what holding the
#      result takes; on the same Q2, first row in under 25% of total query
#      time.
#   2. The real Figure 2 deployment (both wrappers and the mediator console
#      as separate processes) running the `stream` console command on Q2,
#      checking rows arrive and the streaming summary line is printed.
#
# Requires only the go toolchain.
set -eu

cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
O2_PORT=17086
WAIS_PORT=17080
PIDS=""

cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "stream-smoke: building binaries"
go build -o "$WORK/o2-wrapper" ./cmd/o2-wrapper
go build -o "$WORK/xmlwais-wrapper" ./cmd/xmlwais-wrapper
go build -o "$WORK/yat-mediator" ./cmd/yat-mediator
go build -o "$WORK/yat-experiments" ./cmd/yat-experiments

echo "stream-smoke: memory / first-row assertions (out-of-process wrappers)"
"$WORK/yat-experiments" -stream-smoke -wrappers "$WORK"

"$WORK/o2-wrapper" -port $O2_PORT >"$WORK/o2.log" 2>&1 &
PIDS="$PIDS $!"
"$WORK/xmlwais-wrapper" -port $WAIS_PORT >"$WORK/wais.log" 2>&1 &
PIDS="$PIDS $!"

# Both wrappers print an "is running at" line once their listener is up.
i=0
until grep -q "is running at" "$WORK/o2.log" 2>/dev/null &&
      grep -q "is running at" "$WORK/wais.log" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "stream-smoke: FAIL — wrappers did not come up" >&2
        cat "$WORK/o2.log" "$WORK/wais.log" >&2
        exit 1
    fi
    sleep 0.1
done

cat >"$WORK/session.txt" <<EOF
connect o2artifact 127.0.0.1:$O2_PORT
connect xmlartwork 127.0.0.1:$WAIS_PORT
load view1.yat
stream MAKE result[ title: \$t, price: \$p ]
MATCH artworks WITH doc[ *work[ title: \$t, style: \$s, price: \$p ] ]
WHERE \$s = "Impressionist" AND \$p < 200000 ;
quit
EOF

echo "stream-smoke: running the stream console command on Q2"
"$WORK/yat-mediator" -script "$WORK/session.txt" >"$WORK/stream.out" 2>&1

for want in "result\[title:" "rows streamed (first row"; do
    if ! grep -q "$want" "$WORK/stream.out"; then
        echo "stream-smoke: FAIL — output lacks \"$want\"" >&2
        cat "$WORK/stream.out" >&2
        exit 1
    fi
done

echo "stream-smoke: OK"
