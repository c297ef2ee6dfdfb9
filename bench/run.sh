#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it with
# the given arguments. Everything the Go toolchain writes — build cache,
# temporary files, module cache, its own configuration and counters, the
# binary — stays under .bench_build/ in that checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gotmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= \
	go build -C "$root/bench" -o "$build/yat-bench" .
exec "$build/yat-bench" "$@"
