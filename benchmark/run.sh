#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given; BENCHMARK.json names this script as the command.
# Everything the build writes stays under .bench_build in the checkout —
# the Go build and module caches, the go command's scratch directory and
# its per-user configuration directory (where it keeps its telemetry
# counters) — and the results go to benchmark/out.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=auto
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
