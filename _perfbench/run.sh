#!/usr/bin/env bash
# Builds the benchmark and the gpuport command from the checkout's
# sources and runs the benchmark. Run from
# the repository root:
#
#   bash _perfbench/run.sh --workload study --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory. Outside a full checkout the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/go-mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C _perfbench build -o "$build/perfbench" . >&2
# The report workload runs the program itself as a child process.
go build -o "$build/gpuport" ./cmd/gpuport >&2
exec "$build/perfbench" "$@"
