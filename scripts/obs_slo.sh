#!/usr/bin/env bash
# obs_slo.sh - the SLO gate over the serve-smoke telemetry capture.
# `obsview slo` reads the NDJSON stream serve_smoke.sh left behind and
# writes submit p50/p99, queue-wait p99 and the cache-hit ratio as
# go-bench lines. benchcheck bounds each latency by k times its value in
# the committed BENCH_slo.json, with the same -maxratio syntax as every
# bench gate: the record's results go in first, renamed
# BenchmarkSLORecord/*, then the run's BenchmarkSLO/* lines. benchcheck
# folds repeats to the per-name minimum, so each bound is k times the
# fastest recorded run. A negative check feeds the record against
# itself times 10 and requires both submit gates to fail. Writes
# slo-report.txt (observations, then verdicts) for upload.
#
# The submit latency is the request span, which Submit opens after
# Spec.Resolve and Campaign.Fingerprint: it excludes input resolution.
#
# Each k is the record's max/min for that indicator times a 3x margin
# for the CI runner, rounded up; the margin is not measured on a runner.
# Both submit k stay below 10, so a 10x regression trips them.
#
# BENCH_slo.json is an input: this script never rewrites it, or a
# failing run would become its own reference. To re-record it on
# purpose, on the host whose figures it should hold:
#   1. run `make serve-smoke` at least 10 times;
#   2. after each run i, run
#      `go run ./cmd/obsview slo -bench run-$i.out gpuportd-stream.ndjson`;
#   3. run `cat run-*.out | go run ./cmd/benchcheck -json BENCH_slo.json`;
#   4. re-derive each k below from the new record.
#
# Requires: go, jq. Run from the repository root (`make obs-slo`, which
# runs serve-smoke first).
set -euo pipefail

STREAM=gpuportd-stream.ndjson
RECORD=BENCH_slo.json
[ -s "$STREAM" ] || { echo "missing $STREAM - run make serve-smoke first"; exit 1; }

GATES=(
    -maxratio BenchmarkSLORecord/submit-latency-p50,BenchmarkSLO/submit-latency-p50,9
    -maxratio BenchmarkSLORecord/submit-latency-p99,BenchmarkSLO/submit-latency-p99,8
    -maxratio BenchmarkSLORecord/queue-wait-p99,BenchmarkSLO/queue-wait-p99,12
)

# record prints the committed results as go-bench lines, each renamed
# from BenchmarkSLO/ to $1 and its value multiplied by $2.
record() {
    jq -r --arg p "$1" --argjson k "$2" \
        '.results[] | "\(.name | sub("^BenchmarkSLO/"; $p)) 1 \(.ns_per_op * $k) ns/op"' "$RECORD"
}

echo "== observing SLO indicators in $STREAM"
go run ./cmd/obsview slo -bench slo-bench.out -report slo-report.txt "$STREAM"

echo "== bounding them against $RECORD"
{ record BenchmarkSLORecord/ 1; cat slo-bench.out; } |
    go run ./cmd/benchcheck "${GATES[@]}" ${BENCHMD:+-md "$BENCHMD"} | tee -a slo-report.txt
rm -f slo-bench.out

echo "== negative check: the record times 10 must fail both submit gates"
if neg=$({ record BenchmarkSLORecord/ 1; record BenchmarkSLO/ 10; } |
    go run ./cmd/benchcheck "${GATES[@]}" 2>&1); then
    echo "$neg"; echo "benchcheck passed a 10x regression - the gate is dead"; exit 1
fi
for g in submit-latency-p50 submit-latency-p99; do
    grep -q "^FAIL ratio BenchmarkSLO/$g " <<< "$neg" ||
        { echo "$neg"; echo "a 10x $g regression did not FAIL"; exit 1; }
done
echo "   both submit gates FAIL, the gate is live"

echo "== obs-slo passed"
