#!/usr/bin/env bash
# obs_slo.sh - the SLO gate over the serve-smoke telemetry capture.
# Evaluates request-latency, queue-wait and cache-hit floors against
# the NDJSON stream serve_smoke.sh left behind, proves the gate is
# live by checking that an injected latency regression breaches it,
# and records the observations as BENCH_slo.json via benchcheck so the
# serve job's run page carries the numbers. `obsview slo` is the only
# floor check. Writes slo-report.txt for artifact upload.
#
# Floors are generous: CI runners are slow and shared, and this gate
# exists to catch collapses (a handler suddenly blocking, the queue
# jamming, the trace cache never hitting), not microsecond drift.
#
# Requires: go. Run from the repository root (`make obs-slo`, which
# runs serve-smoke first).
set -euo pipefail

STREAM=gpuportd-stream.ndjson
[ -s "$STREAM" ] || { echo "missing $STREAM - run make serve-smoke first"; exit 1; }

FLOORS=(-p50-ms 250 -p99-ms 2000 -queue-p99-ms 10000 -cache-hit-min 0.01)

echo "== evaluating SLO floors against $STREAM"
go run ./cmd/obsview slo "${FLOORS[@]}" \
    -bench slo-bench.out -report slo-report.txt "$STREAM"

echo "== negative check: an injected 3s regression must breach"
if go run ./cmd/obsview slo "${FLOORS[@]}" -inject-latency-ns 3000000000 \
    "$STREAM" > /dev/null 2>&1; then
    echo "injected latency regression was NOT caught - the gate is dead"
    exit 1
fi
echo "   breach detected, gate is live"

echo "== recording SLO observations (BENCH_slo.json)"
go run ./cmd/benchcheck -in slo-bench.out -json BENCH_slo.json \
    ${BENCHMD:+-md "$BENCHMD"}
rm -f slo-bench.out

echo "== obs-slo passed"
