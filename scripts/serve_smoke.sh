#!/usr/bin/env bash
# serve_smoke.sh - end-to-end smoke test of the gpuportd campaign
# server. Boots the daemon on an ephemeral port, captures its live
# telemetry stream, submits the default full-study campaign over HTTP,
# polls status to completion, fetches the result CSV and diffs it
# byte-for-byte against the gpuport CLI's dataset for the same seed.
# A second, overlapping campaign then exercises the shared trace cache
# (its traces were already produced by the full study, so its 3 pairs
# must hit where the study's 51 missed). Also scrapes /metrics and the
# daemon's Chrome trace, and leaves the NDJSON stream capture behind, so
# CI can upload them as artifacts and `make obs-slo` can bound the SLO
# indicators. Finally it restarts the daemon over the same job directory
# and trace cache: the resubmitted study must be answered from the
# persisted entry, byte for byte.
#
# Requires: curl, jq, go. Run from the repository root (`make
# serve-smoke`).
set -euo pipefail

SEED=42
RUNS=3
WORKDIR=$(mktemp -d)
DAEMON_PID=""
STREAM_PID=""

cleanup() {
    if [ -n "$STREAM_PID" ] && kill -0 "$STREAM_PID" 2>/dev/null; then
        kill "$STREAM_PID" 2>/dev/null || true
        wait "$STREAM_PID" 2>/dev/null || true
    fi
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill "$DAEMON_PID" 2>/dev/null || true
        wait "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "== building gpuportd and gpuport"
go build -o "$WORKDIR/gpuportd" ./cmd/gpuportd
go build -o "$WORKDIR/gpuport" ./cmd/gpuport

# boot starts gpuportd over the shared job dir and trace cache, logging
# to $1, and sets DAEMON_PID and BASE.
boot() {
    local log=$1
    : > "$log" # exists before the banner poll reads it
    "$WORKDIR/gpuportd" -listen 127.0.0.1:0 \
        -jobdir "$WORKDIR/jobs" -trace-cache "$WORKDIR/cache" > "$log" &
    DAEMON_PID=$!
    BASE=""
    for _ in $(seq 1 100); do
        BASE=$(sed -n 's/^gpuportd listening on //p' "$log" | head -1)
        [ -n "$BASE" ] && break
        kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$log"; echo "daemon died"; exit 1; }
        sleep 0.1
    done
    [ -n "$BASE" ] || { echo "daemon never printed its listen banner"; exit 1; }
    echo "   $BASE"
}

echo "== booting gpuportd"
boot "$WORKDIR/daemon.log"

curl -fsS "$BASE/healthz" > /dev/null

echo "== capturing live telemetry stream"
curl -sN "$BASE/debug/obs-stream" -o gpuportd-stream.ndjson &
STREAM_PID=$!

# submit POSTs a campaign spec and prints its id.
submit() {
    local resp
    resp=$(curl -fsS -X POST "$BASE/v1/campaigns" \
        -H 'Content-Type: application/json' -d "$1")
    echo "   campaign $(echo "$resp" | jq -r .id) ($(echo "$resp" | jq -r .cells) cells)" >&2
    echo "$resp" | jq -r .id
}

# poll_done polls a campaign id until it reaches the done state.
poll_done() {
    local id=$1 state="queued" status
    for _ in $(seq 1 600); do
        status=$(curl -fsS "$BASE/v1/campaigns/$id")
        state=$(echo "$status" | jq -r .state)
        case "$state" in
            done) return 0 ;;
            failed|canceled) echo "campaign $state: $status"; return 1 ;;
        esac
        sleep 0.5
    done
    echo "campaign still $state after poll budget"
    return 1
}

echo "== submitting default full-study campaign (seed $SEED, runs $RUNS)"
ID=$(submit "{\"seed\":$SEED,\"runs\":$RUNS}")

echo "== polling to completion"
poll_done "$ID"
echo "   $(curl -fsS "$BASE/v1/campaigns/$ID" | jq -c .result)"

echo "== fetching server result"
curl -fsS "$BASE/v1/campaigns/$ID/result" -o "$WORKDIR/server.csv"

echo "== running the CLI path for the same campaign"
"$WORKDIR/gpuport" -seed "$SEED" -runs "$RUNS" -out "$WORKDIR/cli.csv" dataset > /dev/null

echo "== diffing server vs CLI datasets"
cmp "$WORKDIR/server.csv" "$WORKDIR/cli.csv"
echo "   byte-identical ($(wc -c < "$WORKDIR/server.csv") bytes)"

echo "== submitting overlapping campaign (shared trace cache must hit)"
ID2=$(submit "{\"seed\":$SEED,\"runs\":$RUNS,\"apps\":[\"bfs-wl\"]}")
poll_done "$ID2"

echo "== scraping observability artifacts"
curl -fsS "$BASE/metrics" -o gpuportd-metrics.prom
curl -fsS "$BASE/debug/obs-trace" -o gpuportd-obs-trace.json
grep -q 'gpuport_counter_total{name="jobs-completed"} 2' gpuportd-metrics.prom
grep -qxF 'gpuport_counter_total{name="trace-cache-hits"} 3' gpuportd-metrics.prom &&
    grep -qxF 'gpuport_counter_total{name="trace-cache-misses"} 51' gpuportd-metrics.prom ||
    { grep trace-cache gpuportd-metrics.prom; echo "want 3 trace-cache hits and 51 misses"; exit 1; }
jq -e '.traceEvents | length > 0' gpuportd-obs-trace.json > /dev/null
# Span IDs are identity: two campaigns' pipelines must not share one.
jq -e '[.traceEvents[] | select(.ph == "X") | .args.id] | length == (unique | length)' gpuportd-obs-trace.json > /dev/null

# Stop the stream capture and check it caught the campaigns' journey.
kill "$STREAM_PID" 2>/dev/null || true
wait "$STREAM_PID" 2>/dev/null || true
STREAM_PID=""
grep -q '"kind":"span"' gpuportd-stream.ndjson
grep -q '"kind":"counter"' gpuportd-stream.ndjson
echo "   stream capture: $(wc -l < gpuportd-stream.ndjson) events"

echo "== restarting gpuportd over the same job dir and trace cache"
kill -INT "$DAEMON_PID"
wait "$DAEMON_PID"
boot "$WORKDIR/daemon2.log"

echo "== resubmitting the full study (must be served from the job dir)"
curl -fsS -D "$WORKDIR/resubmit.headers" -o /dev/null -X POST "$BASE/v1/campaigns" \
    -H 'Content-Type: application/json' -d "{\"seed\":$SEED,\"runs\":$RUNS}"
tr -d '\r' < "$WORKDIR/resubmit.headers" | grep -qi '^X-Gpuportd-Source: cache$' ||
    { cat "$WORKDIR/resubmit.headers"; echo "resubmit was not served from cache"; exit 1; }
curl -fsS "$BASE/v1/campaigns/$ID/result" -o "$WORKDIR/restart.csv"
cmp "$WORKDIR/restart.csv" "$WORKDIR/cli.csv"
echo "   cache-served and byte-identical ($(wc -c < "$WORKDIR/restart.csv") bytes)"

echo "== serve smoke passed"
