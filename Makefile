GO ?= go

.PHONY: all vet build fmt-check staticgate lockgraph test race conform conform-mutate fuzz cover perfbench-test ci bench-trace bench-obs bench-cost bench-ci profile serve-smoke obs-slo clean

# BENCHMD, when set, makes every benchcheck invocation append its
# markdown results table (benchmark, ns/op, gate, verdict) to that
# file; CI points it at $GITHUB_STEP_SUMMARY.
BENCHMD_FLAG = $(if $(BENCHMD),-md '$(BENCHMD)')

all: ci

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# fmt-check fails (listing the files) if anything is not gofmt-clean,
# or if gofmt cannot parse a file outside testdata/ (the loader's
# unparsable fixtures live there on purpose).
fmt-check:
	@broken=$$(gofmt -l . 2>&1 >/dev/null | grep -Ev '^([^:]*/)?testdata/'); \
	if [ -n "$$broken" ]; then \
		echo "gofmt cannot parse:"; echo "$$broken"; exit 1; \
	fi; \
	unformatted=$$(gofmt -l . 2>/dev/null); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# staticgate runs the repository's one lint gate (see
# internal/staticlint): the type-aware whole-program rules (wall-clock
# and randomness confinement, error handling, float comparisons,
# context propagation, mutex hygiene, obs naming, the determinism proof
# over the named root set) and the file-level rules over every file in
# the tree, test files included (no unsafe, tracked t.Skip, no stray
# files under cmd/). Any finding fails it; a //lint:allow <rule>
# <reason> comment is the only exception. Lock copies are left to
# `go vet` (copylocks), run by the vet target.
staticgate:
	$(GO) run ./cmd/staticgate .

# lockgraph writes the whole-program lock-acquisition graph as
# lockgraph.json and lockgraph.dot (render with `dot -Tsvg`). Both
# encodings are byte-stable for a given tree; CI uploads them as
# artifacts so any ordering change is reviewable as a plain diff.
lockgraph:
	$(GO) run ./cmd/staticgate -only lockorder -lockgraph lockgraph .
	@echo "wrote lockgraph.json lockgraph.dot"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# conform runs the differential conformance engine (see
# internal/conform) twice with the standard budget and requires the two
# JSON reports to be bit-identical: one run proves the tree conforms,
# the comparison proves the engine itself is deterministic.
conform:
	$(GO) run ./cmd/conform -trials 200 -seed 1 -o conform-a.json
	$(GO) run ./cmd/conform -trials 200 -seed 1 -o conform-b.json 2>/dev/null
	cmp conform-a.json conform-b.json
	@rm -f conform-a.json conform-b.json

# conform-mutate is the engine's own sanity check: every deliberate bug
# behind the conformmutate build tag must be caught by a named property
# or by the differential pillar (-v so the shrunk counterexample and its
# reproduction seed are visible in the log).
conform-mutate:
	$(GO) test -tags conformmutate ./internal/conform -run TestMutation -v

# fuzz runs every fuzz target briefly; long exploratory sessions should
# raise -fuzztime by hand. Minimization is capped so a short budget is
# spent fuzzing rather than shrinking interesting inputs.
FUZZTIME ?= 15s
fuzz:
	$(GO) test ./internal/conform -run '^$$' -fuzz '^FuzzConformTrial$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzFingerprint$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/tracecache -run '^$$' -fuzz '^FuzzEntryDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/tracecache -run '^$$' -fuzz '^FuzzCutEntry$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/irgl -run '^$$' -fuzz '^FuzzTraceJSON$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzSpecDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s

# cover enforces statement-coverage floors on the packages carrying the
# study's correctness burden (see cmd/covercheck). Floors sit a few
# points under current coverage: the gate catches collapses, not drift.
cover:
	$(GO) test -cover ./... > cover.out || { cat cover.out; rm -f cover.out; exit 1; }
	$(GO) run ./cmd/covercheck -in cover.out \
		-floor gpuport/internal/analysis,94 \
		-floor gpuport/internal/apps,90 \
		-floor gpuport/internal/conform,88 \
		-floor gpuport/internal/cost,92 \
		-floor gpuport/internal/cost/columnar,95 \
		-floor gpuport/internal/dataset,94 \
		-floor gpuport/internal/irgl,89 \
		-floor gpuport/internal/measure,86 \
		-floor gpuport/internal/obs,68 \
		-floor gpuport/internal/report,85 \
		-floor gpuport/internal/server,85 \
		-floor gpuport/internal/staticlint,92 \
		-floor gpuport/internal/stats,97 \
		-floor gpuport/internal/tracecache,87
	@rm -f cover.out

# perfbench-test vets and tests the repository benchmark (_perfbench/, its
# own module, which ./... does not reach), so an internal API change
# cannot break the benchmark unnoticed.
perfbench-test:
	$(GO) -C _perfbench vet ./...
	$(GO) -C _perfbench test ./...

# ci is the full gate: everything a change must pass before merging.
# The test suite runs under race and under cover, so test is not
# repeated here.
ci: vet build fmt-check staticgate race conform conform-mutate cover perfbench-test

# serve-smoke boots gpuportd, drives a full campaign over real HTTP,
# polls it to completion and diffs the served CSV against the gpuport
# CLI's dataset for the same seed - the end-to-end proof that the
# daemon is a pure transport. A second overlapping campaign exercises
# the shared trace cache, and a restart over the same job dir must
# serve the study from its persisted entry. Leaves gpuportd-metrics.prom,
# gpuportd-obs-trace.json and the live gpuportd-stream.ndjson telemetry
# capture behind for upload (and for obs-slo).
serve-smoke:
	./scripts/serve_smoke.sh

# obs-slo is the SLO regression gate: it runs the serve smoke, reads
# submit p50/p99 and queue-wait p99 from the captured telemetry stream
# with `obsview slo`, and bounds each by k times its value in the
# committed BENCH_slo.json with benchcheck -maxratio; a negative check
# proves a 10x regression trips both submit gates. Leaves
# slo-report.txt behind for upload.
obs-slo: serve-smoke
	BENCHMD='$(BENCHMD)' ./scripts/obs_slo.sh

# bench-trace records the trace-pipeline benchmarks in BENCH_trace.json
# and enforces the pipeline's speedup claims: a warm cache is >= 10x
# faster than cold tracing everywhere, and 4 workers are >= 2x faster
# than serial wherever >= 4 CPUs exist (benchcheck skips that gate on
# smaller machines, where the speedup is physically impossible).
bench-trace:
	$(GO) test -run xxx -bench '^(BenchmarkTraces|BenchmarkTracesParallel|BenchmarkTracesCached)$$' \
		-benchtime 10x -benchmem . | tee bench-trace.out
	$(GO) run ./cmd/benchcheck -in bench-trace.out -json BENCH_trace.json $(BENCHMD_FLAG) \
		-speedup 'BenchmarkTraces,BenchmarkTracesParallel,2.0,4' \
		-speedup 'BenchmarkTraces,BenchmarkTracesCached,10.0'
	@rm -f bench-trace.out

# bench-obs guards the observability overhead bound: full span capture
# plus the simulated kernel timeline (what -obs-trace enables) must
# stay within 1.5x of the always-on counter layer. Recorded in
# BENCH_obs.json.
bench-obs:
	$(GO) test -run xxx -bench '^BenchmarkSpanOverhead$$' -benchtime 20x -benchmem . | tee bench-obs.out
	$(GO) run ./cmd/benchcheck -in bench-obs.out -json BENCH_obs.json $(BENCHMD_FLAG) \
		-maxratio 'BenchmarkSpanOverhead/counters-only,BenchmarkSpanOverhead/spans-sim,1.5'
	@rm -f bench-obs.out

# profile collects CPU and heap profiles plus a span trace of a full
# dataset sweep; inspect with `go tool pprof cpu.pprof` or load
# obs-trace.json into https://ui.perfetto.dev.
profile:
	$(GO) run ./cmd/gpuport -cpuprofile cpu.pprof -memprofile mem.pprof \
		-obs-trace obs-trace.json -obs-metrics obs-metrics.prom \
		-out profile-study.csv dataset
	@echo "wrote cpu.pprof mem.pprof obs-trace.json obs-metrics.prom"

# bench-cost guards the columnar sweep engine's contract (see
# internal/cost/columnar and DESIGN.md 5f): replaying the sweep grid
# through Columns/Evaluator is >= 10x faster than the reference
# cost.Estimate path on one thread, and building the columns costs at
# most half of even the columnar sweep, so per-trace Build amortises
# within a single (chip x config) grid. -count=4 repeats feed
# benchcheck's min-fold, binding the gates on steady-state figures
# rather than a noisy repeat. Recorded in BENCH_cost.json.
bench-cost:
	$(GO) test -run xxx -bench '^(BenchmarkSweepReference|BenchmarkSweepColumnar|BenchmarkColumnarBuild)$$' \
		-benchtime 20x -count 4 . | tee bench-cost.out
	$(GO) run ./cmd/benchcheck -in bench-cost.out -json BENCH_cost.json $(BENCHMD_FLAG) \
		-speedup 'BenchmarkSweepReference,BenchmarkSweepColumnar,10.0' \
		-maxratio 'BenchmarkSweepColumnar,BenchmarkColumnarBuild,0.5'
	@rm -f bench-cost.out

# bench-ci is the benchmark-regression job: every benchmark that has no
# target of its own (bench-trace, bench-obs and bench-cost record the
# seven it skips), recorded as BENCH_ci.json and gated on four claims:
# the fault-layer overhead (zero-rate faults within noise of no fault
# layer; 1.5x absorbs CI jitter), leave-one-out prediction reading one
# ratio index (its six chip folds cost under 5x one Table IX; with
# ratios and the fallback recomputed per fold they cost 10-13x), Table
# X simulating one workgroup per class (under 10x one Table IX;
# simulating every workgroup costs ~50x), and all eight degrees of
# specialisation reading one analysis.Index (under 6x one Table IX,
# which builds its own; with an index built per degree they cost
# 7.5-8.5x). -count 3 repeats feed benchcheck's min-fold, as in
# bench-cost: at 10 iterations the sub-millisecond rows swing between
# single runs.
bench-ci:
	$(GO) test -run xxx -bench=. \
		-skip '^(BenchmarkTraces|BenchmarkTracesParallel|BenchmarkTracesCached|BenchmarkSpanOverhead|BenchmarkSweepReference|BenchmarkSweepColumnar|BenchmarkColumnarBuild)$$' \
		-benchtime 10x -count 3 -benchmem . | tee bench-ci.out
	$(GO) run ./cmd/benchcheck -in bench-ci.out -json BENCH_ci.json $(BENCHMD_FLAG) \
		-maxratio 'BenchmarkCollectFaultOverhead/no-fault-layer,BenchmarkCollectFaultOverhead/zero-rate-faults,1.5' \
		-maxratio 'BenchmarkTable9,BenchmarkCrossValidate,5' \
		-maxratio 'BenchmarkTable9,BenchmarkTableX,10' \
		-maxratio 'BenchmarkTable9,BenchmarkAlgorithm1AllSpecialisations,6'
	@rm -f bench-ci.out

clean:
	$(GO) clean ./...
	rm -f bench-trace.out bench-ci.out bench-obs.out bench-cost.out cover.out conform-a.json conform-b.json lockgraph.json lockgraph.dot
	rm -f cpu.pprof mem.pprof obs-trace.json obs-metrics.prom profile-study.csv
	rm -f gpuportd-metrics.prom gpuportd-obs-trace.json gpuportd-stream.ndjson slo-report.txt slo-bench.out
