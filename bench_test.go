package gpuport

// The benchmark harness: one benchmark per table and figure of the
// paper, regenerating the corresponding result and reporting its
// headline numbers as custom metrics, plus ablation benchmarks for the
// design choices called out in DESIGN.md.
//
// Run with: go test -bench=. -benchmem

import (
	"path/filepath"
	"sync"
	"testing"

	"gpuport/internal/analysis"
	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/cost"
	"gpuport/internal/cost/columnar"
	"gpuport/internal/dataset"
	"gpuport/internal/fault"
	"gpuport/internal/graph"
	"gpuport/internal/irgl"
	"gpuport/internal/measure"
	"gpuport/internal/microbench"
	"gpuport/internal/obs"
	"gpuport/internal/opt"
	"gpuport/internal/staticlint"
	"gpuport/internal/stats"
	"gpuport/internal/study"
	"gpuport/internal/tracecache"
)

var (
	benchOnce  sync.Once
	benchStudy *study.Study
	benchErr   error
)

func sharedStudy(b *testing.B) *study.Study {
	b.Helper()
	benchOnce.Do(func() { benchStudy, benchErr = study.Default() })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchStudy
}

// BenchmarkDatasetCollection measures the full experiment sweep:
// 51 application traces expanded into 29,376 measured cells.
func BenchmarkDatasetCollection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := measure.Collect(measure.Options{Seed: 42, Runs: 3})
		if err != nil {
			b.Fatal(err)
		}
		if d.Len() == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// BenchmarkTable1 regenerates the chip registry (trivially cheap; kept
// so every table has its bench target).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(chip.All()) != 6 {
			b.Fatal("chip registry broken")
		}
	}
}

// BenchmarkTable2 regenerates the per-chip extreme effects.
func BenchmarkTable2(b *testing.B) {
	d := sharedStudy(b).Dataset()
	b.ResetTimer()
	var maxSpeed, maxSlow float64
	for i := 0; i < b.N; i++ {
		for _, e := range analysis.Extremes(d) {
			if e.MaxSpeedup > maxSpeed {
				maxSpeed = e.MaxSpeedup
			}
			if e.MaxSlowdown > maxSlow {
				maxSlow = e.MaxSlowdown
			}
		}
	}
	b.ReportMetric(maxSpeed, "max-speedup-x")
	b.ReportMetric(maxSlow, "max-slowdown-x")
}

// BenchmarkTable3 regenerates the global configuration ranking.
func BenchmarkTable3(b *testing.B) {
	d := sharedStudy(b).Dataset()
	b.ResetTimer()
	var top float64
	for i := 0; i < b.N; i++ {
		ranks := analysis.RankConfigs(d)
		top = analysis.MaxGeoMeanConfig(ranks).GeoMean
	}
	b.ReportMetric(top, "best-geomean")
}

// BenchmarkTable4 regenerates the per-chip bias breakdown.
func BenchmarkTable4(b *testing.B) {
	s := sharedStudy(b)
	cfg := analysis.MaxGeoMeanConfig(s.Ranks()).Config
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.PerChipCounts(s.Dataset(), cfg)) != 6 {
			b.Fatal("missing chips")
		}
	}
}

// BenchmarkTable9 regenerates the chip-specialised recommendations
// (Algorithm 1 over six chip partitions).
func BenchmarkTable9(b *testing.B) {
	d := sharedStudy(b).Dataset()
	b.ResetTimer()
	var enabled int
	for i := 0; i < b.N; i++ {
		spec := analysis.NewIndex(d).Specialise(analysis.Dims{Chip: true})
		enabled = 0
		for _, p := range spec.Partitions {
			for _, dec := range p.Decisions {
				if dec.Enabled {
					enabled++
				}
			}
		}
	}
	b.ReportMetric(float64(enabled), "flags-enabled")
}

// BenchmarkTableX regenerates the two microbenchmark rows.
func BenchmarkTableX(b *testing.B) {
	var r9, mali float64
	for i := 0; i < b.N; i++ {
		sgcmb, mdivg := microbench.TableX(chip.All())
		for _, s := range sgcmb {
			if s.Chip == chip.R9 {
				r9 = s.Factor
			}
		}
		for _, s := range mdivg {
			if s.Chip == chip.MALI {
				mali = s.Factor
			}
		}
	}
	b.ReportMetric(r9, "sgcmb-R9-x")
	b.ReportMetric(mali, "mdivg-MALI-x")
}

// BenchmarkFigure1 regenerates the cross-chip portability heatmap.
func BenchmarkFigure1(b *testing.B) {
	d := sharedStudy(b).Dataset()
	b.ResetTimer()
	var worstCol float64
	for i := 0; i < b.N; i++ {
		h := analysis.CrossChipHeatmap(d)
		worstCol = 0
		for _, v := range h.ColMeanOffDiag {
			if v > worstCol {
				worstCol = v
			}
		}
	}
	b.ReportMetric(worstCol, "worst-col-geomean")
}

// BenchmarkFigure2 regenerates the per-chip top-speedup flag counts.
func BenchmarkFigure2(b *testing.B) {
	d := sharedStudy(b).Dataset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.TopSpeedupOpts(d)) != 6 {
			b.Fatal("missing chips")
		}
	}
}

// BenchmarkFigure3And4 regenerates the strategy evaluations (both
// figures come from the same computation).
func BenchmarkFigure3And4(b *testing.B) {
	s := sharedStudy(b)
	d, strategies := s.Dataset(), s.Strategies()
	b.ResetTimer()
	var globalVsOracle float64
	for i := 0; i < b.N; i++ {
		evals, _ := analysis.EvaluateAll(d, strategies)
		for _, e := range evals {
			if e.Name == "global" {
				globalVsOracle = e.GeoMeanSlowdownVsOracle
			}
		}
	}
	b.ReportMetric(globalVsOracle, "global-vs-oracle")
}

// BenchmarkFigure5 regenerates the launch-overhead utilisation sweep.
func BenchmarkFigure5(b *testing.B) {
	sweep := microbench.Figure5Sweep()
	var nvidiaAt10us float64
	for i := 0; i < b.N; i++ {
		for _, ch := range chip.All() {
			pts := microbench.LaunchOverhead(ch, sweep)
			if ch.Name == chip.GTX1080 {
				nvidiaAt10us = pts[2].Utilisation
			}
		}
	}
	b.ReportMetric(nvidiaAt10us*100, "gtx1080-util-pct-at-10us")
}

// BenchmarkAlgorithm1AllSpecialisations runs Algorithm 1 at every
// degree of specialisation (the full Section VII computation) over one
// index, as a study does.
func BenchmarkAlgorithm1AllSpecialisations(b *testing.B) {
	d := sharedStudy(b).Dataset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := analysis.NewIndex(d)
		for _, dims := range analysis.AllDims() {
			x.Specialise(dims)
		}
	}
}

// BenchmarkCollectFaultOverhead guards the zero-overhead claim of the
// fault-injected collect path: the same small sweep with (a) no fault
// layer, (b) the fault layer enabled at zero rates, and (c) realistic
// light fault rates. (a) and (b) must be within noise of each other -
// the zero-rate layer adds only one keyed RNG draw per cell - and (b)
// is bit-identical to (a) by TestZeroRateFaultsBitIdentical.
func BenchmarkCollectFaultOverhead(b *testing.B) {
	bfs, _ := apps.ByName("bfs-wl")
	pr, _ := apps.ByName("pr-residual")
	base := measure.Options{
		Seed:   7,
		Runs:   3,
		Chips:  chip.All()[:2],
		Apps:   []apps.App{bfs, pr},
		Inputs: []*graph.Graph{graph.GenerateUniform("bench-fault", 600, 5, 9)},
	}
	collect := func(b *testing.B, o measure.Options) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			d, err := measure.Collect(o)
			if err != nil {
				b.Fatal(err)
			}
			if d.Len() == 0 {
				b.Fatal("empty dataset")
			}
		}
	}
	b.Run("no-fault-layer", func(b *testing.B) { collect(b, base) })
	b.Run("zero-rate-faults", func(b *testing.B) {
		o := base
		o.Faults = &fault.Profile{Seed: 1}
		collect(b, o)
	})
	b.Run("light-faults", func(b *testing.B) {
		o := base
		o.Faults = fault.Light()
		collect(b, o)
	})
}

// --- trace pipeline benchmarks: serial vs parallel vs cached ---
//
// All three run the standard app x input matrix (17 x 3 = 51 traces),
// the exact workload every campaign pays before the sweep can start.
// The speedup claims (parallel >= 2x at 4 workers, cached >= 10x over
// cold) are enforced by cmd/benchcheck via `make bench-trace`, which
// records the results in BENCH_trace.json.

func benchTraces(b *testing.B, o measure.Options) {
	b.Helper()
	// Campaigns generate their inputs once per process; the benchmark
	// measures the trace pipeline itself, not graph generation.
	if o.Inputs == nil {
		o.Inputs = graph.StandardInputs()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traces, err := measure.Traces(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(traces) != 51 {
			b.Fatalf("traces = %d, want 51", len(traces))
		}
	}
	b.ReportMetric(51, "traces")
}

// BenchmarkTraces is the serial baseline: one worker, no cache (the
// pre-pipeline harness behaviour).
func BenchmarkTraces(b *testing.B) {
	benchTraces(b, measure.Options{Workers: 1})
}

// BenchmarkTracesParallel runs the same matrix on a 4-worker pool.
// The >= 2x speedup claim needs real cores; cmd/benchcheck only
// enforces it when the recording machine had GOMAXPROCS >= 4.
func BenchmarkTracesParallel(b *testing.B) {
	benchTraces(b, measure.Options{Workers: 4})
}

// BenchmarkTracesCached runs the matrix against a fully warm trace
// cache: every pair short-circuits to a verified read of its cached
// trace. Like the cold benchmarks, the timed loop records nothing; one
// untimed run on a fresh recorder afterwards checks that it hit.
func BenchmarkTracesCached(b *testing.B) {
	store, err := tracecache.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	o := measure.Options{Workers: 1, TraceCache: store, Inputs: graph.StandardInputs()}
	if _, err := measure.Traces(o); err != nil { // warm the cache
		b.Fatal(err)
	}
	benchTraces(b, o)
	b.StopTimer()
	o.Obs = obs.New()
	if _, err := measure.Traces(o); err != nil {
		b.Fatal(err)
	}
	if hits := o.Obs.Summary().Counter(obs.CtrCacheHits); hits != 51 {
		b.Fatalf("cached benchmark hit the cache %d times, want 51", hits)
	}
}

// --- workload generators: one bench per application per input class ---

func benchApp(b *testing.B, name string, g *graph.Graph) {
	app, err := apps.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var edges int64
	for i := 0; i < b.N; i++ {
		tr, _ := app.Run(g)
		edges = tr.TotalEdgeWork()
	}
	b.ReportMetric(float64(edges), "edge-work")
}

func BenchmarkAppsOnRoad(b *testing.B) {
	g := graph.GenerateRoad("bench-road", 48, 1)
	for _, app := range apps.All() {
		b.Run(app.Name, func(b *testing.B) { benchApp(b, app.Name, g) })
	}
}

func BenchmarkAppsOnSocial(b *testing.B) {
	g := graph.GenerateRMAT("bench-rmat", 11, 16, 2)
	for _, app := range apps.All() {
		b.Run(app.Name, func(b *testing.B) { benchApp(b, app.Name, g) })
	}
}

// BenchmarkCostModel measures per-launch cost evaluation throughput.
func BenchmarkCostModel(b *testing.B) {
	g := graph.GenerateRMAT("bench-cost", 10, 8, 3)
	app, _ := apps.ByName("bfs-wl")
	tr, _ := app.Run(g)
	tp := cost.NewTraceProfile(tr)
	chips := chip.All()
	cfgs := opt.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := chips[i%len(chips)]
		cfg := cfgs[i%len(cfgs)]
		if cost.Estimate(ch, cfg, tp) <= 0 {
			b.Fatal("bad estimate")
		}
	}
}

// BenchmarkMWU measures the core statistical test.
func BenchmarkMWU(b *testing.B) {
	rng := stats.NewRNG(1)
	a := make([]float64, 500)
	bb := make([]float64, 500)
	for i := range a {
		a[i] = rng.NormFloat64()
		bb[i] = rng.NormFloat64() + 0.1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.MannWhitneyU(a, bb)
	}
}

// BenchmarkSamplingCurve runs the Section IX subsampling experiment at
// 30% sampling, reporting the recommendation agreement it achieves.
func BenchmarkSamplingCurve(b *testing.B) {
	d := sharedStudy(b).Dataset()
	b.ResetTimer()
	var agree float64
	for i := 0; i < b.N; i++ {
		pts := analysis.NewIndex(d).SamplingCurve(analysis.Dims{Chip: true}, []float64{0.3}, 3, 7)
		agree = pts[0].MeanAgreement
	}
	b.ReportMetric(agree*100, "agreement-pct-at-30pct-sample")
}

// BenchmarkCrossValidate runs leave-one-chip-out prediction, reporting
// the mean gap to the oracle for unseen hardware.
func BenchmarkCrossValidate(b *testing.B) {
	d := sharedStudy(b).Dataset()
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		results := analysis.NewIndex(d).CrossValidate(analysis.LOOChip)
		sum := 0.0
		for _, r := range results {
			sum += r.Eval.GeoMeanSlowdownVsOracle
		}
		mean = sum / float64(len(results))
	}
	b.ReportMetric(mean, "unseen-chip-vs-oracle")
}

// --- ablation benchmarks: design choices of DESIGN.md section 5 ---

// BenchmarkAblationMagnitudeVsRank contrasts the paper's rank-based
// global pick against the flawed maximise-geomean policy, reporting the
// worst per-chip slowdown count each incurs (the Table IV bias).
func BenchmarkAblationMagnitudeVsRank(b *testing.B) {
	s := sharedStudy(b)
	d := s.Dataset()
	var rankWorst, magWorst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rankCfg := s.Global().Strategy.Config(dataset.Tuple{})
		magCfg := analysis.MaxGeoMeanConfig(s.Ranks()).Config
		rankWorst, magWorst = 0, 0
		for _, cc := range analysis.PerChipCounts(d, rankCfg) {
			if float64(cc.Slowdowns) > rankWorst {
				rankWorst = float64(cc.Slowdowns)
			}
		}
		for _, cc := range analysis.PerChipCounts(d, magCfg) {
			if float64(cc.Slowdowns) > magWorst {
				magWorst = float64(cc.Slowdowns)
			}
		}
	}
	b.ReportMetric(rankWorst, "rank-pick-worst-chip-slowdowns")
	b.ReportMetric(magWorst, "magnitude-pick-worst-chip-slowdowns")
}

// BenchmarkAblationSignificanceGate contrasts Algorithm 1 with and
// without the 95% CI significance gate, reporting how many of the 42
// per-chip flag decisions flip when raw (ungated) ratios feed the MWU
// test. A non-zero flip count is the reason the gate exists.
func BenchmarkAblationSignificanceGate(b *testing.B) {
	d := sharedStudy(b).Dataset()
	var flips float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gated := analysis.NewIndex(d).Specialise(analysis.Dims{Chip: true})
		ungated := analysis.SpecialiseUngated(d, analysis.Dims{Chip: true})
		flips = 0
		for p := range gated.Partitions {
			for f := range gated.Partitions[p].Decisions {
				if gated.Partitions[p].Decisions[f].Enabled != ungated.Partitions[p].Decisions[f].Enabled {
					flips++
				}
			}
		}
	}
	b.ReportMetric(flips, "decision-flips")
}

// BenchmarkAblationTraceReuse contrasts the trace-driven design (trace
// once per app/input, evaluate 96 configs against it) with what a
// näive per-config re-execution would cost, using one application.
func BenchmarkAblationTraceReuse(b *testing.B) {
	g := graph.GenerateRMAT("bench-reuse", 10, 8, 4)
	app, _ := apps.ByName("sssp-nf")
	chips := chip.All()
	b.Run("trace-once", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr, _ := app.Run(g)
			tp := cost.NewTraceProfile(tr)
			for _, ch := range chips {
				for _, cfg := range opt.All() {
					cost.Estimate(ch, cfg, tp)
				}
			}
		}
	})
	b.Run("retrace-per-config", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// One re-execution per configuration (single chip to keep
			// the benchmark affordable; the full factor is 6x larger).
			for range opt.All() {
				tr, _ := app.Run(g)
				tp := cost.NewTraceProfile(tr)
				cost.Estimate(chips[0], opt.Config{}, tp)
			}
		}
	})
}

// --- columnar cost engine: the bound behind `make bench-cost` ---
//
// Both sweep benchmarks evaluate the same grid - every (app, input)
// profile x 6 chips x 96 configs, the per-trace unit of work of a
// collection campaign - single-threaded. The columnar run pays its
// full pipeline inside the timer (Build + per-chip NewEvaluator +
// per-config assembly), so the measured ratio is the end-to-end sweep
// speedup, not a cherry-picked inner loop. cmd/benchcheck enforces
// >= 10x via `make bench-cost`, recorded in BENCH_cost.json.

// sweepTraces builds the traces the sweep benchmarks replay: three
// structurally different applications on an RMAT social graph.
func sweepTraces(b *testing.B) []*irgl.Trace {
	b.Helper()
	g := graph.GenerateRMAT("bench-sweep", 11, 16, 5)
	var out []*irgl.Trace
	for _, name := range []string{"bfs-wl", "sssp-nf", "pr-residual"} {
		app, err := apps.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		tr, _ := app.Run(g)
		out = append(out, tr)
	}
	return out
}

// BenchmarkSweepReference sweeps the grid through the reference engine
// (cost.Estimate per cell, as the harness ran before the columnar
// engine existed), over profiles built outside the timer.
func BenchmarkSweepReference(b *testing.B) {
	var profiles []*cost.TraceProfile
	for _, tr := range sweepTraces(b) {
		profiles = append(profiles, cost.NewTraceProfile(tr))
	}
	chips := chip.All()
	cfgs := opt.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := 0.0
		for _, tp := range profiles {
			for _, ch := range chips {
				for _, cfg := range cfgs {
					sink += cost.Estimate(ch, cfg, tp)
				}
			}
		}
		if sink <= 0 {
			b.Fatal("bad sweep")
		}
	}
}

// BenchmarkSweepColumnar sweeps the same grid through the columnar
// engine, rebuilding columns and evaluators inside the timer.
func BenchmarkSweepColumnar(b *testing.B) {
	traces := sweepTraces(b)
	chips := chip.All()
	cfgs := opt.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := 0.0
		for _, tr := range traces {
			cols := columnar.Build(tr)
			for _, ch := range chips {
				ev := columnar.NewEvaluator(ch, cols)
				for _, cfg := range cfgs {
					sink += ev.Estimate(cfg)
				}
			}
		}
		if sink <= 0 {
			b.Fatal("bad sweep")
		}
	}
}

// BenchmarkColumnarBuild isolates the config-invariant precompute; the
// max-ratio gate bounds it to a fraction of the columnar sweep so the
// build phase can never quietly grow into a second bottleneck.
func BenchmarkColumnarBuild(b *testing.B) {
	traces := sweepTraces(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range traces {
			if columnar.Build(tr) == nil {
				b.Fatal("no columns")
			}
		}
	}
}

// --- observability overhead: the bound behind `make bench-obs` ---

// --- static analysis engine: the staticgate CI gate's cost ---

// BenchmarkStaticgate measures the whole-program analysis engine over
// the staticlint fixture module, end to end: parallel parse,
// GOMAXPROCS-wave type-checking, and all analyzers (including the
// interprocedural lock-set and lock-order passes). This is the unit of
// work `make staticgate` pays per package tree, so its record in
// BENCH_ci.json is what catches a loader or analyzer slowdown.
func BenchmarkStaticgate(b *testing.B) {
	root := filepath.Join("internal", "staticlint", "testdata", "src", "fixture")
	analyzers := staticlint.Analyzers()
	// The repository's determinism roots and lock registry name this
	// tree's code, which the fixture does not have: each entry would
	// add one unmatched-entry finding, so the count would track the
	// size of the proof set rather than the fixture.
	cfg := staticlint.DefaultConfig()
	cfg.DetRoots, cfg.LockGuarded = nil, nil
	var findings int
	for i := 0; i < b.N; i++ {
		prog, err := staticlint.Load(root)
		if err != nil {
			b.Fatal(err)
		}
		res := staticlint.Run(prog, cfg, analyzers)
		findings = len(res.Diagnostics)
	}
	b.ReportMetric(float64(findings), "findings")
}

// BenchmarkSpanOverhead guards the observability overhead claim: full
// span capture plus the simulated kernel timeline (EnableSim, what
// -obs-trace turns on) must stay within 1.5x of the always-on counter
// layer (no spans, so no stage totals) on the trace pipeline. The bound is enforced by
// cmd/benchcheck via `make bench-obs`, recorded in BENCH_obs.json.
// Spans are the expensive tier - each kernel launch becomes a sim
// span - so this is the worst case for the instrumentation.
func BenchmarkSpanOverhead(b *testing.B) {
	bfs, _ := apps.ByName("bfs-wl")
	pr, _ := apps.ByName("pr-residual")
	base := measure.Options{
		Workers: 4,
		Apps:    []apps.App{bfs, pr},
		Inputs:  []*graph.Graph{graph.GenerateUniform("bench-obs", 600, 5, 9)},
	}
	runTraces := func(b *testing.B, mk func() *obs.Recorder) {
		b.Helper()
		var spans int
		for i := 0; i < b.N; i++ {
			o := base
			o.Obs = mk()
			if _, err := measure.Traces(o); err != nil {
				b.Fatal(err)
			}
			spans = len(o.Obs.Snapshot().Spans)
		}
		b.ReportMetric(float64(spans), "spans")
	}
	b.Run("counters-only", func(b *testing.B) {
		runTraces(b, func() *obs.Recorder { return obs.New() })
	})
	b.Run("spans-sim", func(b *testing.B) {
		runTraces(b, func() *obs.Recorder { return obs.New().EnableSim() })
	})
}
