package conform

import (
	"fmt"
	"math"

	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/graph"
	"gpuport/internal/irgl"
	"gpuport/internal/opt"
	"gpuport/internal/stats"
)

// The metamorphic property registry. Each property is a named,
// self-contained check over randomized workloads: it receives its own
// deterministic RNG (derived from the master seed and the property
// name, so filtering with -props cannot shift what any property sees)
// and a trial budget, and returns nil or an error describing the first
// violation.
//
// Three kinds of properties live here:
//
//   - cost-* / flag-*: metamorphic invariants of the cost model itself
//     (finiteness, monotonicities, order invariance, and per-flag
//     cost-term scoping: a Table VI flag must not perturb terms its
//     documentation does not mention);
//   - param-*: liveness of individual chip parameters - scaling a
//     parameter x10 must strictly move the cost of a workload that
//     exercises it. These give the mutation-sanity pillar its teeth:
//     deleting a cost term makes the matching parameter dead;
//   - chip-*: the DESIGN.md section 4 chip phenomena expressed as
//     orderings over sampled workloads (Nvidia's cheap launches, JIT
//     atomic combining, MALI's divergence sensitivity), so the chip
//     table cannot silently lose the behaviours the study depends on.

// Property is one named conformance property.
type Property struct {
	Name string
	Doc  string
	// Check runs up to trials randomized probes from r through the
	// given cost engine, returning an error describing the first
	// violation. Engine-independent checks ignore the engine.
	Check func(e engine, r *stats.RNG, trials int) error
	// eng is the cost engine this registry instance evaluates.
	eng engine
	// engineFree marks checks that never consult the cost engine, so
	// no columnar twin is registered for them.
	engineFree bool
}

// Properties returns the registry in canonical (report) order: the
// historical reference-engine properties first (names unchanged), then
// a "-columnar" twin of every engine-scoped property evaluating the
// columnar engine, then the reference-vs-columnar differential and the
// dense-vs-reference analysis differential. Twins
// draw independent seed streams (propSeed is keyed by name), so adding
// them shifts nothing the reference instances observe.
func Properties() []Property {
	base := baseProperties()
	out := append([]Property{}, base...)
	for _, p := range base {
		if p.engineFree {
			continue
		}
		p.Name += "-columnar"
		p.Doc += " (columnar engine)"
		p.eng = colEngine
		out = append(out, p)
	}
	out = append(out, Property{
		Name:  "engine-columnar-differential",
		Doc:   "reference and columnar cost engines produce bit-identical model times on randomized traces across every chip and configuration, shrinking any mismatch to a minimal trace",
		Check: checkEngineDifferential,
	}, Property{
		Name:  "analysis-dense-differential",
		Doc:   "Algorithm 1, Classify and Improvable over dense IDs and cached cell statistics match the string-keyed reference bit for bit on random partial datasets, gated and ungated, at every specialisation",
		Check: checkAnalysisDifferential,
	})
	return out
}

// baseProperties returns the reference-engine registry.
func baseProperties() []Property {
	return []Property{
		{
			Name:  "cost-finite-positive",
			Doc:   "every (chip, config) cost of a random trace is finite and strictly positive",
			Check: checkFinitePositive,
		},
		{
			Name:  "cost-empty-launch-invariant",
			Doc:   "a zero-item launch outside any loop costs exactly the launch latency under every config",
			Check: checkEmptyLaunch,
		},
		{
			Name:  "cost-launch-append-monotone",
			Doc:   "appending a launch to a trace strictly increases every (chip, config) cost",
			Check: checkLaunchAppend,
		},
		{
			Name:  "cost-loop-iteration-monotone",
			Doc:   "an extra host-loop iteration strictly increases cost unless oitergb outlines the loop, in which case cost is unchanged",
			Check: checkLoopIteration,
		},
		{
			Name:       "cost-item-order-invariant",
			Doc:        "runtime accounting and cost are invariant to the order items are processed in",
			Check:      checkItemOrder,
			engineFree: true,
		},
		{
			Name:       "app-trace-permutation-invariant",
			Doc:        "node-ID permutation leaves the traces of order-robust applications identical",
			Check:      checkPermInvariant,
			engineFree: true,
		},
		{
			Name:  "flag-oitergb-scope",
			Doc:   "oitergb has no effect on traces without host loops",
			Check: checkOiterGBScope,
		},
		{
			Name:  "flag-coopcv-scope",
			Doc:   "coop-cv has no effect on traces without worklist pushes",
			Check: checkCoopCVScope,
		},
		{
			Name:  "flag-np-scope",
			Doc:   "sg/wg/fg have no effect on kernels whose items never exceed one unit of work",
			Check: checkNPScope,
		},
		{
			Name:  "param-launch-latency-live",
			Doc:   "scaling LaunchNS x10 strictly increases non-outlined cost on every chip",
			Check: checkLaunchLatencyLive,
		},
		{
			Name:  "param-copy-live",
			Doc:   "scaling CopyNS x10 strictly increases looped-trace cost on every chip",
			Check: checkCopyLive,
		},
		{
			Name:  "param-divergence-live",
			Doc:   "scaling DivergencePenaltyNS x10 strictly increases cost of irregular-access kernels on every chip",
			Check: checkDivergenceLive,
		},
		{
			Name:  "param-wg-barrier-live",
			Doc:   "scaling WorkgroupBarrierNS x10 strictly increases wg-scheme cost on every chip",
			Check: checkWGBarrierLive,
		},
		{
			Name:  "param-atomic-live",
			Doc:   "scaling AtomicNS x10 strictly increases push-heavy cost on every chip",
			Check: checkAtomicLive,
		},
		{
			Name:  "chip-nvidia-cheap-launch",
			Doc:   "oitergb relief on launch-heavy loops is smallest on the two Nvidia chips (their lean runtime makes launches cheap) and exceeds 1 everywhere else",
			Check: checkNvidiaCheapLaunch,
		},
		{
			Name:  "chip-jit-coopcv-overhead",
			Doc:   "coop-cv strictly costs on chips whose JIT already combines atomics (M4000, GTX1080, HD5500) and on subgroup-less MALI",
			Check: checkJITCoopCVOverhead,
		},
		{
			Name:  "chip-combining-wins-r9-iris",
			Doc:   "coop-cv's median speedup on push-heavy kernels exceeds 1 on R9 and IRIS and stays below 1 on every other chip",
			Check: checkCombiningWins,
		},
		{
			Name:  "chip-mali-divergence-relief",
			Doc:   "sg's relief ratio on uniform irregular-access kernels is largest on MALI (divergence sensitivity with subgroup width 1) and exceeds 1 only there",
			Check: checkMALIDivergenceRelief,
		},
		{
			Name:  "chip-jit-combining-load-bearing",
			Doc:   "turning JITCombinesAtomics off strictly increases push-heavy baseline cost on the chips that have it (HD5500, M4000, GTX1080)",
			Check: checkJITLoadBearing,
		},
	}
}

// --- shared helpers ---

// sampleConfigs returns the baseline plus k distinct configurations
// drawn deterministically from the full space.
func sampleConfigs(r *stats.RNG, k int) []opt.Config {
	all := opt.All()
	out := []opt.Config{{}}
	for _, i := range r.Perm(len(all))[:k] {
		out = append(out, all[i])
	}
	return out
}

// forEachChip runs fn over the six study chips.
func forEachChip(fn func(ch chip.Chip) error) error {
	for _, ch := range chip.All() {
		if err := fn(ch); err != nil {
			return err
		}
	}
	return nil
}

// --- cost-model metamorphic invariants ---

func checkFinitePositive(e engine, r *stats.RNG, trials int) error {
	for t := 0; t < trials; t++ {
		tp := newProfile(randTrace(r))
		cfgs := sampleConfigs(r, 12)
		err := forEachChip(func(ch chip.Chip) error {
			for _, cfg := range cfgs {
				v := e.est(ch, cfg, tp)
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					return fmt.Errorf("trial %d: cost %v on %s under %s", t, v, ch.Name, cfg)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func checkEmptyLaunch(e engine, r *stats.RNG, trials int) error {
	// One probe suffices: the trace is fully determined. Keep the trial
	// loop shape anyway so the property scales like the others.
	_ = r
	tr := &irgl.Trace{App: "conform-empty", Input: "synth"}
	tr.Launches = append(tr.Launches, buildLaunch("empty", -1, nil, 0, 0, 0))
	tp := newProfile(tr)
	_ = trials
	return forEachChip(func(ch chip.Chip) error {
		base := e.est(ch, opt.Config{}, tp)
		if base <= 0 {
			return fmt.Errorf("empty launch costs %v on %s, want > 0 (launch latency)", base, ch.Name)
		}
		for _, cfg := range opt.All() {
			if v := e.est(ch, cfg, tp); v != base {
				return fmt.Errorf("empty launch on %s costs %v under %s but %v at baseline", ch.Name, v, cfg, base)
			}
		}
		return nil
	})
}

func checkLaunchAppend(e engine, r *stats.RNG, trials int) error {
	for t := 0; t < trials; t++ {
		tr := randTrace(r)
		var extra irgl.KernelStats
		if t%2 == 0 {
			// Half the probes append an empty launch: only its latency
			// term distinguishes the traces, pinning that term alive.
			extra = buildLaunch("appended", -1, nil, 0, 0, 0)
		} else {
			works := worksUniform(r, 1+r.Intn(50), 1, 8)
			extra = buildLaunch("appended", -1, works, 0, 0, sumWorks(works))
		}
		t2 := &irgl.Trace{
			App:      tr.App,
			Input:    tr.Input,
			Launches: append(append([]irgl.KernelStats{}, tr.Launches...), extra),
			Loops:    tr.Loops,
		}
		tp1, tp2 := newProfile(tr), newProfile(t2)
		cfgs := sampleConfigs(r, 10)
		err := forEachChip(func(ch chip.Chip) error {
			for _, cfg := range cfgs {
				v1, v2 := e.est(ch, cfg, tp1), e.est(ch, cfg, tp2)
				if !(v2 > v1) {
					return fmt.Errorf("trial %d: appending a launch on %s under %s: %v -> %v, want strict increase", t, ch.Name, cfg, v1, v2)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func checkLoopIteration(e engine, r *stats.RNG, trials int) error {
	for t := 0; t < trials; t++ {
		tr := randTrace(r)
		if len(tr.Loops) == 0 {
			continue
		}
		loops2 := append([]irgl.LoopStats{}, tr.Loops...)
		loops2[r.Intn(len(loops2))].Iterations++
		t2 := &irgl.Trace{App: tr.App, Input: tr.Input, Launches: tr.Launches, Loops: loops2}
		tp1, tp2 := newProfile(tr), newProfile(t2)
		cfgs := sampleConfigs(r, 10)
		err := forEachChip(func(ch chip.Chip) error {
			for _, cfg := range cfgs {
				v1, v2 := e.est(ch, cfg, tp1), e.est(ch, cfg, tp2)
				if cfg.OiterGB {
					// Outlined loops dispatch once; iteration count must
					// not leak into the cost.
					if v1 != v2 {
						return fmt.Errorf("trial %d: extra iteration under outlining on %s (%s): %v -> %v, want unchanged", t, ch.Name, cfg, v1, v2)
					}
				} else if !(v2 > v1) {
					return fmt.Errorf("trial %d: extra iteration on %s under %s: %v -> %v, want strict increase", t, ch.Name, cfg, v1, v2)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func checkItemOrder(_ engine, r *stats.RNG, trials int) error {
	for t := 0; t < trials; t++ {
		works := worksSkewed(r, 1+r.Intn(200))
		shuffled := make([]int64, len(works))
		for i, j := range r.Perm(len(works)) {
			shuffled[i] = works[j]
		}
		st1 := buildLaunch("k", -1, works, 3, 5, 7)
		st2 := buildLaunch("k", -1, shuffled, 3, 5, 7)
		if st1 != st2 {
			return fmt.Errorf("trial %d: kernel stats depend on item order: %+v vs %+v", t, st1, st2)
		}
	}
	return nil
}

// permApps are the applications whose traces are provably invariant
// under node relabelling: integer-arithmetic, level-synchronous, with
// per-level aggregates that do not depend on visit order. The other
// applications are legitimately order-sensitive (pull early-exit,
// order-dependent relaxation counts, float convergence, degree-tie
// orientation) and are excluded by design.
var permApps = []string{"bfs-wl", "bfs-topo", "bfs-tp"}

// genPermGraph builds a graph with a unique maximum-degree node (the
// hub, adjacent to everything), so SourceNode selects the same actual
// node before and after relabelling and the traversals are comparable.
func genPermGraph(r *stats.RNG) *graph.Graph {
	n := 24 + r.Intn(96)
	b := graph.NewBuilder("conform-perm", graph.ClassSocial, n)
	for u := 1; u < n; u++ {
		for d := 0; d < 1+r.Intn(2); d++ {
			v := 1 + r.Intn(n-1)
			if v != u {
				b.AddUndirected(int32(u), int32(v), weight(r))
			}
		}
	}
	for v := 1; v < n; v++ {
		b.AddUndirected(0, int32(v), weight(r))
	}
	return b.Build()
}

func checkPermInvariant(_ engine, r *stats.RNG, trials int) error {
	n := trials/4 + 1
	var appList []apps.App
	for _, name := range permApps {
		a, err := apps.ByName(name)
		if err != nil {
			return err
		}
		appList = append(appList, a)
	}
	for t := 0; t < n; t++ {
		g := genPermGraph(r)
		perm := make([]int32, g.NumNodes())
		for i, p := range r.Perm(g.NumNodes()) {
			perm[i] = int32(p)
		}
		pg := graph.Permute(g, perm)
		for _, a := range appList {
			tr1, _ := a.Run(g)
			tr2, _ := a.Run(pg)
			if len(tr1.Launches) != len(tr2.Launches) {
				return fmt.Errorf("trial %d: %s launch count changed under permutation: %d vs %d", t, a.Name, len(tr1.Launches), len(tr2.Launches))
			}
			for i := range tr1.Launches {
				if tr1.Launches[i] != tr2.Launches[i] {
					return fmt.Errorf("trial %d: %s launch %d differs under permutation:\n  %+v\n  %+v", t, a.Name, i, tr1.Launches[i], tr2.Launches[i])
				}
			}
			if len(tr1.Loops) != len(tr2.Loops) {
				return fmt.Errorf("trial %d: %s loop count changed under permutation", t, a.Name)
			}
			for i := range tr1.Loops {
				if tr1.Loops[i] != tr2.Loops[i] {
					return fmt.Errorf("trial %d: %s loop %d differs under permutation", t, a.Name, i)
				}
			}
		}
	}
	return nil
}

// --- flag scoping ---

// noLoopTrace draws a trace whose launches all sit outside any loop.
func noLoopTrace(r *stats.RNG) *irgl.Trace {
	t := &irgl.Trace{App: "conform-noloop", Input: "synth"}
	n := 1 + r.Intn(5)
	for i := 0; i < n; i++ {
		t.Launches = append(t.Launches, randLaunch(r, fmt.Sprintf("k%d", i), -1))
	}
	return t
}

func checkOiterGBScope(e engine, r *stats.RNG, trials int) error {
	for t := 0; t < trials; t++ {
		tp := newProfile(noLoopTrace(r))
		err := forEachChip(func(ch chip.Chip) error {
			for _, cfg := range opt.All() {
				if cfg.OiterGB {
					continue
				}
				v1 := e.est(ch, cfg, tp)
				v2 := e.est(ch, cfg.With(opt.FlagOiterGB, true), tp)
				if v1 != v2 {
					return fmt.Errorf("trial %d: oitergb changed a loop-free trace on %s under %s: %v -> %v", t, ch.Name, cfg, v1, v2)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func checkCoopCVScope(e engine, r *stats.RNG, trials int) error {
	for t := 0; t < trials; t++ {
		tr := randTrace(r)
		for i := range tr.Launches {
			tr.Launches[i].AtomicPushes = 0
		}
		tp := newProfile(tr)
		err := forEachChip(func(ch chip.Chip) error {
			for _, cfg := range opt.All() {
				if cfg.CoopCV {
					continue
				}
				v1 := e.est(ch, cfg, tp)
				v2 := e.est(ch, cfg.With(opt.FlagCoopCV, true), tp)
				if v1 != v2 {
					return fmt.Errorf("trial %d: coop-cv changed a push-free trace on %s under %s: %v -> %v", t, ch.Name, cfg, v1, v2)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func checkNPScope(e engine, r *stats.RNG, trials int) error {
	for t := 0; t < trials; t++ {
		// Trivial kernels: every item does zero or one unit of work, so
		// there is no inner loop for sg/wg/fg to rewrite.
		works := worksUniform(r, 1+r.Intn(200), 0, 1)
		tr := &irgl.Trace{App: "conform-trivial", Input: "synth"}
		total := sumWorks(works)
		tr.Launches = append(tr.Launches, buildLaunch("k", -1, works, 0, total, total))
		tp := newProfile(tr)
		err := forEachChip(func(ch chip.Chip) error {
			for _, cfg := range opt.All() {
				stripped := cfg
				stripped.SG, stripped.WG, stripped.FG = false, false, opt.FGOff
				v1, v2 := e.est(ch, stripped, tp), e.est(ch, cfg, tp)
				if v1 != v2 {
					return fmt.Errorf("trial %d: nested parallelism changed a trivial kernel on %s under %s: %v vs %v", t, ch.Name, cfg, v1, v2)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// --- chip parameter liveness ---

// checkParamLive asserts that scaling one chip parameter x10 strictly
// increases the cost of a workload built to exercise it, on every chip.
func checkParamLive(e engine, r *stats.RNG, trials int, param string, scale func(*chip.Chip), mk func(*stats.RNG) *irgl.Trace, cfg opt.Config) error {
	for t := 0; t < trials; t++ {
		tp := newProfile(mk(r))
		err := forEachChip(func(ch chip.Chip) error {
			scaledCh := ch
			scale(&scaledCh)
			v1, v2 := e.est(ch, cfg, tp), e.est(scaledCh, cfg, tp)
			if !(v2 > v1) {
				return fmt.Errorf("trial %d: scaling %s x10 on %s under %s: %v -> %v, want strict increase (dead cost term?)", t, param, ch.Name, cfg, v1, v2)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func checkLaunchLatencyLive(e engine, r *stats.RNG, trials int) error {
	return checkParamLive(e, r, trials, "LaunchNS",
		func(c *chip.Chip) { c.LaunchNS *= 10 },
		noLoopTrace, opt.Config{})
}

func checkCopyLive(e engine, r *stats.RNG, trials int) error {
	mk := func(r *stats.RNG) *irgl.Trace {
		t := &irgl.Trace{App: "conform-loopy", Input: "synth"}
		t.Loops = append(t.Loops, irgl.LoopStats{ID: 0, Name: "loop", Iterations: int64(1 + r.Intn(30))})
		t.Launches = append(t.Launches, randLaunch(r, "k", 0))
		return t
	}
	return checkParamLive(e, r, trials, "CopyNS",
		func(c *chip.Chip) { c.CopyNS *= 10 },
		mk, opt.Config{})
}

func checkDivergenceLive(e engine, r *stats.RNG, trials int) error {
	mk := func(r *stats.RNG) *irgl.Trace {
		works := worksUniform(r, 20+r.Intn(200), 1, 12)
		t := &irgl.Trace{App: "conform-div", Input: "synth"}
		t.Launches = append(t.Launches, buildLaunch("k", -1, works, 0, 0, sumWorks(works)))
		return t
	}
	return checkParamLive(e, r, trials, "DivergencePenaltyNS",
		func(c *chip.Chip) { c.DivergencePenaltyNS *= 10 },
		mk, opt.Config{})
}

func checkWGBarrierLive(e engine, r *stats.RNG, trials int) error {
	mk := func(r *stats.RNG) *irgl.Trace {
		works := worksSkewed(r, 50+r.Intn(150))
		works = append(works, 200) // guarantee an inner loop to rewrite
		t := &irgl.Trace{App: "conform-wg", Input: "synth"}
		t.Launches = append(t.Launches, buildLaunch("k", -1, works, 0, 0, sumWorks(works)))
		return t
	}
	// wg alone routes every bucket through the workgroup scheme, so the
	// barrier surcharge is guaranteed to appear.
	return checkParamLive(e, r, trials, "WorkgroupBarrierNS",
		func(c *chip.Chip) { c.WorkgroupBarrierNS *= 10 },
		mk, opt.Config{WG: true})
}

func checkAtomicLive(e engine, r *stats.RNG, trials int) error {
	return checkParamLive(e, r, trials, "AtomicNS",
		func(c *chip.Chip) { c.AtomicNS *= 10 },
		pushHeavyTrace, opt.Config{})
}

// --- chip phenomena (DESIGN.md section 4) as orderings ---

// medianRatios evaluates ratio(cost(base), cost(variant)) per chip over
// n sampled workloads and returns the per-chip medians keyed by Table I
// order.
func medianRatios(e engine, r *stats.RNG, n int, mk func(*stats.RNG) *irgl.Trace, base, variant opt.Config) map[string]float64 {
	chipsAll := chip.All()
	samples := make(map[string][]float64, len(chipsAll))
	for t := 0; t < n; t++ {
		tp := newProfile(mk(r))
		for _, ch := range chipsAll {
			samples[ch.Name] = append(samples[ch.Name], e.est(ch, base, tp)/e.est(ch, variant, tp))
		}
	}
	out := make(map[string]float64, len(chipsAll))
	for name, xs := range samples {
		out[name] = stats.Median(xs)
	}
	return out
}

func phenomenonTrials(trials int) int {
	n := trials / 4
	if n < 9 {
		n = 9
	}
	return n
}

func checkNvidiaCheapLaunch(e engine, r *stats.RNG, trials int) error {
	relief := medianRatios(e, r, phenomenonTrials(trials), launchHeavyTrace,
		opt.Config{}, opt.Config{OiterGB: true})
	nv := []string{chip.M4000, chip.GTX1080}
	others := []string{chip.HD5500, chip.IRIS, chip.R9, chip.MALI}
	maxNv := math.Inf(-1)
	for _, n := range nv {
		if relief[n] > maxNv {
			maxNv = relief[n]
		}
	}
	for _, n := range others {
		if relief[n] <= 1 {
			return fmt.Errorf("median oitergb relief on %s is %.3f, want > 1 (launches are expensive off Nvidia)", n, relief[n])
		}
		if relief[n] <= maxNv {
			return fmt.Errorf("median oitergb relief on %s (%.3f) does not exceed Nvidia's max (%.3f); cheap-launch phenomenon lost", n, relief[n], maxNv)
		}
	}
	return nil
}

func checkJITCoopCVOverhead(e engine, r *stats.RNG, trials int) error {
	for t := 0; t < trials; t++ {
		tp := newProfile(pushHeavyTrace(r))
		err := forEachChip(func(ch chip.Chip) error {
			if !ch.JITCombinesAtomics && ch.SubgroupSize > 1 {
				return nil
			}
			v1 := e.est(ch, opt.Config{}, tp)
			v2 := e.est(ch, opt.Config{CoopCV: true}, tp)
			if !(v2 > v1) {
				return fmt.Errorf("trial %d: coop-cv on %s: %v -> %v, want strictly worse (combining is redundant there, only the overhead should remain)", t, ch.Name, v1, v2)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func checkCombiningWins(e engine, r *stats.RNG, trials int) error {
	speedup := medianRatios(e, r, phenomenonTrials(trials), pushHeavyTrace,
		opt.Config{}, opt.Config{CoopCV: true})
	for _, ch := range chip.All() {
		s := speedup[ch.Name]
		if ch.Name == chip.R9 || ch.Name == chip.IRIS {
			if s <= 1 {
				return fmt.Errorf("median coop-cv speedup on %s is %.3f, want > 1 (manual combining should win there)", ch.Name, s)
			}
		} else if s >= 1 {
			return fmt.Errorf("median coop-cv speedup on %s is %.3f, want < 1 (combining is redundant or subgroup-less there)", ch.Name, s)
		}
	}
	return nil
}

// uniformDivTrace isolates the divergence-relief channel: constant
// per-item work means zero SIMD imbalance, so sg's only benefit is the
// barrier-induced divergence relief (plus its own overheads).
func uniformDivTrace(r *stats.RNG) *irgl.Trace {
	w := 6 + r.Intn(7)
	items := 150 + r.Intn(150)
	works := make([]int64, items)
	for i := range works {
		works[i] = int64(w)
	}
	t := &irgl.Trace{App: "conform-unifdiv", Input: "synth"}
	t.Launches = append(t.Launches, buildLaunch("k", -1, works, 0, 0, sumWorks(works)))
	return t
}

func checkMALIDivergenceRelief(e engine, r *stats.RNG, trials int) error {
	relief := medianRatios(e, r, phenomenonTrials(trials), uniformDivTrace,
		opt.Config{}, opt.Config{SG: true})
	mali := relief[chip.MALI]
	if mali <= 1 {
		return fmt.Errorf("median sg relief on MALI is %.3f, want > 1 (divergence relief must outweigh sg overhead there)", mali)
	}
	for _, ch := range chip.All() {
		if ch.Name == chip.MALI {
			continue
		}
		s := relief[ch.Name]
		if s >= mali {
			return fmt.Errorf("median sg relief on %s (%.3f) is not below MALI's (%.3f); MALI's divergence sensitivity lost", ch.Name, s, mali)
		}
		if s >= 1 {
			return fmt.Errorf("median sg relief on %s is %.3f, want < 1 on uniform kernels (no imbalance to fix, little divergence to relieve)", ch.Name, s)
		}
	}
	return nil
}

func checkJITLoadBearing(e engine, r *stats.RNG, trials int) error {
	for t := 0; t < trials; t++ {
		tp := newProfile(pushHeavyTrace(r))
		err := forEachChip(func(ch chip.Chip) error {
			if !ch.JITCombinesAtomics {
				return nil
			}
			noJIT := ch
			noJIT.JITCombinesAtomics = false
			v1, v2 := e.est(ch, opt.Config{}, tp), e.est(noJIT, opt.Config{}, tp)
			if !(v2 > v1) {
				return fmt.Errorf("trial %d: disabling JIT combining on %s: %v -> %v, want strictly worse (the JIT's combining must be load-bearing)", t, ch.Name, v1, v2)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
