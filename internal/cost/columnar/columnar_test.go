package columnar

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/cost"
	"gpuport/internal/graph"
	"gpuport/internal/irgl"
	"gpuport/internal/opt"
	"gpuport/internal/stats"
)

// buildLaunch runs the real irgl accounting over explicit per-item work
// values, exactly as internal/conform's generators do (re-implemented
// here because conform imports this package).
func buildLaunch(name string, loopID int, works []int64, pushes, rmws, random int64) irgl.KernelStats {
	g := graph.NewBuilder("synth", graph.ClassRandom, 0).Build()
	rt := irgl.NewRuntime("columnar-synth", g)
	k := rt.Launch(name)
	idx := 0
	k.ForAll(make([]int32, len(works)), func(it *irgl.Item, _ int32) {
		it.Work(works[idx])
		idx++
	})
	k.End()
	st := rt.Trace().Launches[0]
	st.LoopID = loopID
	st.AtomicPushes = pushes
	st.AtomicRMWs = rmws
	st.RandomAccesses = random
	return st
}

// degenerateTraces are the boundary shapes the issue pins: no launches
// at all, a single plain launch, a fixpoint-only trace (every launch in
// a loop, including empty-frontier iterations), and a maximally
// imbalanced launch (one giant hub among unit items).
func degenerateTraces() map[string]*irgl.Trace {
	out := map[string]*irgl.Trace{}

	out["zero-launch"] = &irgl.Trace{
		App: "degen-zero", Input: "synth",
		Loops: []irgl.LoopStats{{ID: 0, Name: "empty", Iterations: 7}},
	}

	single := &irgl.Trace{App: "degen-single", Input: "synth"}
	single.Launches = append(single.Launches,
		buildLaunch("k0", -1, []int64{3, 5, 0, 9}, 4, 2, 11))
	out["single-launch"] = single

	fix := &irgl.Trace{App: "degen-fixpoint", Input: "synth"}
	fix.Loops = append(fix.Loops, irgl.LoopStats{ID: 0, Name: "fixpoint", Iterations: 5, Launches: 5})
	for i := 0; i < 5; i++ {
		var works []int64
		if i != 3 { // iteration 3 has an empty frontier
			works = []int64{int64(i + 1), 2, 2}
		}
		fix.Launches = append(fix.Launches,
			buildLaunch(fmt.Sprintf("k%d", i), 0, works, int64(i), 0, int64(2*i)))
	}
	out["fixpoint-only"] = fix

	imb := &irgl.Trace{App: "degen-imbalance", Input: "synth"}
	works := make([]int64, 257)
	for i := range works {
		works[i] = 1
	}
	works[0] = 1 << 20 // one hub owns essentially all the work
	imb.Launches = append(imb.Launches, buildLaunch("hub", -1, works, 0, 3, 1<<20))
	out["max-imbalance"] = imb

	return out
}

// checkEquivalence asserts bit-identical Estimate results between the
// reference and columnar engines for every config on trace tr, reusing
// one evaluator per chip the way a sweep does. A failure names tr.
func checkEquivalence(t *testing.T, ch chip.Chip, tr *irgl.Trace, tp *cost.TraceProfile, cols *Columns) {
	t.Helper()
	ev := NewEvaluator(ch, cols)
	for _, cfg := range opt.All() {
		ref := cost.Estimate(ch, cfg, tp)
		got := ev.Estimate(cfg)
		if got != ref {
			t.Fatalf("%s/%s on %s under %v: columnar %x != reference %x",
				tr.App, tr.Input, ch.Name, cfg, got, ref)
		}
	}
}

func TestDegenerateEquivalence(t *testing.T) {
	for name, tr := range degenerateTraces() {
		t.Run(name, func(t *testing.T) {
			tp := cost.NewTraceProfile(tr)
			cols := Build(tr)
			if cols.n != len(tr.Launches) {
				t.Fatalf("columns hold %d launches, want %d", cols.n, len(tr.Launches))
			}
			for _, ch := range chip.All() {
				checkEquivalence(t, ch, tr, tp, cols)
			}
		})
	}
}

// TestPrecomputePinsProfileMemos pins the build-time imbalance memos
// against the values the reference LaunchProfile derives, at every
// memoised width and a fallback width, for the degenerate traces.
func TestPrecomputePinsProfileMemos(t *testing.T) {
	for name, tr := range degenerateTraces() {
		tp := cost.NewTraceProfile(tr)
		cols := Build(tr)
		for i := range tp.Launches {
			lp := &tp.Launches[i]
			for k, w := range memoWidths {
				want := lp.ImbalanceFactor(w)
				if got := cols.imb[k][i]; got != want {
					t.Errorf("%s launch %d width %d: memo %x != profile %x", name, i, w, got, want)
				}
				if got := cols.imbalance(i, w); got != want {
					t.Errorf("%s launch %d width %d: imbalance() %x != profile %x", name, i, w, got, want)
				}
			}
			// Non-memoised width: falls back to a direct computation.
			if got, want := cols.imbalance(i, 7), lp.ImbalanceFactor(7); got != want {
				t.Errorf("%s launch %d fallback width 7: %x != %x", name, i, got, want)
			}
		}
	}
}

// localRandTrace draws a generic mixed trace (loops, in-loop launches,
// empty frontiers, atomics, divergence), mirroring conform's generator.
func localRandTrace(r *stats.RNG) *irgl.Trace {
	tr := &irgl.Trace{App: "columnar-rand", Input: "synth"}
	nLoops := r.Intn(3)
	for id := 0; id < nLoops; id++ {
		tr.Loops = append(tr.Loops, irgl.LoopStats{
			ID: id, Name: fmt.Sprintf("loop%d", id), Iterations: int64(1 + r.Intn(20)),
		})
	}
	nLaunches := 1 + r.Intn(6)
	for i := 0; i < nLaunches; i++ {
		loopID := -1
		if nLoops > 0 && r.Intn(2) == 0 {
			loopID = r.Intn(nLoops)
		}
		items := r.Intn(300)
		if r.Intn(12) == 0 {
			items = 0
		}
		works := make([]int64, items)
		var total int64
		for j := range works {
			switch r.Intn(10) {
			case 0:
				works[j] = int64(64 + r.Intn(448))
			case 1, 2:
				works[j] = int64(8 + r.Intn(56))
			default:
				works[j] = int64(r.Intn(4))
			}
			total += works[j]
		}
		var pushes, rmws, random int64
		if total > 0 {
			pushes = int64(r.Intn(int(total) + 1))
			rmws = int64(r.Intn(int(total) + 1))
			random = total + int64(r.Intn(int(total)+1))
		}
		tr.Launches = append(tr.Launches, buildLaunch(fmt.Sprintf("k%d", i), loopID, works, pushes, rmws, random))
		if loopID >= 0 {
			tr.Loops[loopID].Launches++
		}
	}
	return tr
}

func TestRandomTraceEquivalence(t *testing.T) {
	r := stats.NewRNG(0xC01C01)
	for round := 0; round < 25; round++ {
		tr := localRandTrace(r)
		tp := cost.NewTraceProfile(tr)
		cols := Build(tr)
		for _, ch := range chip.All() {
			checkEquivalence(t, ch, tr, tp, cols)
		}
	}
}

// TestNamedInputEquivalence holds the engine to the reference on the
// traces it serves: every application on each standard and extended
// input, on every chip, under every config.
func TestNamedInputEquivalence(t *testing.T) {
	for _, g := range append(graph.SharedStandardInputs(), graph.ExtendedInputs()...) {
		for _, app := range apps.All() {
			tr, _ := app.Run(g)
			tp := cost.NewTraceProfile(tr)
			cols := Build(tr)
			for _, ch := range chip.All() {
				checkEquivalence(t, ch, tr, tp, cols)
			}
		}
	}
}

// TestNonStandardChipGeometry drives the fallback paths: subgroup and
// workgroup widths outside the memoised set, a zero subgroup width, and
// a tiny MaxWorkgroup that clamps both size classes to the same width.
func TestNonStandardChipGeometry(t *testing.T) {
	odd := chip.All()[0]
	odd.Name = "odd"
	odd.SubgroupSize = 7
	odd.MaxWorkgroup = 100
	zero := chip.All()[4]
	zero.Name = "zero-sg"
	zero.SubgroupSize = 0
	zero.MaxWorkgroup = 200

	r := stats.NewRNG(0xBADF00D)
	for round := 0; round < 8; round++ {
		tr := localRandTrace(r)
		tp := cost.NewTraceProfile(tr)
		cols := Build(tr)
		checkEquivalence(t, odd, tr, tp, cols)
		checkEquivalence(t, zero, tr, tp, cols)
	}
}

// TestConcurrentEvaluators shares one immutable column set across a
// goroutine per chip, each with its own evaluator, and verifies every
// result against the reference. Run under -race this proves the
// Columns/Evaluator split is data-race free the way measure uses it.
func TestConcurrentEvaluators(t *testing.T) {
	r := stats.NewRNG(0xFACADE)
	tr := localRandTrace(r)
	for len(tr.Launches) < 4 { // ensure a non-trivial trace
		tr = localRandTrace(r)
	}
	cols := Build(tr)

	var wg sync.WaitGroup
	errs := make(chan error, len(chip.All()))
	for _, ch := range chip.All() {
		wg.Add(1)
		go func(ch chip.Chip) {
			defer wg.Done()
			ev := NewEvaluator(ch, cols)
			refTP := cost.NewTraceProfile(tr) // private profile per goroutine
			for _, cfg := range opt.All() {
				if got, want := ev.Estimate(cfg), cost.Estimate(ch, cfg, refTP); got != want {
					errs <- fmt.Errorf("%s under %v: %x != %x", ch.Name, cfg, got, want)
					return
				}
			}
		}(ch)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestOneShotHelpers(t *testing.T) {
	tr := degenerateTraces()["single-launch"]
	tp := cost.NewTraceProfile(tr)
	ch := chip.All()[1]
	cfg := opt.Config{CoopCV: true, WG: true, SZ256: true}
	want := cost.Estimate(ch, cfg, tp)
	if got := Estimate(ch, cfg, Build(tr)); got != want {
		t.Errorf("Estimate one-shot: %x != %x", got, want)
	}
}

// TestPow2Chain pins the shared squaring chain bit for bit against
// math.Pow at every memo exponent, across the full (0, 1] domain the
// imbalance memo feeds it: exact powers of two, values whose chain
// exponent crosses math.Pow's underflow break, subnormal-adjacent
// inputs, and a dense pseudo-random sample.
func TestPow2Chain(t *testing.T) {
	exps := [5]float64{16, 32, 64, 128, 256}
	check := func(x float64) {
		t.Helper()
		p := pow2Chain(x)
		for k, y := range exps {
			if want := math.Pow(x, y); p[k] != want {
				t.Fatalf("pow2Chain(%x)[%d] = %x, want math.Pow(x, %v) = %x", x, k, p[k], y, want)
			}
		}
	}
	for _, x := range []float64{
		1, 0.5, 0.25, 0.999999999, 1e-3, 1e-6, 1e-10, 1e-16, 1e-18,
		1e-30, 1e-100, 1e-300, 5e-324, math.Nextafter(1, 0),
		math.Ldexp(1, -16), math.Ldexp(1, -17), // xe escape boundary at k=256
	} {
		check(x)
	}
	r := stats.NewRNG(0xB0C)
	for i := 0; i < 5000; i++ {
		x := r.Float64()
		if x == 0 {
			continue
		}
		check(x)
		check(x * 1e-5)
	}
}

func TestWidthSlot(t *testing.T) {
	for k, w := range memoWidths {
		if got := widthSlot(w); got != k {
			t.Errorf("widthSlot(%d) = %d, want %d", w, got, k)
		}
	}
	for _, w := range []int{0, 2, 7, 512} {
		if got := widthSlot(w); got != -1 {
			t.Errorf("widthSlot(%d) = %d, want -1", w, got)
		}
	}
}
