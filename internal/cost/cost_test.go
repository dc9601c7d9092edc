package cost

import (
	"testing"
	"testing/quick"

	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/graph"
	"gpuport/internal/irgl"
	"gpuport/internal/opt"
)

func mustChip(t *testing.T, name string) chip.Chip {
	t.Helper()
	c, err := chip.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// synthTrace builds a trace with the given launch shapes.
func synthTrace(launches ...irgl.KernelStats) *TraceProfile {
	tr := &irgl.Trace{App: "synth", Input: "synth"}
	tr.Launches = launches
	return NewTraceProfile(tr)
}

// launch builds a KernelStats where every item has identical work.
func uniformLaunch(items, workPerItem int64, loopID int) irgl.KernelStats {
	var s irgl.KernelStats
	s.Name = "k"
	s.LoopID = loopID
	s.Items = items
	if workPerItem > 0 {
		b := 0
		for w := workPerItem; w > 1; w >>= 1 {
			b++
		}
		s.WorkHist[b] = items
		s.WorkHistSum[b] = items * workPerItem
		s.TotalWork = items * workPerItem
		s.MaxWork = workPerItem
		s.RandomAccesses = s.TotalWork
	} else {
		s.ZeroWorkItems = items
	}
	return s
}

// skewedLaunch mixes many light items with a few heavy hubs.
func skewedLaunch(items int64, loopID int) irgl.KernelStats {
	var s irgl.KernelStats
	s.Name = "k"
	s.LoopID = loopID
	s.Items = items
	light := items - items/100
	heavy := items / 100
	s.WorkHist[2] = light // work 4
	s.WorkHistSum[2] = light * 4
	s.WorkHist[10] = heavy // work 1024
	s.WorkHistSum[10] = heavy * 1024
	s.TotalWork = light*4 + heavy*1024
	s.MaxWork = 1024
	s.RandomAccesses = s.TotalWork
	return s
}

func TestEstimatePositiveAndDeterministic(t *testing.T) {
	tp := synthTrace(uniformLaunch(1000, 8, -1))
	for _, ch := range chip.All() {
		for _, cfg := range opt.All() {
			a := Estimate(ch, cfg, tp)
			b := Estimate(ch, cfg, tp)
			if a <= 0 {
				t.Fatalf("%s/%s: non-positive estimate %v", ch.Name, cfg, a)
			}
			if a != b {
				t.Fatalf("%s/%s: estimate not deterministic", ch.Name, cfg)
			}
		}
	}
}

func TestEmptyLaunchCostsOnlySync(t *testing.T) {
	ch := mustChip(t, chip.R9)
	tp := synthTrace(uniformLaunch(0, 0, -1))
	got := Estimate(ch, opt.Config{}, tp)
	if got != ch.LaunchNS {
		t.Errorf("empty launch = %v, want launch latency %v", got, ch.LaunchNS)
	}
}

func TestOiterGBHelpsLaunchBoundOnR9(t *testing.T) {
	// Hundreds of tiny launches in a loop: the R9's expensive launches
	// dominate, and outlining must win big (the paper's road-network
	// speedups).
	ch := mustChip(t, chip.R9)
	var launches []irgl.KernelStats
	for i := 0; i < 300; i++ {
		launches = append(launches, uniformLaunch(64, 4, 0))
	}
	tp := synthTrace(launches...)
	tp.Loops = []irgl.LoopStats{{ID: 0, Iterations: 300, Launches: 300}}
	base := Estimate(ch, opt.Config{}, tp)
	outlined := Estimate(ch, opt.Config{OiterGB: true}, tp)
	if base < 4*outlined {
		t.Errorf("R9 outlining speedup = %v, want >= 4x", base/outlined)
	}
}

func TestOiterGBHurtsComputeBoundOnNvidia(t *testing.T) {
	// Few launches of big kernels on a chip with cheap launches: the
	// persistent-kernel occupancy penalty makes outlining a loss.
	ch := mustChip(t, chip.GTX1080)
	var launches []irgl.KernelStats
	for i := 0; i < 10; i++ {
		launches = append(launches, uniformLaunch(200000, 16, 0))
	}
	tp := synthTrace(launches...)
	tp.Loops = []irgl.LoopStats{{ID: 0, Iterations: 10, Launches: 10}}
	base := Estimate(ch, opt.Config{}, tp)
	outlined := Estimate(ch, opt.Config{OiterGB: true}, tp)
	if outlined <= base {
		t.Errorf("GTX1080 outlining on compute-bound: %v <= %v, want slowdown", outlined, base)
	}
}

func TestWGAloneCatastrophicOnLowDegree(t *testing.T) {
	// wg without fg serialises the outer loop: degree-4 items occupy a
	// 128-lane workgroup each. Must cost several times the baseline
	// (Table II's 22x class of slowdowns).
	ch := mustChip(t, chip.GTX1080)
	tp := synthTrace(uniformLaunch(100000, 4, -1))
	base := Estimate(ch, opt.Config{}, tp)
	wg := Estimate(ch, opt.Config{WG: true}, tp)
	if wg < 3*base {
		t.Errorf("wg-alone on low degree: %v vs base %v, want >= 3x slower", wg, base)
	}
	// With fg8 the low-degree items go down the fg path: harmless.
	wgfg := Estimate(ch, opt.Config{WG: true, FG: opt.FG8}, tp)
	if wgfg > 1.5*base {
		t.Errorf("wg+fg8 should be benign: %v vs base %v", wgfg, base)
	}
}

func TestSZ256AmplifiesWGBarriers(t *testing.T) {
	ch := mustChip(t, chip.R9)
	tp := synthTrace(uniformLaunch(100000, 4, -1))
	wg := Estimate(ch, opt.Config{WG: true}, tp)
	wg256 := Estimate(ch, opt.Config{WG: true, SZ256: true}, tp)
	if wg256 <= wg {
		t.Errorf("sz256 should worsen wg-alone: %v <= %v", wg256, wg)
	}
}

func TestFG8HelpsSkewedWork(t *testing.T) {
	// Power-law work distribution: linearising the iteration space
	// must beat lockstep per-lane execution on subgroup hardware.
	for _, name := range []string{chip.M4000, chip.GTX1080, chip.R9} {
		ch := mustChip(t, name)
		tp := synthTrace(skewedLaunch(50000, -1))
		base := Estimate(ch, opt.Config{}, tp)
		fg8 := Estimate(ch, opt.Config{FG: opt.FG8}, tp)
		if fg8 >= base {
			t.Errorf("%s: fg8 on skewed work %v >= base %v", name, fg8, base)
		}
	}
}

func TestNPDoesNotApplyToFlatKernels(t *testing.T) {
	// A kernel whose items do at most one unit of work has no inner
	// loop; nested-parallelism configs must cost the same as baseline.
	ch := mustChip(t, chip.GTX1080)
	flat := uniformLaunch(100000, 1, -1)
	tp := synthTrace(flat)
	base := Estimate(ch, opt.Config{}, tp)
	for _, cfg := range []opt.Config{{WG: true}, {SG: true}, {FG: opt.FG8}} {
		got := Estimate(ch, cfg, tp)
		if got != base {
			t.Errorf("%v on flat kernel: %v, want baseline %v", cfg, got, base)
		}
	}
}

func TestCoopCVOnR9VsNvidia(t *testing.T) {
	// Push-heavy kernel: combining wins on R9 (no JIT combining,
	// expensive atomics), pure overhead on GTX1080 (JIT combines).
	mk := func() irgl.KernelStats {
		s := uniformLaunch(50000, 8, -1)
		s.AtomicPushes = s.TotalWork // every edge pushes
		return s
	}
	r9 := mustChip(t, chip.R9)
	tp := synthTrace(mk())
	if base, coop := Estimate(r9, opt.Config{}, tp), Estimate(r9, opt.Config{CoopCV: true}, tp); coop >= base {
		t.Errorf("R9: coop-cv %v >= base %v, want speedup", coop, base)
	}
	gtx := mustChip(t, chip.GTX1080)
	tp = synthTrace(mk())
	if base, coop := Estimate(gtx, opt.Config{}, tp), Estimate(gtx, opt.Config{CoopCV: true}, tp); coop <= base {
		t.Errorf("GTX1080: coop-cv %v <= base %v, want overhead", coop, base)
	}
}

func TestSGRelievesDivergenceOnMALI(t *testing.T) {
	ch := mustChip(t, chip.MALI)
	tp := synthTrace(uniformLaunch(20000, 8, -1))
	base := Estimate(ch, opt.Config{}, tp)
	sg := Estimate(ch, opt.Config{SG: true}, tp)
	if sg >= base {
		t.Errorf("MALI: sg %v >= base %v, want divergence relief", sg, base)
	}
	// The relief should be a much smaller fraction on GTX1080.
	gtx := mustChip(t, chip.GTX1080)
	tp2 := synthTrace(uniformLaunch(20000, 8, -1))
	gtxBase := Estimate(gtx, opt.Config{}, tp2)
	gtxSG := Estimate(gtx, opt.Config{SG: true}, tp2)
	maliGain := (base - sg) / base
	gtxGain := (gtxBase - gtxSG) / gtxBase
	if maliGain < 2*gtxGain {
		t.Errorf("MALI sg gain %v should dwarf GTX gain %v", maliGain, gtxGain)
	}
}

func TestMoreWorkCostsMore(t *testing.T) {
	f := func(itemsSeed, workSeed uint8) bool {
		items := int64(itemsSeed)%1000 + 10
		work := int64(workSeed)%64 + 2
		ch, _ := chip.ByName(chip.IRIS)
		small := Estimate(ch, opt.Config{}, synthTrace(uniformLaunch(items, work, -1)))
		big := Estimate(ch, opt.Config{}, synthTrace(uniformLaunch(items*2, work, -1), uniformLaunch(items, work, -1)))
		return big > small
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRealTracesAllFinitePositive(t *testing.T) {
	g := graph.GenerateRMAT("cost-rmat", 9, 8, 3)
	for _, app := range apps.All() {
		tr, _ := app.Run(g)
		tp := NewTraceProfile(tr)
		for _, ch := range chip.All() {
			for _, cfg := range []opt.Config{{}, {SG: true, FG: opt.FG8, OiterGB: true}, {WG: true, SZ256: true, CoopCV: true}} {
				v := Estimate(ch, cfg, tp)
				if v <= 0 || v != v {
					t.Fatalf("%s on %s under %v: estimate %v", app.Name, ch.Name, cfg, v)
				}
			}
		}
	}
}

func TestProfilePreservesTraceIdentity(t *testing.T) {
	g := graph.GenerateRoad("cost-road", 12, 5)
	app, _ := apps.ByName("bfs-wl")
	tr, _ := app.Run(g)
	tp := NewTraceProfile(tr)
	if len(tp.Launches) != len(tr.Launches) || len(tp.Loops) != len(tr.Loops) {
		t.Error("profile dropped launches or loops")
	}
}

func TestSZ256ClampedToMaxWorkgroup(t *testing.T) {
	// A chip limited to 128-wide workgroups treats sz256 as 128 for
	// the utilisation math; only the occupancy factor differs.
	ch := mustChip(t, chip.R9)
	ch.MaxWorkgroup = 128
	ch.Occupancy256 = 1.0
	tp := synthTrace(uniformLaunch(5000, 8, -1))
	base := Estimate(ch, opt.Config{}, tp)
	sz := Estimate(ch, opt.Config{SZ256: true}, tp)
	if base != sz {
		t.Errorf("clamped sz256 with occ=1 should equal baseline: %v vs %v", base, sz)
	}
}

func TestOutlinedBarrierScalesWithOccupancy(t *testing.T) {
	// The portable global barrier costs more when the outlined kernel
	// fills the machine (more workgroups spinning).
	ch := mustChip(t, chip.R9)
	small := synthTrace(uniformLaunch(64, 4, 0))
	big := synthTrace(uniformLaunch(200000, 4, 0))
	smallBar := Estimate(ch, opt.Config{OiterGB: true}, small) - Estimate(ch, opt.Config{}, small)
	bigBar := Estimate(ch, opt.Config{OiterGB: true}, big) - Estimate(ch, opt.Config{}, big)
	// Both replace a launch with a barrier (plus per-loop effects are
	// absent here since Loops is empty); the big launch's barrier must
	// be costlier, i.e. its saving must be smaller.
	if !(bigBar > smallBar) {
		t.Errorf("barrier saving should shrink with occupancy: small %v, big %v", smallBar, bigBar)
	}
}
