// Package cost implements the performance model that converts an
// application execution trace (internal/irgl), a chip model
// (internal/chip) and an optimisation configuration (internal/opt) into
// a simulated runtime.
//
// The model is additive over kernel launches. Each launch contributes:
//
//	sync      - kernel launch latency, or a global-barrier round when
//	            the launch sits in a loop outlined by oitergb;
//	compute   - edge work inflated by SIMD load imbalance, deflated by
//	            whichever nested-parallelism schemes (wg / sg / fg) are
//	            enabled, each of which charges its own orchestration
//	            overhead; divided by chip throughput, occupancy at the
//	            selected workgroup size, and launch utilisation;
//	atomics   - worklist pushes (subject to subgroup combining, either
//	            by coop-cv or by a JIT that already combines) and data
//	            atomics;
//	divergence- irregular accesses times the chip's divergence penalty,
//	            relieved by barrier-inducing optimisations (sg / wg)
//	            and by the coalescing effect of fg.
//
// Host fixpoint loops additionally pay a per-iteration copy-back of the
// termination flag unless outlined.
//
// Every term maps to a row of the paper's Table VI. The absolute scale
// is arbitrary (model nanoseconds); only ratios matter to the study.
package cost

import (
	"sync"

	"gpuport/internal/chip"
	"gpuport/internal/irgl"
	"gpuport/internal/opt"
)

// Model tuning constants. The exported ones are shared with the
// columnar engine (internal/cost/columnar), which replays launchCost's
// arithmetic on another evaluation schedule and must use the very same
// values, as it must CoopLaneWork.
const (
	// Residual excess imbalance after fg linearises the iteration
	// space (per-chunk granularity leaves a little).
	FG1Residual = 0.02
	FG8Residual = 0.08

	// Divergence relief from the coalesced access pattern fg induces.
	FG1DivRelief = 0.35
	FG8DivRelief = 0.28

	// Inspector cost per work-item per enabled nested-parallelism
	// scheme (degree read + local-memory staging), in work units.
	InspectWorkPerItem = 0.5

	// Cooperative processing synchronises the executing group twice
	// per redistributed item (stage + drain).
	BarriersPerItem = 2

	// Cooperative redistribution of an item smaller than the executing
	// group wastes the idle lanes, but memory-level parallelism hides a
	// fraction of the waste.
	coopWasteFactor = 0.55

	// Drift floor: even kernels with uniform trip counts desynchronise
	// somewhat, so barrier-induced divergence relief never scales to
	// zero (Section VIII-c's gratuitous-barrier effect exists on
	// uniform strided loops).
	DriftFloor = 0.35

	// Minimum launch utilisation (a single straggling workgroup still
	// keeps a sliver of the machine busy).
	MinUtilisation = 1.0 / 4096
)

// LaunchProfile wraps kernel stats with memoised imbalance factors.
// The memo is guarded so one profile can be evaluated against many
// chips concurrently.
type LaunchProfile struct {
	irgl.KernelStats
	mu      sync.Mutex
	ifCache map[int]float64
}

// TraceProfile is the cost-model-ready form of a trace. Building it
// once per (application, input) amortises histogram analysis across the
// 96 configurations and 6 chips evaluated against it.
type TraceProfile struct {
	Launches []LaunchProfile
	Loops    []irgl.LoopStats
}

// NewTraceProfile prepares tr for cost evaluation.
func NewTraceProfile(tr *irgl.Trace) *TraceProfile {
	tp := &TraceProfile{Loops: tr.Loops}
	tp.Launches = make([]LaunchProfile, len(tr.Launches))
	for i, l := range tr.Launches {
		tp.Launches[i].KernelStats = l
		tp.Launches[i].ifCache = make(map[int]float64, 4)
	}
	return tp
}

func (lp *LaunchProfile) imbalance(width int) float64 {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	if f, ok := lp.ifCache[width]; ok {
		return f
	}
	f := lp.ImbalanceFactor(width)
	lp.ifCache[width] = f
	return f
}

// Estimate returns the modelled runtime (in model nanoseconds) of the
// traced execution on ch under cfg. Deterministic; measurement noise is
// layered on by the measure package.
func Estimate(ch chip.Chip, cfg opt.Config, tp *TraceProfile) float64 {
	wgSize := cfg.WorkgroupSize()
	if wgSize > ch.MaxWorkgroup {
		wgSize = ch.MaxWorkgroup
	}
	occ := 1.0
	if cfg.SZ256 {
		occ = ch.Occupancy256
	}

	total := 0.0
	for i := range tp.Launches {
		total += launchCost(ch, cfg, &tp.Launches[i], wgSize, occ)
	}

	// Host loop costs: per-iteration copy-back of the fixpoint flag,
	// or - outlined - a single dispatch launch per loop.
	for _, loop := range tp.Loops {
		if cfg.OiterGB {
			total += ch.LaunchNS + ch.CopyNS
		} else {
			total += float64(loop.Iterations) * ch.CopyNS
		}
	}
	return total
}

// CoopLaneWork returns the lane-occupancy cost of processing one item
// of work r cooperatively at the given group width: full rounds of
// width lanes, with idle-lane waste partially hidden by memory-level
// parallelism.
func CoopLaneWork(r float64, width int) float64 {
	w := float64(width)
	rounds := float64(int((r + w - 1) / w))
	if rounds < 1 {
		rounds = 1
	}
	occupied := rounds * w
	return r + coopWasteFactor*(occupied-r)
}

func launchCost(ch chip.Chip, cfg opt.Config, lp *LaunchProfile, wgSize int, occ float64) float64 {
	outlined := cfg.OiterGB && lp.LoopID >= 0

	// --- synchronisation ---
	// The portable global barrier spins every resident workgroup on
	// shared flags, so its cost grows with how much of the machine the
	// outlined kernel occupies; a launch costs the same regardless.
	var ns float64
	if outlined {
		wgs := float64(lp.Items) / float64(wgSize) / float64(ch.CUs)
		if wgs > 4 {
			wgs = 4
		}
		ns = ch.GlobalBarrierNS * (0.6 + 0.4*wgs)
	} else {
		ns = ch.LaunchNS
	}
	if mutation("drop-launch-latency") {
		ns = 0
	}
	if lp.Items == 0 {
		return ns
	}

	// --- load balancing / nested parallelism ---
	// The nested-parallelism schemes route each work-item's inner loop
	// by its trip count (degree): wg takes items at workgroup width,
	// sg at subgroup width, fg linearises the rest. Crucially, when fg
	// is absent the enabled scheme must process *every* item
	// cooperatively - IrGL's executor serialises the workgroup's outer
	// loop - so wg without fg wastes wgSize/degree lanes per low-degree
	// item. This is the mechanism behind the catastrophic slowdowns of
	// the paper's Table II/III (sz256,wg combinations at the bottom).
	items := float64(lp.Items)
	work := float64(lp.TotalWork)
	sgW := ch.SubgroupSize
	if sgW < 1 {
		sgW = 1
	}

	extraWork := 0.0   // work-unit surcharges (parallel, throughput-bound)
	extraLaneNS := 0.0 // latency surcharges (already in ns)
	laneWork := 0.0    // lane-occupancy work including redistribution waste

	// The nested-parallelism transforms rewrite the kernel's inner
	// (edge) loop; kernels whose items never run more than one inner
	// iteration have no loop to rewrite and are generated untouched.
	anyNP := (cfg.WG || cfg.SG || cfg.FG != opt.FGOff) && lp.MaxWork > 1
	if !anyNP {
		// Plain per-lane execution: the subgroup runs in lockstep, so
		// lanes idle while the heaviest lane drains its edges.
		laneWork = work * lp.imbalance(sgW)
	} else {
		schemes := 0
		for _, on := range []bool{cfg.WG, cfg.SG, cfg.FG != opt.FGOff} {
			if on {
				schemes++
			}
		}
		extraWork += InspectWorkPerItem * float64(schemes) * items

		wgBar := ch.WorkgroupBarrierNS
		if wgSize > 128 {
			wgBar *= ch.WGBarrier256Factor
		}
		fgCost := 0.0
		fgResidual := 0.0
		switch cfg.FG {
		case opt.FG1:
			fgCost = ch.FG1CostPerEdge
			fgResidual = FG1Residual
		case opt.FG8:
			fgCost = ch.FG8CostPerEdge
			fgResidual = FG8Residual
		}

		for b := 0; b < irgl.WorkHistBuckets; b++ {
			c := float64(lp.WorkHist[b])
			if c == 0 {
				continue
			}
			r := float64(lp.WorkHistSum[b]) / c
			switch {
			case cfg.WG && (r >= float64(wgSize) || (!cfg.SG && cfg.FG == opt.FGOff)):
				laneWork += c * CoopLaneWork(r, wgSize)
				if !mutation("drop-wg-barrier") {
					extraLaneNS += c * BarriersPerItem * wgBar / float64(ch.CUs)
				}
			case cfg.SG && (r >= float64(sgW) || cfg.FG == opt.FGOff):
				laneWork += c * CoopLaneWork(r, sgW)
				extraLaneNS += c * BarriersPerItem * ch.SubgroupBarrierNS / float64(ch.CUs)
			default:
				// fg path: linearised iteration space.
				laneWork += c * r * (1 + fgResidual + fgCost)
			}
		}
	}

	// --- compute ---
	util := items / float64(ch.CUs*wgSize)
	if util > 1 {
		util = 1
	}
	if util < MinUtilisation {
		util = MinUtilisation
	}
	gbPen := 1.0
	if outlined {
		gbPen = ch.GBOccupancyPenalty
	}
	throughput := ch.EdgeThroughput * occ * util / gbPen
	ns += (laneWork + extraWork) / throughput
	ns += items * ch.ItemOverheadNS / (float64(ch.CUs) * occ)
	ns += extraLaneNS

	// --- atomics ---
	// Subgroup combining divides push count; either the programmer
	// asked for it (coop-cv) or the JIT does it regardless.
	pushes := float64(lp.AtomicPushes)
	if pushes > 0 {
		// Combining aggregates the pushes that the subgroup's lanes
		// issue in the same instruction; when only a fraction of lanes
		// push (sparse worklist updates), fewer pushes share an atomic.
		density := 1.0
		if denom := float64(lp.TotalWork); denom > pushes {
			density = pushes / denom
		}
		combine := 1.0
		if cfg.CoopCV || ch.JITCombinesAtomics {
			combine = float64(ch.SubgroupSize) * ch.CombineEfficiency * density
			if combine < 1 {
				combine = 1
			}
		}
		ns += pushes / combine * ch.AtomicNS
		if cfg.CoopCV && !mutation("drop-coopcv-overhead") {
			// Orchestration. OpenCL subgroup operations must be
			// uniform, so the compiler predicates the combining code
			// across every lane of every edge visit (Section V-A) -
			// the overhead scales with the kernel's work, not with
			// the pushes that actually happen. Pure overhead on chips
			// whose JIT already combines, and on MALI (subgroup 1).
			sgW := ch.SubgroupSize
			if sgW < 1 {
				sgW = 1
			}
			ns += work * ch.CoopOverheadNS / float64(ch.CUs)
			groups := pushes / float64(sgW)
			ns += groups * BarriersPerItem * ch.SubgroupBarrierNS / float64(ch.CUs)
		}
	}
	ns += float64(lp.AtomicRMWs) * ch.AtomicDataNS

	// --- memory divergence ---
	// Barrier-bearing optimisations keep a workgroup's threads on the
	// same loop iteration, recovering part of the divergence penalty;
	// the recovery only materialises when there is drift to remove
	// (scaled by workgroup-level imbalance). fg's linearised accesses
	// coalesce independently of drift.
	if lp.RandomAccesses > 0 && !mutation("drop-divergence") {
		divFrac := 1.0
		if (cfg.SG || cfg.WG) && lp.MaxWork > 1 {
			drift := lp.imbalance(wgSize) - 1
			if drift > 1 {
				drift = 1
			}
			if drift < DriftFloor {
				drift = DriftFloor
			}
			relief := ch.BarrierDivergenceRelief
			if !cfg.SG {
				// wg's coarser barriers re-align the workgroup less
				// often than sg's per-subgroup staging does.
				relief *= 0.5
			}
			divFrac *= 1 - relief*drift
		}
		if lp.MaxWork > 1 {
			switch cfg.FG {
			case opt.FG1:
				divFrac *= 1 - FG1DivRelief
			case opt.FG8:
				divFrac *= 1 - FG8DivRelief
			}
		}
		ns += float64(lp.RandomAccesses) * ch.DivergencePenaltyNS * divFrac
	}
	return ns
}
