package columnar

import (
	"gpuport/internal/chip"
	"gpuport/internal/cost"
	"gpuport/internal/opt"
)

// sizeView holds the per-launch quantities that depend on the selected
// workgroup size (and its occupancy) but on nothing else of the config:
// outlined-sync cost, item overhead, throughput at both occupancy
// penalties, and the clamped barrier-relief drift.
type sizeView struct {
	wgSize  int
	wgSizeF float64
	occ     float64
	wgBar   float64

	syncOut []float64 // global-barrier round cost (outlined launches)
	itemNS  []float64 // items * ItemOverheadNS / (CUs * occ)
	thr     []float64 // EdgeThroughput * occ * util
	thrOut  []float64 // thr / GBOccupancyPenalty
	drift   []float64 // clamp(imbalance(wgSize) - 1)
}

// Evaluator applies one chip to one column set. It memoises the 24
// shape passes lazily, so it is cheap to construct even when only a few
// configs will be evaluated, yet a full 96-config sweep pays for each
// bucket walk only once - and each walk settles four configs.
//
// Not safe for concurrent use (the shape memo is unguarded); give each
// goroutine its own Evaluator over the shared Columns.
type Evaluator struct {
	ch   chip.Chip
	cols *Columns

	cusF     float64
	launchNS float64
	sgW      int // executing subgroup width, clamped to >= 1

	// Per-launch chip applications, config-invariant.
	plainLane []float64 // work * imbalance(sgW): no nested parallelism
	pushComb  []float64 // push cost under subgroup combining
	pushOff   []float64 // push cost without coop-cv: combined only by the chip's JIT
	coopA     []float64 // coop-cv predication overhead (work-scaled), 0 without pushes
	coopB     []float64 // coop-cv subgroup-barrier overhead (push-scaled)
	rmwNS     []float64 // data-atomic cost
	randPen   []float64 // randomAccesses * DivergencePenaltyNS

	loopOutNS  float64   // outlined host loop: dispatch + one copy
	loopIterNS []float64 // per-loop: iterations * CopyNS

	// Per-bucket chip applications, shared by every shape walk so the
	// divides are paid once per chip rather than once per walk. Each
	// entry keeps the reference's own expression order, so reading it
	// mid-walk is bitwise identical to computing it mid-walk.
	c2WG [2][]float64 // bC2[j] * wgBar(size) / CUs
	c2SG []float64    // bC2[j] * sgBar / CUs

	// fgF[k] is the fine-grained work factor 1 + residual + cost for
	// FG1 / FG8. Walks apply it as bCR[j] * factor - the reference's
	// own (c*r)*fgFactor grouping - with factor 1.0 when fg is off.
	fgF [2]float64

	// Per-launch bucket-ordered sums of the columns above, for shape
	// projections where a single classification arm covers every
	// bucket (pure wg / sg / fg): those walks collapse to two loads.
	extraWGSum [2][]float64
	extraSGSum []float64
	laneFGSum  [2][]float64

	// base[8i + s*4 + v]: launch i's cost for variant v (coopBit*2 +
	// oiterBit) at size s when the launch takes the plain path -
	// sync-only, no nested parallelism, or a no-scheme config. Those
	// costs do not depend on the (wg, sg, fg) projection, so every
	// shape walk reads them back instead of re-deriving them (and
	// re-dividing by the launch throughput); the interleaved layout
	// puts all eight on one cache line.
	base []float64

	size [2]sizeView

	// shapes[combo + szIdx*12][v], combo = fg*4 + wgBit + 2*sgBit:
	// the full modelled trace time of one (wg, sg, fg, size)
	// projection of the config space under variant v (coopBit*2 +
	// oiterBit). The four configs sharing a projection differ only in
	// coop-cv and oitergb, which select among per-launch terms already
	// known during the walk, so one walk folds all four totals and
	// Estimate reduces to a table lookup. The folding is exact because
	// the walk visits launches in trace order and assembles each
	// launch's cost with the reference's own addition sequence: each
	// total IS the reference's accumulation replayed verbatim, not a
	// regrouping of it.
	shapes [24][4]float64
	built  [12]bool // per combo: both sizes are built together
}

// NewEvaluator precomputes every chip-dependent, config-invariant
// quantity for the trace: one pass over the launches plus two size
// views. The base pass folds the no-scheme shapes; the others are
// filled in lazily by Estimate.
func NewEvaluator(ch chip.Chip, cols *Columns) *Evaluator {
	n := cols.n
	nb := len(cols.bC)
	// Every per-launch and per-bucket column the evaluator owns, carved
	// from one slab: a sweep constructs one evaluator per (chip, trace)
	// cell, so constructor allocations are on the hot path.
	fslab := make([]float64, 30*n+cols.nLoops+3*nb)
	carve := func(ln int) []float64 {
		s := fslab[:ln:ln]
		fslab = fslab[ln:]
		return s
	}
	e := &Evaluator{
		ch:        ch,
		cols:      cols,
		cusF:      float64(ch.CUs),
		launchNS:  ch.LaunchNS,
		plainLane: carve(n),
		pushComb:  carve(n),
		pushOff:   carve(n),
		coopA:     carve(n),
		coopB:     carve(n),
		rmwNS:     carve(n),
		randPen:   carve(n),
	}
	e.loopIterNS = carve(cols.nLoops)
	for s := 0; s < 2; s++ {
		sv := &e.size[s]
		sv.syncOut = carve(n)
		sv.itemNS = carve(n)
		sv.thr = carve(n)
		sv.thrOut = carve(n)
		sv.drift = carve(n)
		e.c2WG[s] = carve(nb)
		e.extraWGSum[s] = carve(n)
		e.laneFGSum[s] = carve(n)
	}
	e.c2SG = carve(nb)
	e.extraSGSum = carve(n)
	e.base = carve(8 * n)
	e.fgF = [2]float64{
		1 + cost.FG1Residual + ch.FG1CostPerEdge,
		1 + cost.FG8Residual + ch.FG8CostPerEdge,
	}
	e.sgW = ch.SubgroupSize
	if e.sgW < 1 {
		e.sgW = 1
	}
	sgWF := float64(e.sgW)
	for i := 0; i < n; i++ {
		e.plainLane[i] = cols.work[i] * cols.imbalance(i, e.sgW)
		p := cols.pushes[i]
		// Combining divides the push count by the lanes that share an
		// atomic; the raw (unclamped) subgroup width is what combines.
		combine := float64(ch.SubgroupSize) * ch.CombineEfficiency * cols.dens[i]
		if combine < 1 {
			combine = 1
		}
		e.pushComb[i] = p / combine * ch.AtomicNS
		e.pushOff[i] = p * ch.AtomicNS
		if ch.JITCombinesAtomics {
			e.pushOff[i] = e.pushComb[i]
		}
		// The reference charges coop-cv's overheads only with pushes;
		// the push-scaled one is 0 without them already.
		if p > 0 {
			e.coopA[i] = cols.work[i] * ch.CoopOverheadNS / e.cusF
		}
		groups := p / sgWF
		e.coopB[i] = groups * cost.BarriersPerItem * ch.SubgroupBarrierNS / e.cusF
		e.rmwNS[i] = cols.rmws[i] * ch.AtomicDataNS
		e.randPen[i] = cols.random[i] * ch.DivergencePenaltyNS
	}
	e.loopOutNS = ch.LaunchNS + ch.CopyNS
	for l := 0; l < cols.nLoops; l++ {
		e.loopIterNS[l] = cols.loopIters[l] * ch.CopyNS
	}
	e.buildSize(0)
	e.buildSize(1)
	e.buildBuckets()
	e.basePass(0)
	e.basePass(1)
	e.built[0] = true // basePass folds the no-scheme combination
	return e
}

// basePass fills base[szIdx] - the per-launch, per-variant costs along
// the plain path - and folds them into the no-scheme shape at that
// size. A launch with no nested-parallelism rewrite has no inspection
// work, no barrier overhead and no divergence relief: its lane work is
// the plain lane work, and its divergence fraction is exactly 1
// (randPen * 1.0 == randPen bitwise).
func (e *Evaluator) basePass(szIdx int) {
	c := e.cols
	sv := &e.size[szIdx]
	var t [4]float64
	for i := 0; i < c.n; i++ {
		o := 8*i + 4*szIdx
		ns := e.base[o : o+4]
		if c.zero[i] {
			sync := e.launchNS
			if c.inLoop[i] {
				sync = sv.syncOut[i]
			}
			ns[0], ns[1], ns[2], ns[3] = e.launchNS, sync, e.launchNS, sync
		} else {
			ns[0], ns[1], ns[2], ns[3] = e.launchCosts(i, sv, e.plainLane[i], 0, e.randPen[i])
		}
		for v, x := range ns {
			t[v] += x
		}
	}
	e.shapes[12*szIdx] = e.withLoops(t)
}

// launchCosts assembles launch i's cost at one workgroup size under
// each variant (coopBit*2 + oiterBit), with the reference's addition
// sequence: head (launch latency or outlined sync, lane plus
// inspection work num over throughput, item overhead, barrier overhead
// extra), push terms, data atomics, divergence divNS. A term the
// reference skips or guards is added here as exactly 0.0, which leaves
// the strictly positive partial sum bit-identical (x + 0.0 == x for
// x > 0). The outlined pair duplicates the plain pair bitwise when the
// launch is not in a loop.
func (e *Evaluator) launchCosts(i int, sv *sizeView, num, extra, divNS float64) (ns0, ns1, ns2, ns3 float64) {
	costs := func(head, thr float64) (off, on float64) { // coop-cv off, on
		head += num / thr
		head += sv.itemNS[i]
		head += extra
		off, on = head+e.pushOff[i], head+e.pushComb[i]
		on += e.coopA[i]
		on += e.coopB[i]
		off += e.rmwNS[i]
		on += e.rmwNS[i]
		off += divNS
		on += divNS
		return off, on
	}
	ns0, ns2 = costs(e.launchNS, sv.thr[i])
	if !e.cols.inLoop[i] {
		return ns0, ns0, ns2, ns2
	}
	ns1, ns3 = costs(sv.syncOut[i], sv.thrOut[i])
	return ns0, ns1, ns2, ns3
}

// withLoops folds the host-loop costs into the launch totals t, per
// loop in the reference's order: every iteration's flag copy-back, or
// with oitergb one dispatch and one copy.
func (e *Evaluator) withLoops(t [4]float64) [4]float64 {
	for _, it := range e.loopIterNS {
		t[0] += it
		t[2] += it
		t[1] += e.loopOutNS
		t[3] += e.loopOutNS
	}
	return t
}

// buildBuckets fills the per-bucket chip columns and their per-launch
// pure-arm sums in one pass over the compacted histogram. Every term
// repeats the walk's own expression (division by CUs innermost) and
// every sum is a left fold in bucket order, preserving bit-identity.
func (e *Evaluator) buildBuckets() {
	c := e.cols
	sgBar := e.ch.SubgroupBarrierNS
	wgBar0, wgBar1 := e.size[0].wgBar, e.size[1].wgBar
	for i := 0; i < c.n; i++ {
		var sWG0, sWG1, sSG, sFG1, sFG8 float64
		for j, je := c.bStart[i], c.bStart[i+1]; j < je; j++ {
			b2 := c.bC2[j]
			v := b2 * wgBar0 / e.cusF
			e.c2WG[0][j] = v
			sWG0 += v
			v = b2 * wgBar1 / e.cusF
			e.c2WG[1][j] = v
			sWG1 += v
			v = b2 * sgBar / e.cusF
			e.c2SG[j] = v
			sSG += v
			cr := c.bCR[j]
			sFG1 += cr * e.fgF[0]
			sFG8 += cr * e.fgF[1]
		}
		e.extraWGSum[0][i] = sWG0
		e.extraWGSum[1][i] = sWG1
		e.extraSGSum[i] = sSG
		e.laneFGSum[0][i] = sFG1
		e.laneFGSum[1][i] = sFG8
	}
}

// buildSize fills the size view for szIdx (0: wg 128, 1: wg 256), with
// the workgroup size clamped to the chip's maximum exactly as the
// reference clamps it.
func (e *Evaluator) buildSize(s int) {
	ch := e.ch
	wgSize := 128
	occ := 1.0
	if s == 1 {
		wgSize = 256
		occ = ch.Occupancy256
	}
	if wgSize > ch.MaxWorkgroup {
		wgSize = ch.MaxWorkgroup
	}
	sv := &e.size[s]
	sv.wgSize = wgSize
	sv.wgSizeF = float64(wgSize)
	sv.occ = occ
	sv.wgBar = ch.WorkgroupBarrierNS
	if wgSize > 128 {
		sv.wgBar *= ch.WGBarrier256Factor
	}
	c := e.cols
	n := c.n
	for i := 0; i < n; i++ {
		items := c.items[i]
		wgs := items / sv.wgSizeF / e.cusF
		if wgs > 4 {
			wgs = 4
		}
		sv.syncOut[i] = ch.GlobalBarrierNS * (0.6 + 0.4*wgs)
		sv.itemNS[i] = items * ch.ItemOverheadNS / (e.cusF * occ)
		util := items / float64(ch.CUs*wgSize)
		if util > 1 {
			util = 1
		}
		if util < cost.MinUtilisation {
			util = cost.MinUtilisation
		}
		sv.thr[i] = ch.EdgeThroughput * occ * util
		sv.thrOut[i] = ch.EdgeThroughput * occ * util / ch.GBOccupancyPenalty
		drift := c.imbalance(i, wgSize) - 1
		if drift > 1 {
			drift = 1
		}
		if drift < cost.DriftFloor {
			drift = cost.DriftFloor
		}
		sv.drift[i] = drift
	}
}

// shapeFor returns the memoised shape pass for the config's (wg, sg,
// fg, size) projection, building both size shapes of its combination on
// first use.
func (e *Evaluator) shapeFor(cfg opt.Config, szIdx int) *[4]float64 {
	key := int(cfg.FG) * 4
	if cfg.WG {
		key++
	}
	if cfg.SG {
		key += 2
	}
	if !e.built[key] {
		e.buildCombo(cfg, key)
		e.built[key] = true
	}
	return &e.shapes[key+szIdx*12]
}

// buildCombo runs the bucket-classification pass - the only part of the
// model that walks the work histogram - for one (wg, sg, fg)
// combination at both workgroup sizes in a single walk over the trace,
// and folds the result all the way down to the eight sweep totals the
// combination's configs can produce (size x coop-cv x oitergb). The
// sizes share every size-invariant load, and the entire lane-work walk
// when the workgroup arm is off; launchCosts assembles each size's
// launch cost, and each size's accumulation chain replays the
// reference's addition sequence independently, so the fusion changes
// which pass computes a total, never the floats in it. Reads only
// cfg.WG, cfg.SG and cfg.FG; the no-scheme combination is basePass's.
func (e *Evaluator) buildCombo(cfg opt.Config, key int) {
	c := e.cols
	n := c.n

	schemes := 0
	for _, on := range [3]bool{cfg.WG, cfg.SG, cfg.FG != opt.FGOff} {
		if on {
			schemes++
		}
	}
	inspect := cost.InspectWorkPerItem * float64(schemes)

	fgRelief := 1.0
	switch cfg.FG {
	case opt.FG1:
		fgRelief = 1 - cost.FG1DivRelief
	case opt.FG8:
		fgRelief = 1 - cost.FG8DivRelief
	}

	relief := 0.0
	if cfg.SG || cfg.WG {
		relief = e.ch.BarrierDivergenceRelief
		if !cfg.SG {
			relief *= 0.5
		}
	}

	// The walk's per-bucket classification ("which arm takes bucket j")
	// compares each bucket mean against the wg / sg widths. Bucket means
	// ascend within a launch, so each arm covers a contiguous range: fg
	// prefix, sg middle, wg suffix, delimited by the precomputed split
	// points. When a range covers the whole launch the per-launch sums
	// replace the range loop outright. Direct computation remains as the
	// fallback for widths outside the memo set (non-standard geometry).
	wgOn, sgOn := cfg.WG, cfg.SG
	fgIdx := -1
	switch cfg.FG {
	case opt.FG1:
		fgIdx = 0
	case opt.FG8:
		fgIdx = 1
	}
	wgAll := !sgOn && fgIdx < 0 // wg arm catches every bucket

	// Hoisted columns: this walk is the hot loop of a sweep. Size-
	// dependent quantities come in pairs indexed by szIdx.
	bStart, bR, bCR := c.bStart, c.bR, c.bCR
	sgWF := float64(e.sgW)
	sgSlot := widthSlot(e.sgW)
	var coopSG, coopSumSG []float64
	var splitSG []int32
	if sgSlot >= 0 {
		coopSG = c.bCoop[sgSlot]
		coopSumSG = c.coopSum[sgSlot]
		splitSG = c.split[sgSlot]
	}
	fgMul := 1.0 // (c*r) * fgFactor, exactly the reference's grouping
	var laneFGCol []float64
	if fgIdx >= 0 {
		fgMul = e.fgF[fgIdx]
		laneFGCol = e.laneFGSum[fgIdx]
	}
	var wgW [2]int
	var wgWF [2]float64
	var coopWG, coopSumWG [2][]float64
	var splitWG [2][]int32
	for s := 0; s < 2; s++ {
		wgW[s] = e.size[s].wgSize
		wgWF[s] = e.size[s].wgSizeF
		if slot := widthSlot(wgW[s]); slot >= 0 {
			coopWG[s] = c.bCoop[slot]
			coopSumWG[s] = c.coopSum[slot]
			splitWG[s] = c.split[slot]
		}
	}
	c2WGcol := e.c2WG
	c2SGcol := e.c2SG
	extraWGCol := e.extraWGSum
	extraSGCol := e.extraSGSum
	maxGT1, items := c.maxGT1, c.items
	randPen := e.randPen
	ba := e.base
	sgOrWG := sgOn || wgOn
	reps := 1
	if wgOn && wgW[0] != wgW[1] {
		reps = 2 // wg arm boundary depends on the workgroup width
	}

	var tot [8]float64 // [szIdx*4 + variant], base's per-launch layout
	for i := 0; i < n; i++ {
		if !maxGT1[i] {
			// Sync-only or no nested parallelism: the launch's cost is
			// projection-invariant and basePass already assembled it.
			for k, x := range ba[8*i : 8*i+8] {
				tot[k] += x
			}
			continue
		}
		extraWork := inspect * items[i]
		js, je := bStart[i], bStart[i+1]
		// The sg boundary before clamping against the wg boundary; it
		// does not depend on the workgroup size.
		sSGr := je
		if sgOn {
			switch {
			case fgIdx < 0:
				sSGr = js
			case splitSG != nil:
				sSGr = splitSG[i]
			default:
				for sSGr = js; sSGr < je && bR[sSGr] < sgWF; sSGr++ {
				}
			}
		}
		var lane, extra [2]float64
		for s := 0; s < reps; s++ {
			sWG := je // start of the wg suffix
			if wgOn {
				switch {
				case wgAll:
					sWG = js
				case splitWG[s] != nil:
					sWG = splitWG[s][i]
				default:
					for sWG = js; sWG < je && bR[sWG] < wgWF[s]; sWG++ {
					}
				}
			}
			sSG := sWG // start of the sg middle
			if sgOn {
				sSG = sSGr
				if sSG > sWG {
					sSG = sWG
				}
			}
			var lw, el float64
			cWG := coopWG[s]
			switch {
			case sWG == js && cWG != nil: // every bucket on the wg arm
				lw = coopSumWG[s][i]
				el = extraWGCol[s][i]
			case sSG == js && sWG == je && coopSG != nil: // every bucket on the sg arm
				lw = coopSumSG[i]
				el = extraSGCol[i]
			case sSG == je && fgIdx >= 0: // every bucket on the fg arm
				lw = laneFGCol[i]
			default:
				for j := js; j < sSG; j++ {
					lw += bCR[j] * fgMul
				}
				if coopSG != nil {
					for j := sSG; j < sWG; j++ {
						lw += coopSG[j]
						el += c2SGcol[j]
					}
				} else {
					for j := sSG; j < sWG; j++ {
						lw += c.bC[j] * cost.CoopLaneWork(bR[j], e.sgW)
						el += c2SGcol[j]
					}
				}
				if cWG != nil {
					for j := sWG; j < je; j++ {
						lw += cWG[j]
						el += c2WGcol[s][j]
					}
				} else {
					for j := sWG; j < je; j++ {
						lw += c.bC[j] * cost.CoopLaneWork(bR[j], wgW[s])
						el += c2WGcol[s][j]
					}
				}
			}
			lane[s], extra[s] = lw, el
		}
		if reps == 1 {
			lane[1], extra[1] = lane[0], extra[0]
		}

		for s := 0; s < 2; s++ {
			divFrac := 1.0
			if sgOrWG {
				divFrac *= 1 - relief*e.size[s].drift[i]
			}
			if fgIdx >= 0 {
				divFrac *= fgRelief
			}
			ns0, ns1, ns2, ns3 := e.launchCosts(i, &e.size[s], lane[s]+extraWork, extra[s], randPen[i]*divFrac)
			t := tot[4*s : 4*s+4]
			t[0], t[1], t[2], t[3] = t[0]+ns0, t[1]+ns1, t[2]+ns2, t[3]+ns3
		}
	}
	e.shapes[key] = e.withLoops([4]float64(tot[:4]))
	e.shapes[key+12] = e.withLoops([4]float64(tot[4:]))
}

// Estimate returns the modelled runtime of the trace on the evaluator's
// chip under cfg - bit-identical to cost.Estimate on the profile of the
// trace the Columns were built from. Amortised over a sweep, the per-config cost
// is a memo lookup: each lazily-built shape pass already folded the
// full trace total for all four of its configs.
//
// The reference's conform mutation hooks (a fault-injection testing
// device) are deliberately not replicated here: under an active cost
// mutation the two engines genuinely diverge and the differential
// property reports it, which is exactly the evidence that the property
// has teeth.
func (e *Evaluator) Estimate(cfg opt.Config) float64 {
	szIdx := 0
	if cfg.SZ256 {
		szIdx = 1
	}
	sh := e.shapeFor(cfg, szIdx)
	v := 0
	if cfg.OiterGB {
		v = 1
	}
	if cfg.CoopCV {
		v += 2
	}
	return sh[v]
}

// Estimate is the one-shot convenience form: build an evaluator for
// (ch, cols) and evaluate a single config. Sweeps should build one
// Evaluator per (chip, trace) and reuse it across configs instead.
func Estimate(ch chip.Chip, cfg opt.Config, cols *Columns) float64 {
	return NewEvaluator(ch, cols).Estimate(cfg)
}
