// Package columnar is the incremental sweep engine behind
// internal/measure: a struct-of-arrays replay of the reference cost
// model (internal/cost) that produces bit-identical model times at a
// fraction of the evaluation cost.
//
// The reference Estimate re-walks every launch's work histogram - and
// re-derives every launch's atomic, divergence and utilisation terms -
// for each of the 96 configurations evaluated against a trace. Almost
// all of that arithmetic is invariant across the sweep grid, and the
// paper's Table VI model is additive, so it factors cleanly into three
// tiers:
//
//	Build (once per trace, chip-free)      - Columns: parallel column
//	    slices of per-launch scalars, the compacted nonzero histogram
//	    buckets, per-bucket products (c*r, c*barriers, c*CoopLaneWork
//	    at the standard group widths) and imbalance memos.
//	NewEvaluator (once per chip per trace) - per-launch chip
//	    applications: launch utilisation, throughput, item overhead,
//	    atomic combining, divergence penalties, at both workgroup
//	    sizes.
//	Estimate (per config)                  - selects one of 24 shape
//	    passes (wg x sg x fg x workgroup size - lazily computed, each
//	    shared by 4 configs) whose walk has already folded the full
//	    trace total for each of its coop-cv x oitergb variants, and
//	    returns the memoised total.
//
// Bit-identity with cost.Estimate is load-bearing, not cosmetic: the
// measure harness freezes its datasets byte-for-byte, so the engines
// must agree to the last ulp. Float addition is not associative, which
// pins the design: every precomputed value is a *prefix* of the
// reference's accumulation sequence (prefixes fold exactly; arbitrary
// regroupings do not), bucket passes run in the reference's bucket
// order, and shared constants come from the exported cost tuning
// surface rather than copies. One helper assembles a launch's cost at
// one workgroup size in the reference's addition order, for the
// evaluator's base pass and for both sizes of every shape walk, so a
// change to the per-launch model is made in one place. The conform
// property engine-columnar-differential cross-validates the two
// engines over randomized traces x all chips x all configs.
//
// Columns are immutable after Build and safe to share across any
// number of concurrent Evaluators; an Evaluator memoises shape passes
// and must stay goroutine-local.
package columnar

import (
	"math"

	"gpuport/internal/cost"
	"gpuport/internal/irgl"
)

// memoWidths are the group widths whose cooperative lane-work products
// and imbalance factors are precomputed at build time: subgroup widths
// of the study's chips (1, 16, 32, 64) and the two workgroup sizes
// (128, 256). Other widths (non-standard chip geometries) fall back to
// direct - still bit-identical - computation.
var memoWidths = [6]int{1, 16, 32, 64, 128, 256}

// widthSlot returns the memoWidths index of width, or -1.
func widthSlot(width int) int {
	for k, w := range memoWidths {
		if w == width {
			return k
		}
	}
	return -1
}

// Columns is the chip-free columnar form of one trace: everything the
// cost model consumes, laid out as parallel per-launch slices with all
// config-invariant quantities precomputed. Build once per (application,
// input); read-only afterwards.
type Columns struct {
	// App and Input identify the trace.
	App   string
	Input string

	n int // number of launches

	// Per-launch scalar columns.
	items  []float64 // float64(Items)
	work   []float64 // float64(TotalWork)
	zero   []bool    // Items == 0 (sync-only launches)
	maxGT1 []bool    // MaxWork > 1 (has an inner loop to rewrite)
	inLoop []bool    // LoopID >= 0 (candidate for oitergb outlining)
	pushes []float64 // float64(AtomicPushes)
	dens   []float64 // push density (pushes/work, capped at 1)
	rmws   []float64 // float64(AtomicRMWs)
	random []float64 // float64(RandomAccesses)

	// Compacted work histogram: launch i owns the bucket range
	// bStart[i]:bStart[i+1] of the flat per-bucket columns, in the
	// reference's ascending bucket order with empty buckets dropped
	// (the reference skips them too, so compaction is exact).
	bStart []int32
	bC     []float64                  // bucket count
	bR     []float64                  // exact bucket mean work
	bCR    []float64                  // count * mean (fg path product)
	bC2    []float64                  // count * BarriersPerItem
	bCoop  [len(memoWidths)][]float64 // count * CoopLaneWork(mean, w)

	// Imbalance factors at the memoised widths.
	imb [len(memoWidths)][]float64

	// Per-launch bucket-ordered sums of the bCoop columns: the lane
	// work of a launch whose every bucket takes the same cooperative
	// arm. Shape passes where only one classification arm can fire use
	// these to skip the bucket walk outright; the sums are exact
	// because they are the walk's own left-to-right accumulation.
	coopSum [len(memoWidths)][]float64

	// split[k][i] is the first flat bucket index in launch i's range
	// whose mean work reaches memoWidths[k] (bStart[i+1] if none).
	// Bucket means are strictly ascending - the histogram is log2 by
	// work - so "mean >= width" holds on exactly the suffix from this
	// index, which turns the walk's per-bucket classification into
	// three contiguous ranges.
	split [len(memoWidths)][]int32

	// Host loops.
	nLoops    int
	loopIters []float64

	// The trace's launches, for imbalance factors at fallback widths.
	// Columns reads them but never writes them; the caller must not
	// mutate the trace while any Columns built from it is in use.
	stats []irgl.KernelStats
}

// Build converts a trace into its columnar form, paying every
// config-invariant computation exactly once. A first pass counts the
// nonzero histogram buckets so every column is carved from one
// exact-size slab per element type - no append growth, and the whole
// structure is two or three allocations for the collector.
func Build(tr *irgl.Trace) *Columns {
	n := len(tr.Launches)
	nb := 0
	for i := range tr.Launches {
		ks := &tr.Launches[i]
		for b := 0; b < irgl.WorkHistBuckets; b++ {
			if ks.WorkHist[b] != 0 {
				nb++
			}
		}
	}
	nLoops := len(tr.Loops)

	const nw = len(memoWidths)
	fslab := make([]float64, (6+2*nw)*n+nLoops+4*nb)
	carve := func(ln int) []float64 {
		s := fslab[:ln:ln]
		fslab = fslab[ln:]
		return s
	}
	islab := make([]int32, (nw+1)*n+1)
	bslab := make([]bool, 3*n)
	c := &Columns{
		App:    tr.App,
		Input:  tr.Input,
		n:      n,
		items:  carve(n),
		work:   carve(n),
		pushes: carve(n),
		dens:   carve(n),
		rmws:   carve(n),
		random: carve(n),
		zero:   bslab[0:n:n],
		maxGT1: bslab[n : 2*n : 2*n],
		inLoop: bslab[2*n : 3*n : 3*n],
		bStart: islab[0 : n+1 : n+1],
		stats:  tr.Launches,
	}
	islab = islab[n+1:]
	for k := range memoWidths {
		c.imb[k] = carve(n)
		c.coopSum[k] = carve(n)
		c.split[k] = islab[:n:n]
		islab = islab[n:]
	}
	c.loopIters = carve(nLoops)
	c.bC = carve(nb)
	c.bR = carve(nb)
	c.bCR = carve(nb)
	c.bC2 = carve(nb)
	coopSlab := make([]float64, nw*nb)
	for k := range memoWidths {
		c.bCoop[k] = coopSlab[:nb:nb]
		coopSlab = coopSlab[nb:]
	}

	j := int32(0)
	for i := range tr.Launches {
		ks := &tr.Launches[i]
		c.items[i] = float64(ks.Items)
		c.work[i] = float64(ks.TotalWork)
		c.zero[i] = ks.Items == 0
		c.maxGT1[i] = ks.MaxWork > 1
		c.inLoop[i] = ks.LoopID >= 0
		p := float64(ks.AtomicPushes)
		c.pushes[i] = p
		// Push density exactly as the reference derives it: 1 unless
		// the launch's work strictly exceeds its pushes.
		d := 1.0
		if c.work[i] > p {
			d = p / c.work[i]
		}
		c.dens[i] = d
		c.rmws[i] = float64(ks.AtomicRMWs)
		c.random[i] = float64(ks.RandomAccesses)

		for b := 0; b < irgl.WorkHistBuckets; b++ {
			if ks.WorkHist[b] == 0 {
				continue
			}
			cnt := float64(ks.WorkHist[b])
			r := float64(ks.WorkHistSum[b]) / cnt
			c.bC[j] = cnt
			c.bR[j] = r
			c.bCR[j] = cnt * r
			c.bC2[j] = cnt * cost.BarriersPerItem
			for k, w := range memoWidths {
				c.bCoop[k][j] = cnt * cost.CoopLaneWork(r, w)
			}
			j++
		}
		c.bStart[i+1] = j
		for k, w := range memoWidths {
			s := 0.0
			wf := float64(w)
			split := c.bStart[i+1]
			for j, je := c.bStart[i], c.bStart[i+1]; j < je; j++ {
				s += c.bCoop[k][j]
				if split == c.bStart[i+1] && c.bR[j] >= wf {
					split = j
				}
			}
			c.coopSum[k][i] = s
			c.split[k][i] = split
		}
		c.imbalanceMemos(i, ks)
	}

	c.nLoops = nLoops
	for l := range tr.Loops {
		c.loopIters[l] = float64(tr.Loops[l].Iterations)
	}
	return c
}

// imbalanceMemos fills launch i's imbalance memo at every memo width in
// one histogram pass. KernelStats.ImbalanceFactor walks the histogram
// once per width, calling math.Pow per bucket; since the memo widths
// beyond 1 are the powers of two 2^4..2^8, one pow2Chain per bucket
// yields all five powers at once, bit-identical to the five Pow calls.
// The accumulation per width then replays ImbalanceFactor's own
// sequence, so the memo equals the reference factor exactly.
func (c *Columns) imbalanceMemos(i int, ks *irgl.KernelStats) {
	work := ks.TotalWork
	items := ks.Items - ks.ZeroWorkItems
	if items <= 0 || work <= 0 {
		for k := range memoWidths {
			c.imb[k][i] = 1
		}
		return
	}
	mean := float64(work) / float64(items)
	var cum float64
	total := float64(items)
	var prevPow, emax [5]float64
	for b := 0; b < irgl.WorkHistBuckets; b++ {
		cnt := ks.WorkHist[b]
		if cnt == 0 {
			continue
		}
		cum += float64(cnt)
		pows := pow2Chain(cum / total)
		rep := float64(ks.WorkHistSum[b]) / float64(cnt)
		for k := 0; k < 5; k++ {
			emax[k] += rep * (pows[k] - prevPow[k])
		}
		prevPow = pows
	}
	c.imb[0][i] = 1 // width 1: ImbalanceFactor short-circuits to 1
	for k := 0; k < 5; k++ {
		f := 1.0
		if emax[k] >= mean {
			f = emax[k] / mean
		}
		c.imb[k+1][i] = f
	}
}

// pow2Chain returns x**16, x**32, x**64, x**128 and x**256 for
// x in (0, 1], each bit-identical to math.Pow(x, k). For a one-bit
// integer exponent 2^j, math.Pow reduces to Frexp, j squarings of the
// renormalised mantissa and a final Ldexp, with an underflow break once
// the running binary exponent falls below -2^12 - and the mantissa
// states of that chain are shared by all five exponents, so one chain
// reads them all off. The exponent sequence is non-increasing for
// x <= 1, which is why a single "has it escaped yet" check per capture
// point covers Pow's per-iteration check.
func pow2Chain(x float64) (p [5]float64) {
	if x >= 1 {
		// The last nonzero bucket always lands here: cum reaches total
		// exactly (both are exact small-integer sums), and Pow(1, k)
		// is exactly 1.
		return [5]float64{1, 1, 1, 1, 1}
	}
	x1, xe := math.Frexp(x)
	for j := 1; j <= 8; j++ {
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
		if j >= 4 {
			switch {
			case xe >= -1021:
				// x1 is in [0.5, 1), so its biased exponent is 1022 and
				// the scaled result stays normal: adding xe to the
				// exponent field IS Ldexp(x1, xe), without the call.
				p[j-4] = math.Float64frombits(math.Float64bits(x1) + uint64(int64(xe))<<52)
			case xe < -1<<12:
				p[j-4] = 0 // math.Pow's underflow break: Ldexp(1, xe) == 0
			default:
				p[j-4] = math.Ldexp(x1, xe)
			}
		}
	}
	return p
}

// Launches returns the number of launches in the trace.
func (c *Columns) Launches() int { return c.n }

// imbalance returns the launch's imbalance factor at the given width,
// from the build-time memo when the width is standard.
func (c *Columns) imbalance(i, width int) float64 {
	if k := widthSlot(width); k >= 0 {
		return c.imb[k][i]
	}
	return c.stats[i].ImbalanceFactor(width)
}
