// Package ocl is a small lockstep work-item simulator of the OpenCL
// execution hierarchy (Section IV of the paper): work-items grouped
// into subgroups, subgroups into workgroups, workgroups scheduled onto
// compute units. It executes micro-kernels - per-lane memory access
// sequences - round by round, modelling:
//
//   - caching: each workgroup sees a per-CU cache of limited line
//     capacity with LRU replacement; hits cost the chip's local-access
//     latency, misses a full line transaction;
//   - intra-workgroup drift: subgroups of a workgroup advance through
//     loops at different rates unless barriers re-align them, widening
//     the access window until it overflows the cache (the memory-
//     divergence effect of Section VIII-c that devastates MALI);
//   - atomic serialisation and subgroup combining: same-address atomics
//     from one subgroup round serialise unless combined, either by
//     coop-cv-style staging or by a JIT that combines automatically;
//   - barrier costs at workgroup granularity.
//
// A kernel describes one workgroup: At maps a workgroup-local lane and
// a logical round to an access. At must be a pure function of its
// arguments: Device.Run simulates one full workgroup and the partial
// last one, if any, and replays them for the others.
//
// The main study's cost model (internal/cost) works at trace level; this
// package exists so the paper's microbenchmarks (Table X, Figure 5) run
// as actual kernels over the simulated hierarchy rather than as closed-
// form formulas.
package ocl

import (
	"gpuport/internal/chip"
)

// LineBytes is the modelled cache-line / memory transaction size.
const LineBytes = 64

// ElemBytes is the access granularity (32-bit elements).
const ElemBytes = 4

// stagingCostFactor scales the local-memory traffic of explicit
// coop-cv-style combining (one staging write per push).
const stagingCostFactor = 0.10

// Access is one memory operation by one lane in one round.
type Access struct {
	// Addr is the element index accessed (scaled by ElemBytes for
	// line grouping). Negative means "no access this round".
	Addr int64
	// Atomic marks a global atomic RMW.
	Atomic bool
}

// NoAccess is the idle-round marker.
var NoAccess = Access{Addr: -1}

// Kernel describes a micro-kernel: every lane executes Rounds rounds,
// and At reports the access lane performs in a given logical round.
type Kernel struct {
	// Name labels the kernel in reports.
	Name string
	// Items is the global work size.
	Items int
	// Rounds is the per-lane loop trip count.
	Rounds int
	// At returns the access of workgroup-local lane `lane` in its
	// logical round `round`. It must be a pure function of (lane,
	// round): Run calls it for at most two workgroups.
	At func(lane, round int) Access
	// BarrierEvery inserts a workgroup barrier every N logical rounds,
	// re-aligning subgroup drift; 0 means no barriers (subgroups drift
	// freely).
	BarrierEvery int
	// CombineAtomics enables coop-cv style subgroup combining of
	// same-address atomics in the kernel code itself.
	CombineAtomics bool
}

// Result is the simulated execution outcome.
type Result struct {
	// TimeNS is the modelled execution time, excluding launch costs.
	TimeNS float64
	// Hits and Misses count cache outcomes of plain accesses.
	Hits, Misses int64
	// Atomics counts atomic operations issued after combining.
	Atomics int64
	// CombinedAtomics counts atomics elided by combining.
	CombinedAtomics int64
	// Barriers counts workgroup barriers executed.
	Barriers int64
}

// Device runs micro-kernels against a chip model.
type Device struct {
	Chip chip.Chip
	// WorkgroupSize defaults to 128.
	WorkgroupSize int
}

// lru is a tiny exact-LRU cache of memory lines: a chip's CU cache
// holds a handful of lines, so two parallel slices scanned linearly
// beat any index.
type lru struct {
	n     int     // lines held: lines[:n]
	tick  int64   // touches so far
	lines []int64 // cached lines; len(lines) is the capacity
	used  []int64 // used[i] is the tick of lines[i]'s last touch
}

// lruStackLines is the capacity Run's stack-resident buffer covers;
// every study chip fits, a larger cache allocates its own.
const lruStackLines = 8

// newLRU returns an empty cache of the given capacity (at least one
// line), keeping its bookkeeping in buf when buf holds two slots per
// line.
func newLRU(capacity int, buf []int64) *lru {
	if capacity < 1 {
		capacity = 1
	}
	if len(buf) < 2*capacity {
		buf = make([]int64, 2*capacity)
	}
	return &lru{lines: buf[:capacity], used: buf[capacity : 2*capacity]}
}

// reset empties the cache.
func (c *lru) reset() { c.n, c.tick = 0, 0 }

// touch returns true on a hit; on a miss the line is inserted, evicting
// the least recently used line if needed.
func (c *lru) touch(line int64) bool {
	c.tick++
	for i, l := range c.lines[:c.n] {
		if l == line {
			c.used[i] = c.tick
			return true
		}
	}
	slot := c.n
	if c.n < len(c.lines) {
		c.n++
	} else {
		slot = 0
		for i, t := range c.used {
			if t < c.used[slot] {
				slot = i
			}
		}
	}
	c.lines[slot], c.used[slot] = line, c.tick
	return false
}

// driftOf returns the execution offset (in rounds) of a subgroup within
// its workgroup when no barrier re-aligns them. Hardware schedules
// subgroups independently; the more independent entities share a CU,
// the wider the drift window. Subgroup k runs k rounds behind the
// leader, capped at half the loop length.
func (d *Device) driftOf(subgroup, rounds int) int {
	if rounds <= 1 {
		return 0
	}
	max := rounds / 2
	if subgroup < max {
		return subgroup
	}
	return max
}

// Run simulates the kernel and returns its result.
//
// Workgroups are independent in this model: each starts with an empty
// cache, atomics combine only within one physical round of one
// workgroup, drift and barriers depend only on the subgroup index and
// Rounds, and time is summed over workgroups. As At takes the
// workgroup-local lane, all workgroups with the same lane count charge
// the same counts and the same time addends. Run simulates one full
// workgroup and the partial last one, if any, records each one's
// addends in the order they were charged, and replays them once per
// workgroup onto the running time. Replaying rather than multiplying
// keeps TimeNS bit-identical to simulating every workgroup.
func (d *Device) Run(k Kernel) Result {
	wg := d.WorkgroupSize
	if wg <= 0 {
		wg = 128
	}
	if wg > d.Chip.MaxWorkgroup {
		wg = d.Chip.MaxWorkgroup
	}
	sg := d.Chip.SubgroupSize
	if sg < 1 {
		sg = 1
	}
	if sg > wg {
		sg = wg
	}
	// Combining factor: explicit (coop-cv) or JIT-automatic. A factor
	// at or below one means combining degenerates to plain atomics
	// (MALI's subgroup size of 1).
	combineFactor := 1.0
	if k.CombineAtomics || d.Chip.JITCombinesAtomics {
		if f := float64(sg) * d.Chip.CombineEfficiency; f > 1 {
			combineFactor = f
		}
	}
	var buf [2 * lruStackLines]int64
	sim := &workgroupSim{
		d: d, k: k, sg: sg, combineFactor: combineFactor,
		staging: k.CombineAtomics && combineFactor > 1,
		cache:   newLRU(d.Chip.CacheLinesPerCU, buf[:]),
	}

	var res Result
	total := 0.0 // a local accumulator, not res.TimeNS, keeps the replay in a register
	for _, class := range [2]struct{ lanes, workgroups int }{{wg, k.Items / wg}, {k.Items % wg, 1}} {
		if class.lanes <= 0 || class.workgroups <= 0 {
			continue
		}
		counts, addends := sim.run(class.lanes)
		n := int64(class.workgroups)
		res.Hits += n * counts.Hits
		res.Misses += n * counts.Misses
		res.Atomics += n * counts.Atomics
		res.CombinedAtomics += n * counts.CombinedAtomics
		res.Barriers += n * counts.Barriers
		for i := 0; i < class.workgroups; i++ {
			for _, a := range addends {
				total += a
			}
		}
	}
	res.TimeNS = total

	// The loop above accumulated time as if workgroups ran back to
	// back; compute units execute them concurrently, so divide by the
	// achieved parallelism (capped by the number of workgroups).
	parallel := (k.Items + wg - 1) / wg
	if parallel > d.Chip.CUs {
		parallel = d.Chip.CUs
	}
	if parallel > 1 {
		res.TimeNS /= float64(parallel)
	}
	return res
}

// atomicCount is one address's atomic operations in a physical round.
type atomicCount struct {
	addr  int64
	count int
}

// workgroupSim simulates single workgroups of one kernel on one device.
type workgroupSim struct {
	d             *Device
	k             Kernel
	sg            int
	combineFactor float64
	staging       bool // explicit combining: local-memory staging and subgroup barriers
	cache         *lru
	atomics       []atomicCount // the current round's atomics, in first-touch order
}

// run simulates one workgroup of the given lanes and returns its counts
// (TimeNS left 0) and its time charges in the order they were made.
func (s *workgroupSim) run(lanes int) (counts Result, addends []float64) {
	d, k, sg := s.d, s.k, s.sg
	subgroups := (lanes + sg - 1) / sg
	s.cache.reset()

	maxDrift := 0
	if k.BarrierEvery == 0 {
		for sub := 0; sub < subgroups; sub++ {
			if dr := d.driftOf(sub, k.Rounds); dr > maxDrift {
				maxDrift = dr
			}
		}
	}
	physRounds := k.Rounds + maxDrift

	// Each lane-round charges at most one plain access or shares one
	// atomic group (one addend, three with staging); barriers add one
	// each. Sizing the record to that bound means it never grows, and
	// the bound is exact for a kernel of plain accesses.
	perLaneRound, barriers := 1, 0
	if s.staging {
		perLaneRound = 3
	}
	if k.BarrierEvery > 0 {
		barriers = physRounds / k.BarrierEvery
	}
	addends = make([]float64, 0, lanes*k.Rounds*perLaneRound+barriers)

	for pr := 0; pr < physRounds; pr++ {
		s.atomics = s.atomics[:0]
		for sub := 0; sub < subgroups; sub++ {
			drift := 0
			if k.BarrierEvery == 0 {
				drift = d.driftOf(sub, k.Rounds)
			}
			logical := pr - drift
			if logical < 0 || logical >= k.Rounds {
				continue
			}
			laneHi := min(sub*sg+sg, lanes)
			for l := sub * sg; l < laneHi; l++ {
				acc := k.At(l, logical)
				if acc.Addr < 0 {
					continue
				}
				if acc.Atomic {
					s.touchAtomic(acc.Addr)
					continue
				}
				if s.cache.touch(acc.Addr * ElemBytes / LineBytes) {
					counts.Hits++
					addends = append(addends, d.Chip.LocalMemNS)
				} else {
					counts.Misses++
					addends = append(addends, d.Chip.LineFetchNS)
				}
			}
		}

		// Atomics: same-address atomics combine by the subgroup
		// factor; distinct addresses serialise on the RMW unit, in the
		// order the round first touched them.
		for _, a := range s.atomics {
			groups := int(float64(a.count)/s.combineFactor + 0.9999)
			if groups < 1 {
				groups = 1
			}
			if groups >= a.count {
				groups = a.count
			}
			counts.Atomics += int64(groups)
			counts.CombinedAtomics += int64(a.count - groups)
			addends = append(addends, float64(groups)*d.Chip.AtomicNS)
			if s.staging {
				// Explicit combining stages values through local
				// memory and subgroup barriers.
				sgCount := (a.count + sg - 1) / sg
				addends = append(addends,
					float64(a.count)*d.Chip.LocalMemNS*stagingCostFactor,
					float64(2*sgCount)*d.Chip.SubgroupBarrierNS)
			}
		}

		// Barriers re-align the workgroup.
		if k.BarrierEvery > 0 && (pr+1)%k.BarrierEvery == 0 {
			counts.Barriers++
			addends = append(addends, d.Chip.WorkgroupBarrierNS)
		}
	}
	return counts, addends
}

// touchAtomic counts one atomic on addr in the current round.
func (s *workgroupSim) touchAtomic(addr int64) {
	for i := range s.atomics {
		if s.atomics[i].addr == addr {
			s.atomics[i].count++
			return
		}
	}
	s.atomics = append(s.atomics, atomicCount{addr: addr, count: 1})
}
