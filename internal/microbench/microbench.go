// Package microbench implements the three microbenchmarks the paper
// uses to dissect chip-specific optimisation choices (Section VIII):
//
//   - sg-cmb: N atomic fetch-adds on one location, with and without
//     subgroup combining (explains coop-cv's per-chip behaviour);
//   - m-divg: a strided-access loop with and without a gratuitous
//     workgroup barrier (explains sg on MALI);
//   - launch overhead: many constant-time kernel launches interleaved
//     with a tiny copy-back, reported as GPU utilisation (Figure 5,
//     explains oitergb's absence on Nvidia).
//
// The first two run as actual kernels on the internal/ocl lockstep
// simulator; the third sweeps the chip's launch/copy parameters exactly
// as the paper's calibration loop does.
package microbench

import (
	"gpuport/internal/chip"
	"gpuport/internal/ocl"
)

// SGCmbN is the atomic invocation count used by Table X (the paper
// uses N = 20000).
const SGCmbN = 20000

// Speedup is one microbenchmark outcome on one chip.
type Speedup struct {
	Chip string
	// Base and Optimised are the modelled times of the two variants.
	Base, Optimised float64
	// Factor is Base / Optimised (above 1 = the optimised variant wins).
	Factor float64
}

// SGCombine runs the sg-cmb microbenchmark on ch: N atomic adds to a
// single location versus the subgroup-combined version.
func SGCombine(ch chip.Chip, n int) Speedup {
	dev := &ocl.Device{Chip: ch}
	atomicKernel := func(combine bool) ocl.Kernel {
		return ocl.Kernel{
			Name:  "sg-cmb",
			Items: n,
			// One atomic per lane, all to element 0.
			Rounds:         1,
			At:             func(lane, round int) ocl.Access { return ocl.Access{Addr: 0, Atomic: true} },
			CombineAtomics: combine,
		}
	}
	base := dev.Run(atomicKernel(false)).TimeNS
	comb := dev.Run(atomicKernel(true)).TimeNS
	return Speedup{Chip: ch.Name, Base: base, Optimised: comb, Factor: base / comb}
}

// MDivgItems and MDivgRounds size the m-divg strided loop.
const (
	MDivgItems  = 16384
	MDivgRounds = 64
)

// MemDivergence runs the m-divg microbenchmark on ch: every lane walks
// a large array with a workgroup-wide stride; one variant inserts a
// gratuitous barrier each iteration so lanes stay within one iteration
// of each other, the other lets subgroups drift.
func MemDivergence(ch chip.Chip) Speedup {
	dev := &ocl.Device{Chip: ch}
	strided := func(barrier int) ocl.Kernel {
		return ocl.Kernel{
			Name:   "m-divg",
			Items:  MDivgItems,
			Rounds: MDivgRounds,
			At: func(lane, round int) ocl.Access {
				// Strided sharing: in each iteration all lanes of a
				// workgroup touch the same small block, so an
				// in-sync workgroup reuses two cache lines per round
				// while a drifted one spreads across the window. Where
				// the block sits does not matter: every workgroup
				// starts with an empty cache.
				return ocl.Access{Addr: int64(round*32 + lane%32)}
			},
			BarrierEvery: barrier,
		}
	}
	noBar := dev.Run(strided(0)).TimeNS
	withBar := dev.Run(strided(1)).TimeNS
	return Speedup{Chip: ch.Name, Base: noBar, Optimised: withBar, Factor: noBar / withBar}
}

// TableX computes both microbenchmark rows for the given chips.
func TableX(chips []chip.Chip) (sgcmb, mdivg []Speedup) {
	for _, ch := range chips {
		sgcmb = append(sgcmb, SGCombine(ch, SGCmbN))
		mdivg = append(mdivg, MemDivergence(ch))
	}
	return sgcmb, mdivg
}

// UtilisationPoint is one point of Figure 5.
type UtilisationPoint struct {
	KernelNS    float64
	Utilisation float64 // fraction of wall time spent in kernels
}

// LaunchOverheadLaunches is the launch count of the Figure 5 procedure
// (the paper launches 10000 constant-time kernels).
const LaunchOverheadLaunches = 10000

// LaunchOverhead sweeps constant-time kernel durations and reports GPU
// utilisation: kernels of duration t launched back to back with a
// 4-byte copy between each, so utilisation = t / (t + launch + copy).
func LaunchOverhead(ch chip.Chip, kernelNS []float64) []UtilisationPoint {
	out := make([]UtilisationPoint, 0, len(kernelNS))
	for _, t := range kernelNS {
		total := float64(LaunchOverheadLaunches) * (t + ch.LaunchNS + ch.CopyNS)
		busy := float64(LaunchOverheadLaunches) * t
		out = append(out, UtilisationPoint{KernelNS: t, Utilisation: busy / total})
	}
	return out
}

// Figure5Sweep is the standard kernel-duration sweep (model ns).
func Figure5Sweep() []float64 {
	return []float64{1000, 3000, 10000, 30000, 100000, 300000, 1000000}
}
