package analysis

import (
	"math"
	"math/bits"

	"gpuport/internal/dataset"
	"gpuport/internal/opt"
	"gpuport/internal/stats"
)

// ratioIndex holds what Algorithm 1 reads, computed once per analysis
// call: for every flag and every tuple the call covers, the tuple's
// mirror-pair ratios (enabled/disabled mean) that pass the gate, as
// one run of a single slab, with how many lie below and at 1.0. A
// partition's MWU test against its list of 1.0s then needs only the
// summed counts and the tie term (stats.MannWhitneyUOnes), and its
// median a selection over the gathered runs: no sort.
//
// The only tie groups other than the 1.0s come from a value occurring
// twice within one flag, or from a tuple listed twice (its ratios all
// repeat). dupes records the flags with such a value, so the tie term
// is counted only where a group can exist; on the study's datasets no
// flag has one.
//
// An index belongs to one call and is never shared: its scratch fields
// change as partitions are read.
type ratioIndex struct {
	nt    int       // runs exist for tuple IDs 0..nt-1
	vals  []float64 // run (fi, tid) is vals[start[fi*nt+tid]:start[fi*nt+tid+1]]
	start []int32
	below []int32 // per run: ratios below 1.0
	ones  []int32 // per run: ratios equal to 1.0
	dupes []bool  // per flag: some value other than 1.0 occurs twice

	// Scratch, reset after each use.
	seen []bool    // per tuple ID: indexed, or listed in the partition being read
	buf  []float64 // the partition's ratios for one flag
	ties tieCounter
}

// newRatioIndex indexes the tuples tids (repeats allowed), gated by the
// 95% CI significance test or not.
func newRatioIndex(d *dataset.Dataset, tids []int, gated bool) *ratioIndex {
	nt := 0
	for _, tid := range tids {
		nt = max(nt, tid+1)
	}
	flags := opt.Flags()
	x := &ratioIndex{
		nt:    nt,
		start: make([]int32, len(flags)*nt+1),
		below: make([]int32, len(flags)*nt),
		ones:  make([]int32, len(flags)*nt),
		dupes: make([]bool, len(flags)),
		seen:  make([]bool, nt),
	}
	for _, tid := range tids {
		x.seen[tid] = true
	}
	// A pair's two configs differ in the flag, so a flag has at most
	// NumConfigs/2 pairs per tuple.
	x.vals = make([]float64, 0, len(flags)*opt.NumConfigs/2*len(tids))
	for fi, f := range flags {
		pairs := opt.MirrorsOf(f)
		first := len(x.vals)
		for tid := 0; tid < nt; tid++ {
			r := fi*nt + tid
			x.start[r] = int32(len(x.vals))
			if !x.seen[tid] {
				continue
			}
			for p := 0; p < pairs.Len(); p++ {
				on, off := pairs.At(p)
				en, ok1 := d.Stat(tid, on)
				di, ok2 := d.Stat(tid, off)
				if !ok1 || !ok2 || (gated && !stats.Separated(en.CI, di.CI)) {
					continue
				}
				v := en.Mean / di.Mean
				switch {
				case v < 1:
					x.below[r]++
				case v == 1:
					x.ones[r]++
				}
				x.vals = append(x.vals, v)
			}
		}
		x.dupes[fi] = x.ties.sum(x.vals[first:]) > 0
	}
	x.start[len(flags)*nt] = int32(len(x.vals))
	clear(x.seen)
	return x
}

// decisions runs Algorithm 1's OPTS_FOR_PARTITION over the indexed
// tuples tids: for every flag, the MWU test of the partition's ratios
// against as many 1.0s, and their median. A repeated tuple counts once
// per occurrence.
func (x *ratioIndex) decisions(tids []int) []FlagDecision {
	repeats := false
	for _, tid := range tids {
		repeats = repeats || x.seen[tid]
		x.seen[tid] = true
	}
	for _, tid := range tids {
		x.seen[tid] = false
	}
	flags := opt.Flags()
	decisions := make([]FlagDecision, 0, len(flags))
	for fi, f := range flags {
		runs := x.start[fi*x.nt : (fi+1)*x.nt+1]
		below, ones := x.below[fi*x.nt:(fi+1)*x.nt], x.ones[fi*x.nt:(fi+1)*x.nt]
		x.buf = x.buf[:0]
		var nBelow, nOnes int
		for _, tid := range tids {
			x.buf = append(x.buf, x.vals[runs[tid]:runs[tid+1]]...)
			nBelow += int(below[tid])
			nOnes += int(ones[tid])
		}
		var ties int64
		if repeats || x.dupes[fi] {
			ties = x.ties.sum(x.buf)
		}
		n := len(x.buf)
		res := stats.MannWhitneyUOnes(nBelow, nOnes, n-nBelow-nOnes, n, ties)
		dec := FlagDecision{Flag: f, Comparisons: n, P: res.P, CL: res.CL}
		dec.MedianRatio = stats.MedianInPlace(x.buf)
		if res.Significant(Alpha) {
			dec.Confident = true
			dec.Enabled = dec.MedianRatio < 1.0
		}
		decisions = append(decisions, dec)
	}
	return decisions
}

// tieCounter counts values by their bits in an open-addressing table:
// a slice, so there is no map to range over, and far cheaper than a
// map or a sort for the one question it answers.
type tieCounter struct {
	keys []uint64
	cnt  []int64 // 0 marks an empty slot
}

// sum returns Σ(t³−t) over the tie groups of xs' values other than
// 1.0. Algorithm 1's ratios are positive and finite, so equal bits are
// equal values.
func (c *tieCounter) sum(xs []float64) int64 {
	shift := 64 - bits.Len(uint(2*len(xs))) // at least twice as many slots as values
	size := 1 << (64 - shift)
	if cap(c.cnt) < size {
		c.keys, c.cnt = make([]uint64, size), make([]int64, size)
	}
	keys, cnt := c.keys[:size], c.cnt[:size]
	clear(cnt)
	one := math.Float64bits(1)
	for _, v := range xs {
		k := math.Float64bits(v)
		if k == one {
			continue
		}
		i := (k * 0x9e3779b97f4a7c15) >> shift // Fibonacci hashing
		for cnt[i] != 0 && keys[i] != k {
			i = (i + 1) & uint64(size-1)
		}
		keys[i] = k
		cnt[i]++
	}
	var sum int64
	for _, t := range cnt {
		sum += t*t*t - t
	}
	return sum
}
