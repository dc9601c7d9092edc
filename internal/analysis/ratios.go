package analysis

import (
	"math"
	"math/bits"

	"gpuport/internal/dataset"
	"gpuport/internal/opt"
	"gpuport/internal/stats"
)

// Index holds what Algorithm 1 reads of one dataset, built once by
// NewIndex: for every flag and every tuple, the tuple's mirror-pair
// ratios (enabled/disabled mean) that pass the gate, as one run of a
// single slab, with how many lie below and at 1.0. A partition's MWU
// test against its list of 1.0s then needs only the summed counts and
// the tie term (stats.MannWhitneyUOnes), and whether its median is
// below 1.0 only the counts, bar one even split (medianBelowOne). A
// median, where a caller reads one, is a selection over the gathered
// runs: no sort.
//
// The only tie groups other than the 1.0s come from a value occurring
// twice within one flag, or from a tuple listed twice (its ratios all
// repeat). dupes records the flags with such a value, so the tie term
// is counted only where a group can exist; on the study's datasets no
// flag has one. A partition reads only its own tuples' runs, and a
// flag marked by tuples outside it only costs a tie count of 0, so one
// index serves every partition of every analysis of the dataset.
//
// An Index is read-only once built. Each method reads it through a
// call-local reader holding its scratch, so concurrent calls are safe.
type Index struct {
	d      *dataset.Dataset
	tuples []dataset.Tuple // d.Tuples()
	tids   []int           // tids[k] is tuples[k]'s tuple ID

	nt    int       // runs exist for tuple IDs 0..nt-1
	vals  []float64 // run (fi, tid) is vals[start[fi*nt+tid]:start[fi*nt+tid+1]]
	start []int32
	below []int32 // per run: ratios below 1.0
	ones  []int32 // per run: ratios equal to 1.0
	dupes []bool  // per flag: some value other than 1.0 occurs twice
}

// NewIndex indexes every tuple of d, gated by the 95% CI significance
// test as Algorithm 1 is. The index reads d as it is now, so d must not
// change while the index is in use.
func NewIndex(d *dataset.Dataset) *Index { return newIndex(d, true) }

// newIndex indexes every tuple of d, gated or not.
func newIndex(d *dataset.Dataset, gated bool) *Index {
	tuples := d.Tuples()
	nt := len(tuples) // tuple IDs are dense
	flags := opt.Flags()
	x := &Index{
		d:      d,
		tuples: tuples,
		tids:   tupleIDs(d, tuples),
		nt:     nt,
		start:  make([]int32, len(flags)*nt+1),
		below:  make([]int32, len(flags)*nt),
		ones:   make([]int32, len(flags)*nt),
		dupes:  make([]bool, len(flags)),
	}
	// A pair's two configs differ in the flag, so a flag has at most
	// NumConfigs/2 pairs per tuple.
	x.vals = make([]float64, 0, len(flags)*opt.NumConfigs/2*nt)
	var ties tieCounter
	for fi, f := range flags {
		pairs := opt.MirrorsOf(f)
		first := len(x.vals)
		for tid := 0; tid < nt; tid++ {
			r := fi*nt + tid
			x.start[r] = int32(len(x.vals))
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
		x.dupes[fi] = ties.sum(x.vals[first:]) > 0
	}
	x.start[len(flags)*nt] = int32(len(x.vals))
	return x
}

// positions returns the positions in the index's tuple list of the
// tuples keep accepts, or of every tuple for a nil keep.
func (x *Index) positions(keep func(dataset.Tuple) bool) []int {
	out := make([]int, 0, len(x.tuples))
	for k, t := range x.tuples {
		if keep == nil || keep(t) {
			out = append(out, k)
		}
	}
	return out
}

// reader is one call's view of an Index: the scratch its reads reuse.
type reader struct {
	*Index
	medians bool      // select every flag's median: the caller returns the decisions
	seen    []bool    // per tuple ID: listed in the partition being read
	buf     []float64 // the partition's ratios for flag bufFlag
	bufFlag int       // the flag position buf holds, or -1
	ids     []int     // the partition's tuple IDs
	ties    tieCounter
}

// reader returns a reader of x. Only a caller that hands decisions out
// reads every median, so only it asks for them; the others get the
// medians configFromDecisions reads and no more.
func (x *Index) reader(medians bool) *reader {
	return &reader{Index: x, medians: medians, seen: make([]bool, x.nt)}
}

// decisions runs Algorithm 1's OPTS_FOR_PARTITION over the tuples tids:
// for every flag, the MWU test of the partition's ratios against as
// many 1.0s, and where the test is significant, whether their median
// is below 1.0. The counts decide that (medianBelowOne), so a
// partition's ratios are gathered only to count a tie term, to select
// a median the caller reads, or in the rare split the counts leave
// open. A median not selected reads NaN. A repeated tuple counts once
// per occurrence.
func (r *reader) decisions(tids []int) []FlagDecision {
	repeats := false
	for _, tid := range tids {
		repeats = repeats || r.seen[tid]
		r.seen[tid] = true
	}
	for _, tid := range tids {
		r.seen[tid] = false
	}
	r.bufFlag = -1
	flags := opt.Flags()
	decisions := make([]FlagDecision, 0, len(flags))
	for fi, f := range flags {
		runs := r.start[fi*r.nt : (fi+1)*r.nt+1]
		below, ones := r.below[fi*r.nt:(fi+1)*r.nt], r.ones[fi*r.nt:(fi+1)*r.nt]
		var n, nBelow, nOnes int
		for _, tid := range tids {
			n += int(runs[tid+1] - runs[tid])
			nBelow += int(below[tid])
			nOnes += int(ones[tid])
		}
		var ties int64
		if repeats || r.dupes[fi] {
			ties = r.ties.sum(r.ratios(fi, tids))
		}
		res := stats.MannWhitneyUOnes(nBelow, nOnes, n-nBelow-nOnes, n, ties)
		dec := FlagDecision{Flag: f, Comparisons: n, P: res.P, CL: res.CL, MedianRatio: math.NaN()}
		median := func() float64 { return stats.MedianInPlace(r.ratios(fi, tids)) }
		if r.medians {
			dec.MedianRatio = median()
		}
		if res.Significant(Alpha) {
			dec.Confident = true
			dec.Enabled = medianBelowOne(n, nBelow, median)
		}
		decisions = append(decisions, dec)
	}
	if fg1, fg8 := &decisions[opt.FlagFG1], &decisions[opt.FlagFG8]; !r.medians && fg1.Enabled && fg8.Enabled {
		// configFromDecisions keeps the fg variant with the smaller median.
		fg1.MedianRatio = stats.MedianInPlace(r.ratios(int(opt.FlagFG1), tids))
		fg8.MedianRatio = stats.MedianInPlace(r.ratios(int(opt.FlagFG8), tids))
	}
	return decisions
}

// medianBelowOne reports whether the median of n ratios, nBelow of them
// below 1.0, is below 1.0: Algorithm 1's condition for enabling a flag.
// With k = n/2, the median is below 1.0 when nBelow > k, and not when
// nBelow < k or when n is odd and nBelow == k, whatever the values.
// Only an even n split at exactly half leaves it open: the median is
// then (max below + min at or above)/2, which can round up to 1.0, so
// only then is median called for the value.
func medianBelowOne(n, nBelow int, median func() float64) bool {
	switch k := n / 2; {
	case nBelow != k:
		return nBelow > k
	case n%2 == 1:
		return false
	}
	return median() < 1
}

// ratios returns the partition's ratios for the flag at position fi,
// gathered into r.buf unless it already holds them. Selecting a median
// reorders them, which changes neither a median nor a tie term.
func (r *reader) ratios(fi int, tids []int) []float64 {
	if r.bufFlag != fi {
		runs := r.start[fi*r.nt : (fi+1)*r.nt+1]
		r.buf = r.buf[:0]
		for _, tid := range tids {
			r.buf = append(r.buf, r.vals[runs[tid]:runs[tid+1]]...)
		}
		r.bufFlag = fi
	}
	return r.buf
}

// decisionsAt runs decisions over the tuples at positions ks.
func (r *reader) decisionsAt(ks []int) []FlagDecision {
	r.ids = r.ids[:0]
	for _, k := range ks {
		r.ids = append(r.ids, r.tids[k])
	}
	return r.decisions(r.ids)
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
