package analysis

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"gpuport/internal/dataset"
	"gpuport/internal/opt"
	"gpuport/internal/stats"
)

// TestMedianBelowOne pins the count rule case by case: its answer is
// the paper's, stats.Median(xs) < 1, and it reads the median only when
// an even n splits at exactly half.
func TestMedianBelowOne(t *testing.T) {
	justBelow := math.Nextafter(1, 0) // 1−2⁻⁵³
	if m := stats.Median([]float64{justBelow, 1}); m != 1 {
		t.Fatalf("the rounding pair's median is %v, want exactly 1", m)
	}
	for _, c := range []struct {
		name string
		xs   []float64
		want bool
	}{
		{"n = 0", nil, false},
		{"odd, most below", []float64{0.5, 0.7, 2}, true},
		{"odd, below one short of half", []float64{0.5, 2, 3}, false},
		{"odd, half below then 1.0s", []float64{0.5, 1, 1}, false},
		{"odd, all 1.0", []float64{1, 1, 1}, false},
		{"even, most below", []float64{0.5, 0.6, 0.7, 1}, true},
		{"even, few below", []float64{0.5, 1, 1, 1}, false},
		{"even half, no 1.0, below 1.0", []float64{0.2, 1.5}, true},
		{"even half, no 1.0, exactly 1.0", []float64{0.5, 1.5}, false},
		{"even half, no 1.0, above 1.0", []float64{0.9, 1.3}, false},
		{"even half, 1.0s", []float64{0.5, 0.6, 1, 1}, true},
		{"even half, just below and 1.0", []float64{justBelow, 1}, false},
		{"even half, just below and above", []float64{0.25, justBelow, 1, 1.5}, false},
	} {
		nBelow := 0
		for _, x := range c.xs {
			if x < 1 {
				nBelow++
			}
		}
		n, read := len(c.xs), false
		got := medianBelowOne(n, nBelow, func() float64 {
			read = true
			return stats.Median(c.xs)
		})
		if paper := stats.Median(c.xs) < 1; got != c.want || got != paper {
			t.Errorf("%s: %v gives %v, want %v (median %v)", c.name, c.xs, got, c.want, stats.Median(c.xs))
		}
		if split := n%2 == 0 && nBelow == n/2; read != split {
			t.Errorf("%s: median read %v, want %v", c.name, read, split)
		}
	}
}

// medianRule is Algorithm 1 decided as the paper states it: every
// median selected (Index.OptsForPartition), and a confident flag
// enabled when its median is below 1.0. It counts the confident
// decisions whose counts meet at nBelow == n/2, where the count rule's
// cases part, and the partitions that enable both fg variants.
type medianRule struct {
	x               *Index
	boundary, twoFG int
}

func (m *medianRule) decide(tuples []dataset.Tuple) []FlagDecision {
	decs := m.x.OptsForPartition(tuples)
	tids := tupleIDs(m.x.d, tuples)
	for fi := range decs {
		dec := &decs[fi]
		dec.Enabled = dec.Confident && dec.MedianRatio < 1
		var n, nBelow int
		for _, tid := range tids {
			r := fi*m.x.nt + tid
			n += int(m.x.start[r+1] - m.x.start[r])
			nBelow += int(m.x.below[r])
		}
		if dec.Confident && nBelow == n/2 {
			m.boundary++
		}
	}
	if decs[opt.FlagFG1].Enabled && decs[opt.FlagFG8].Enabled {
		m.twoFG++
	}
	return decs
}

// eagerSamplingCurve is SamplingCurve with every partition decided by
// rule.decide: the same random subsets, scored the same way.
func eagerSamplingCurve(rule *medianRule, dims Dims, fractions []float64, trials int, seed uint64) []SamplingPoint {
	all := rule.x.tuples
	specialise := func(tuples []dataset.Tuple) *Specialisation {
		parts := map[PartitionKey][]dataset.Tuple{}
		for _, t := range tuples {
			parts[dims.keyFor(t)] = append(parts[dims.keyFor(t)], t)
		}
		s := &Specialisation{Dims: dims}
		for key, ts := range parts {
			s.Partitions = append(s.Partitions, Partition{Key: key, Tuples: ts, Decisions: rule.decide(ts)})
		}
		return s
	}
	full := decisionTable(specialise(all))
	rng := stats.NewRNG(seed)
	var out []SamplingPoint
	for _, frac := range fractions {
		n := min(max(int(frac*float64(len(all))+0.5), 1), len(all))
		pt := SamplingPoint{Fraction: frac, Trials: trials, MinAgreement: 1}
		var sumAgree, sumUndecided float64
		for trial := 0; trial < trials; trial++ {
			var sub []dataset.Tuple
			for _, k := range rng.Perm(len(all))[:n] {
				sub = append(sub, all[k])
			}
			agree, undecided := compareDecisions(full, specialise(sub))
			sumAgree += agree
			sumUndecided += undecided
			pt.MinAgreement = min(pt.MinAgreement, agree)
		}
		pt.MeanAgreement = sumAgree / float64(trials)
		pt.MeanUndecided = sumUndecided / float64(trials)
		out = append(out, pt)
	}
	return out
}

// randRuleDataset draws a dataset the way conform's analysis
// differential does, over up to 3 chips x 3 apps x 2 inputs: each tuple
// has its own per-flag effect, 1.0 among the likeliest, and noise
// level, zero included, so ungated ratios hold exact 1.0s and repeated
// values. Tuples and cells are dropped, cells carry 1-3 samples, some
// records are added twice, and the records arrive shuffled.
func randRuleDataset(r *stats.RNG) *dataset.Dataset {
	effects := []float64{0.6, 0.9, 1.0, 1.0, 1.0, 1.15, 1.6}
	noises := []float64{0, 0, 0.001, 0.02, 0.1}
	var recs []dataset.Record
	for _, t := range grid([]string{"c1", "c2", "c3"}[:1+r.Intn(3)], []string{"a1", "a2", "a3"}[:1+r.Intn(3)], []string{"i1", "i2"}[:1+r.Intn(2)]) {
		if r.Intn(5) == 0 {
			continue
		}
		var effect [7]float64
		for f := range effect {
			effect[f] = effects[r.Intn(len(effects))]
		}
		noise := noises[r.Intn(len(noises))]
		base := float64(100 * (1 + r.Intn(20)))
		for _, cfg := range opt.All() {
			if r.Intn(4) == 0 {
				continue
			}
			v := base
			for _, f := range cfg.EnabledFlags() {
				v *= effect[f]
			}
			for copies := 1 + r.Intn(8)/7; copies > 0; copies-- {
				samples := make([]float64, 1+r.Intn(3))
				for i := range samples {
					samples[i] = v * (1 + noise*(r.Float64()-0.5))
				}
				recs = append(recs, dataset.Record{Key: dataset.Key{Tuple: t, Config: cfg}, Samples: samples})
			}
		}
	}
	d := dataset.New()
	for _, i := range r.Perm(len(recs)) {
		d.Add(recs[i])
	}
	return d
}

// TestCountRuleMatchesMedians holds CrossValidate and SamplingCurve,
// which decide from counts and select no median but the fg tie-break's,
// to their results when every median is selected and decides, on
// gated and ungated indexes of random datasets. OptsForPartition over
// partitions that list tuples more than once must decide as the median
// does too. The data must reach the count rule's boundary and enable
// both fg variants, or the test proves nothing.
func TestCountRuleMatchesMedians(t *testing.T) {
	r := stats.NewRNG(37)
	var boundary, twoFG int
	for trial := 0; trial < 40; trial++ {
		d := randRuleDataset(r)
		for gi, x := range []*Index{NewIndex(d), newIndex(d, false)} {
			gated, rule := gi == 0, &medianRule{x: x}
			for _, dim := range []LOODimension{LOOApp, LOOInput, LOOChip} {
				want, _ := eagerCrossValidate(rule, dim)
				if err := diffLOO(x.CrossValidate(dim), want); err != nil {
					t.Fatalf("trial %d, gated %v, %s: %v", trial, gated, dim, err)
				}
			}
			for _, dims := range []Dims{{}, {Chip: true}, {App: true, Input: true}} {
				fractions := []float64{0.3, 0.7, 1}
				got, want := x.SamplingCurve(dims, fractions, 4, 9), eagerSamplingCurve(rule, dims, fractions, 4, 9)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, gated %v, %s sampling: got %+v, every median %+v", trial, gated, dims.Name(), got, want)
				}
			}
			var repeated []dataset.Tuple
			for _, tp := range x.tuples {
				for n := r.Intn(3); n > 0; n-- {
					repeated = append(repeated, tp)
				}
			}
			if got, want := x.OptsForPartition(repeated), rule.decide(repeated); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d, gated %v, repeated tuples: got %v, every median %v", trial, gated, got, want)
			}
			boundary += rule.boundary
			twoFG += rule.twoFG
		}
	}
	if boundary == 0 || twoFG == 0 {
		t.Errorf("%d confident decisions at nBelow == n/2, %d partitions with both fg enabled: want some of each", boundary, twoFG)
	}
}
