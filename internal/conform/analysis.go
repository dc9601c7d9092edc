package conform

import (
	"fmt"
	"math"
	"sort"

	"gpuport/internal/analysis"
	"gpuport/internal/dataset"
	"gpuport/internal/opt"
	"gpuport/internal/stats"
)

// The analysis differential: internal/analysis runs Algorithm 1 over
// dense tuple and config IDs and the per-cell statistics the dataset
// caches at Add. The reference below is the string-keyed Algorithm 1
// that layout replaced, kept the way cost.Estimate serves the columnar
// engine: every comparison looks its samples up by key and recomputes
// their statistics, and the MWU A list stays in (flag, setting, tuple)
// order, unsorted. Random partial datasets - dropped tuples, dropped
// cells, ragged sample counts, replaced records, shuffled insertion -
// must get bit-identical decisions from both, since coverage holes are
// where an index bug would change a verdict.

// refOptsForPartition is the reference Algorithm 1 (OPTS_FOR_PARTITION).
func refOptsForPartition(d *dataset.Dataset, tuples []dataset.Tuple, gated bool) []analysis.FlagDecision {
	decisions := make([]analysis.FlagDecision, 0, len(opt.Flags()))
	for _, f := range opt.Flags() {
		var a, b []float64
		for _, os := range opt.SettingsWith(f) {
			dis := os.With(f, false)
			for _, t := range tuples {
				en := d.Samples(t, os)
				di := d.Samples(t, dis)
				if en == nil || di == nil {
					continue
				}
				if gated && !stats.SignificantlyDifferent(en, di) {
					continue
				}
				a = append(a, stats.Mean(en)/stats.Mean(di))
				b = append(b, 1.0)
			}
		}
		dec := analysis.FlagDecision{Flag: f, Comparisons: len(a)}
		res := stats.MannWhitneyU(a, b)
		dec.P = res.P
		dec.CL = res.CL
		dec.MedianRatio = stats.Median(a)
		if res.Significant(analysis.Alpha) {
			dec.Confident = true
			dec.Enabled = dec.MedianRatio < 1.0
		}
		decisions = append(decisions, dec)
	}
	return decisions
}

// refClassify is the reference analysis.Classify.
func refClassify(d *dataset.Dataset, t dataset.Tuple, cfg opt.Config) (analysis.Outcome, float64) {
	base := d.Samples(t, opt.Config{})
	cur := d.Samples(t, cfg)
	if base == nil || cur == nil {
		return analysis.NoChange, 1
	}
	ratio := stats.Mean(base) / stats.Mean(cur)
	if cfg.IsBaseline() || !stats.SignificantlyDifferent(base, cur) {
		return analysis.NoChange, ratio
	}
	if ratio > 1 {
		return analysis.Speedup, ratio
	}
	return analysis.Slowdown, ratio
}

// refImprovable is the reference analysis.Improvable.
func refImprovable(d *dataset.Dataset, t dataset.Tuple) bool {
	for _, cfg := range opt.NonBaseline() {
		if out, _ := refClassify(d, t, cfg); out == analysis.Speedup {
			return true
		}
	}
	return false
}

// partialDataset is a random dataset plus the map-keyed account of
// what was added: the final samples per key and the keys in insertion
// order.
type partialDataset struct {
	d     *dataset.Dataset
	cells map[dataset.Key][]float64
	added []dataset.Key
	grid  []dataset.Tuple // every tuple the dimensions span, dropped ones included
}

// randPartialDataset draws a dataset over up to 3 chips x 3 apps x 2
// inputs. Each tuple has its own per-flag effect and noise level;
// tuples and cells are dropped at random, cells carry 1-3 samples,
// some are added twice (the second record replaces the first), and the
// whole record stream is shuffled. Noise-free tuples make exact ties.
func randPartialDataset(r *stats.RNG) *partialDataset {
	names := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, r.Intn(10))
		}
		return out
	}
	effects := []float64{0.6, 0.9, 1.0, 1.0, 1.0, 1.15, 1.6}
	noises := []float64{0, 0.001, 0.02, 0.1}
	pd := &partialDataset{d: dataset.New(), cells: map[dataset.Key][]float64{}}
	var recs []dataset.Record
	seen := map[dataset.Tuple]bool{}
	for _, ch := range names("chip", 1+r.Intn(3)) {
		for _, app := range names("app", 1+r.Intn(3)) {
			for _, in := range names("in", 1+r.Intn(2)) {
				t := dataset.Tuple{Chip: ch, App: app, Input: in}
				if seen[t] {
					continue
				}
				seen[t] = true
				pd.grid = append(pd.grid, t)
				if r.Intn(5) == 0 {
					continue // dropped tuple
				}
				var effect [7]float64
				for f := range effect {
					effect[f] = effects[r.Intn(len(effects))]
				}
				noise := noises[r.Intn(len(noises))]
				base := float64(100 * (1 + r.Intn(20)))
				for _, cfg := range opt.All() {
					if r.Intn(4) == 0 {
						continue // dropped cell
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
		}
	}
	for _, i := range r.Perm(len(recs)) {
		rec := recs[i]
		if _, ok := pd.cells[rec.Key]; !ok {
			pd.added = append(pd.added, rec.Key)
		}
		pd.cells[rec.Key] = rec.Samples
		pd.d.Add(rec)
	}
	return pd
}

// refTuples is the reference Dataset.Tuples: the distinct tuples in
// insertion order, then sorted by chip, app and input.
func (pd *partialDataset) refTuples() []dataset.Tuple {
	seen := map[dataset.Tuple]bool{}
	var out []dataset.Tuple
	for _, k := range pd.added {
		if !seen[k.Tuple] {
			seen[k.Tuple] = true
			out = append(out, k.Tuple)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Chip != out[j].Chip {
			return out[i].Chip < out[j].Chip
		}
		if out[i].App != out[j].App {
			return out[i].App < out[j].App
		}
		return out[i].Input < out[j].Input
	})
	return out
}

// checkAnalysisDifferential runs the dense analysis and the reference
// over random partial datasets: the dataset must hold exactly the
// samples added (against a map), Tuples must keep the reference order,
// and every FlagDecision of every partition at every specialisation,
// gated and ungated - plus random tuple subsets with duplicates and
// unknown tuples - must match field for field, floats by their bits,
// as must Classify over the whole grid and Improvable. The engine
// parameter is ignored.
func checkAnalysisDifferential(_ engine, r *stats.RNG, trials int) error {
	for t := 0; t < trials; t++ {
		if err := diffAnalysis(randPartialDataset(r), r); err != nil {
			return fmt.Errorf("trial %d: %v", t, err)
		}
	}
	return nil
}

func diffAnalysis(pd *partialDataset, r *stats.RNG) error {
	d := pd.d
	if d.Len() != len(pd.added) {
		return fmt.Errorf("dataset holds %d records, %d keys were added", d.Len(), len(pd.added))
	}
	ghost := dataset.Tuple{Chip: "ghost", App: "app0", Input: "in0"}
	for _, t := range append(pd.grid, ghost) {
		for _, cfg := range opt.All() {
			want, got := pd.cells[dataset.Key{Tuple: t, Config: cfg}], d.Samples(t, cfg)
			if len(got) != len(want) || (got == nil) != (want == nil) || (len(got) > 0 && &got[0] != &want[0]) {
				return fmt.Errorf("%v under %v: Samples %v, added %v", t, cfg, got, want)
			}
		}
	}
	tuples, want := d.Tuples(), pd.refTuples()
	if fmt.Sprint(tuples) != fmt.Sprint(want) {
		return fmt.Errorf("Tuples() = %v, reference order %v", tuples, want)
	}
	for _, gated := range []bool{true, false} {
		specialise := analysis.Specialise
		if !gated {
			specialise = analysis.SpecialiseUngated
		}
		for _, dims := range analysis.AllDims() {
			for _, p := range specialise(d, dims).Partitions {
				if err := diffDecisions(p.Decisions, refOptsForPartition(d, p.Tuples, gated)); err != nil {
					return fmt.Errorf("%s (gated=%v) partition %s: %v", dims.Name(), gated, p.Key, err)
				}
			}
		}
	}
	// A partition list as CrossValidate or SamplingCurve might pass it:
	// a random subset, possibly with repeats and unknown tuples.
	var subset []dataset.Tuple
	for _, t := range append(pd.grid, ghost) {
		for n := r.Intn(3); n > 0; n-- {
			subset = append(subset, t)
		}
	}
	if err := diffDecisions(analysis.OptsForPartition(d, subset), refOptsForPartition(d, subset, true)); err != nil {
		return fmt.Errorf("OptsForPartition over %v: %v", subset, err)
	}
	for _, t := range append(tuples, ghost) {
		for _, cfg := range opt.All() {
			out, ratio := analysis.Classify(d, t, cfg)
			refOut, refRatio := refClassify(d, t, cfg)
			if out != refOut || math.Float64bits(ratio) != math.Float64bits(refRatio) {
				return fmt.Errorf("Classify(%v, %v) = %v, %x; reference %v, %x", t, cfg, out, ratio, refOut, refRatio)
			}
		}
		if got, want := analysis.Improvable(d, t), refImprovable(d, t); got != want {
			return fmt.Errorf("Improvable(%v) = %v, reference %v", t, got, want)
		}
	}
	return nil
}

// diffDecisions names the first field where got and want differ,
// comparing floats by their bits (hex, so one-ulp differences show).
func diffDecisions(got, want []analysis.FlagDecision) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d decisions, reference %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		same := g.Flag == w.Flag && g.Enabled == w.Enabled && g.Confident == w.Confident &&
			g.Comparisons == w.Comparisons &&
			math.Float64bits(g.P) == math.Float64bits(w.P) &&
			math.Float64bits(g.CL) == math.Float64bits(w.CL) &&
			math.Float64bits(g.MedianRatio) == math.Float64bits(w.MedianRatio)
		if !same {
			return fmt.Errorf("flag %v: got {enabled %v confident %v n %d P %x CL %x median %x}, reference {enabled %v confident %v n %d P %x CL %x median %x}",
				w.Flag, g.Enabled, g.Confident, g.Comparisons, g.P, g.CL, g.MedianRatio,
				w.Enabled, w.Confident, w.Comparisons, w.P, w.CL, w.MedianRatio)
		}
	}
	return nil
}
