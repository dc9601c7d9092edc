package analysis

import (
	"gpuport/internal/dataset"
	"gpuport/internal/opt"
	"gpuport/internal/stats"
)

// Heatmap is the Figure 1 structure: Cell[i][j] is the geomean slowdown
// suffered by chip Rows[i] when running with the optimisation settings
// that are optimal for chip Cols[j] (diagonal = 1.0).
type Heatmap struct {
	Rows, Cols []string
	Cell       [][]float64
	// ColMean[j] is the geomean of column j over all rows (the paper's
	// bottom row); RowMean[i] the geomean over row i (right column).
	ColMean []float64
	RowMean []float64
	// ColMeanOffDiag[j] excludes the diagonal: the geomean slowdown a
	// chip-specialised strategy causes on the *other* chips.
	ColMeanOffDiag []float64
}

// CrossChipHeatmap computes Figure 1: per-tuple optimal configurations
// for each chip, cross-applied to every other chip.
func CrossChipHeatmap(d *dataset.Dataset) *Heatmap {
	chips := d.Chips()
	n := len(chips)

	// bestFor[chip][app/input pair] = that chip's optimal config.
	type pair struct{ app, input string }
	bestFor := make(map[string]map[pair]opt.Config, n)
	for _, c := range chips {
		bestFor[c] = map[pair]opt.Config{}
	}
	for _, t := range d.Tuples() {
		if cfg, _, ok := d.BestConfig(t); ok {
			bestFor[t.Chip][pair{t.App, t.Input}] = cfg
		}
	}

	h := &Heatmap{Rows: chips, Cols: chips}
	h.Cell = make([][]float64, n)
	for i, run := range chips {
		h.Cell[i] = make([]float64, n)
		for j, from := range chips {
			var ratios []float64
			for _, t := range d.Tuples() {
				if t.Chip != run {
					continue
				}
				p := pair{t.App, t.Input}
				own, okOwn := bestFor[run][p]
				other, okOther := bestFor[from][p]
				if !okOwn || !okOther {
					continue
				}
				mOwn, ok1 := d.Mean(t, own)
				mOther, ok2 := d.Mean(t, other)
				if !ok1 || !ok2 || mOwn <= 0 {
					continue
				}
				ratios = append(ratios, mOther/mOwn)
			}
			h.Cell[i][j] = stats.GeoMean(ratios)
		}
	}

	h.ColMean = make([]float64, n)
	h.ColMeanOffDiag = make([]float64, n)
	h.RowMean = make([]float64, n)
	for j := range chips {
		var all, off []float64
		for i := range chips {
			all = append(all, h.Cell[i][j])
			if i != j {
				off = append(off, h.Cell[i][j])
			}
		}
		h.ColMean[j] = stats.GeoMean(all)
		h.ColMeanOffDiag[j] = stats.GeoMean(off)
	}
	for i := range chips {
		h.RowMean[i] = stats.GeoMean(h.Cell[i])
	}
	return h
}

// Extreme is one row of Table II: the largest optimisation-induced
// speedup and slowdown observed on a chip, with their environments.
type Extreme struct {
	Chip string

	MaxSpeedup   float64
	SpeedupApp   string
	SpeedupInput string
	SpeedupCfg   opt.Config

	MaxSlowdown   float64 // expressed as a factor >= 1 (e.g. 22 means 22x slower)
	SlowdownApp   string
	SlowdownInput string
	SlowdownCfg   opt.Config
}

// Extremes computes Table II: per chip, the best and worst single-test
// configuration effects relative to baseline.
func Extremes(d *dataset.Dataset) []Extreme {
	tuples := d.Tuples()
	tids := tupleIDs(d, tuples)
	var out []Extreme
	for _, c := range d.Chips() {
		e := Extreme{Chip: c, MaxSpeedup: 1, MaxSlowdown: 1}
		for k, t := range tuples {
			if t.Chip != c {
				continue
			}
			base, ok := d.Stat(tids[k], 0)
			if !ok {
				continue
			}
			for cid := 1; cid < opt.NumConfigs; cid++ {
				m, ok := d.Stat(tids[k], cid)
				if !ok || m.Mean <= 0 {
					continue
				}
				if sp := base.Mean / m.Mean; sp > e.MaxSpeedup {
					e.MaxSpeedup = sp
					e.SpeedupApp, e.SpeedupInput, e.SpeedupCfg = t.App, t.Input, opt.ByID(cid)
				}
				if sl := m.Mean / base.Mean; sl > e.MaxSlowdown {
					e.MaxSlowdown = sl
					e.SlowdownApp, e.SlowdownInput, e.SlowdownCfg = t.App, t.Input, opt.ByID(cid)
				}
			}
		}
		out = append(out, e)
	}
	return out
}

// MaxOracleGeoMean returns the geometric mean speedup of the oracle
// over baseline across all tuples - the "maximum geomean speedup
// queried from our dataset" of Section II-B.
func MaxOracleGeoMean(d *dataset.Dataset) float64 {
	var ratios []float64
	for _, t := range d.Tuples() {
		base, ok1 := d.Mean(t, opt.Config{})
		_, best, ok2 := d.BestConfig(t)
		if ok1 && ok2 && best > 0 {
			ratios = append(ratios, base/best)
		}
	}
	return stats.GeoMean(ratios)
}

// FlagFrequency counts, per chip, in how many (app, input) tests each
// flag participates in the oracle (top-speedup) configuration - the
// data behind Figure 2.
type FlagFrequency struct {
	Chip string
	// Count[f] = number of tests whose oracle config enables flag f.
	Count map[opt.Flag]int
	// Tests is the number of tests with a strict oracle speedup.
	Tests int
}

// TopSpeedupOpts computes Figure 2: which optimisations appear in the
// per-test optimal configurations, chip by chip. Only tests whose
// oracle configuration significantly beats baseline are counted.
func TopSpeedupOpts(d *dataset.Dataset) []FlagFrequency {
	var out []FlagFrequency
	for _, c := range d.Chips() {
		ff := FlagFrequency{Chip: c, Count: map[opt.Flag]int{}}
		for _, t := range d.Tuples() {
			if t.Chip != c {
				continue
			}
			cfg, _, ok := d.BestConfig(t)
			if !ok || cfg.IsBaseline() {
				continue
			}
			if outc, _ := Classify(d, t, cfg); outc != Speedup {
				continue
			}
			ff.Tests++
			for _, f := range cfg.EnabledFlags() {
				ff.Count[f]++
			}
		}
		out = append(out, ff)
	}
	return out
}
