package analysis

import (
	"sort"

	"gpuport/internal/dataset"
	"gpuport/internal/opt"
	"gpuport/internal/stats"
)

// Outcome classifies one test under a strategy relative to baseline.
type Outcome int

const (
	// NoChange means the difference was not statistically significant.
	NoChange Outcome = iota
	// Speedup means a significant improvement over baseline.
	Speedup
	// Slowdown means a significant regression.
	Slowdown
)

// Classify compares the samples of cfg against baseline on tuple t:
// significant (95% CI) and faster -> Speedup; significant and slower ->
// Slowdown; otherwise NoChange. The returned ratio is baseline mean /
// cfg mean (above 1.0 means cfg is faster).
func Classify(d *dataset.Dataset, t dataset.Tuple, cfg opt.Config) (Outcome, float64) {
	tid, ok1 := d.TupleID(t)
	cid, ok2 := cfg.ID()
	if !ok1 || !ok2 {
		return NoChange, 1
	}
	return classify(d, tid, cid)
}

// classify is Classify over a tuple ID and a config ID, reading the
// cells' cached means and confidence intervals.
func classify(d *dataset.Dataset, tid, cid int) (Outcome, float64) {
	base, ok1 := d.Stat(tid, 0)
	cur, ok2 := d.Stat(tid, cid)
	if !ok1 || !ok2 {
		return NoChange, 1
	}
	ratio := base.Mean / cur.Mean
	if cid == 0 || !stats.Separated(base.CI, cur.CI) {
		return NoChange, ratio
	}
	if ratio > 1 {
		return Speedup, ratio
	}
	return Slowdown, ratio
}

// Improvable reports whether any configuration yields a significant
// speedup over baseline on t. The paper excludes the ~43% of tests
// where no optimisation helps from its strategy comparison (Figure 3).
func Improvable(d *dataset.Dataset, t dataset.Tuple) bool {
	tid, ok := d.TupleID(t)
	return ok && improvable(d, tid)
}

// improvable is Improvable over a tuple ID.
func improvable(d *dataset.Dataset, tid int) bool {
	for cid := 1; cid < opt.NumConfigs; cid++ {
		if out, _ := classify(d, tid, cid); out == Speedup {
			return true
		}
	}
	return false
}

// StrategyEval summarises one strategy across a test set (the data
// behind Figures 3 and 4).
type StrategyEval struct {
	Name string
	// Speedups / Slowdowns / NoChanges count classified tests.
	Speedups, Slowdowns, NoChanges int
	// GeoMeanVsBaseline is the geometric mean of baseline/strategy
	// runtimes (above 1 = strategy faster on average).
	GeoMeanVsBaseline float64
	// GeoMeanSlowdownVsOracle is the geometric mean of strategy/oracle
	// runtimes (1.0 = oracle-equal; Figure 4's metric).
	GeoMeanSlowdownVsOracle float64
	// MaxSpeedup is the best single-test improvement over baseline.
	MaxSpeedup float64
}

// Tests returns the number of classified tests.
func (e StrategyEval) Tests() int { return e.Speedups + e.Slowdowns + e.NoChanges }

// evaluate scores one strategy over the given tuples: tids[i] is
// tuples[i]'s ID in d, or -1 when d has no records for it.
func evaluate(d *dataset.Dataset, s *Strategy, oracle *Strategy, tuples []dataset.Tuple, tids []int) StrategyEval {
	ev := StrategyEval{Name: s.Name, MaxSpeedup: 1}
	vsBase := make([]float64, 0, len(tuples))
	vsOracle := make([]float64, 0, len(tuples))
	for i, t := range tuples {
		tid := tids[i]
		cid, okS := s.Config(t).ID()
		ocid, okO := oracle.Config(t).ID()
		out, ratio := NoChange, 1.0
		if tid >= 0 && okS {
			out, ratio = classify(d, tid, cid)
		}
		switch out {
		case Speedup:
			ev.Speedups++
		case Slowdown:
			ev.Slowdowns++
		default:
			ev.NoChanges++
		}
		vsBase = append(vsBase, ratio)
		if ratio > ev.MaxSpeedup {
			ev.MaxSpeedup = ratio
		}
		if tid < 0 || !okS || !okO {
			continue
		}
		sm, ok1 := d.Stat(tid, cid)
		om, ok2 := d.Stat(tid, ocid)
		if ok1 && ok2 && om.Mean > 0 {
			vsOracle = append(vsOracle, sm.Mean/om.Mean)
		}
	}
	ev.GeoMeanVsBaseline = stats.GeoMean(vsBase)
	ev.GeoMeanSlowdownVsOracle = stats.GeoMean(vsOracle)
	return ev
}

// EvaluateAll evaluates the given strategies over the improvable subset
// of d's tuples (the paper's Figure 3 / Figure 4 protocol). It returns
// the evaluations in the order the strategies were given, plus the
// number of excluded (non-improvable) tuples.
func EvaluateAll(d *dataset.Dataset, strategies []*Strategy) ([]StrategyEval, int) {
	oracle := findOracle(strategies, d)
	var tuples []dataset.Tuple
	var tids []int
	excluded := 0
	for _, t := range d.Tuples() {
		if tid, _ := d.TupleID(t); improvable(d, tid) {
			tuples = append(tuples, t)
			tids = append(tids, tid)
		} else {
			excluded++
		}
	}
	evals := make([]StrategyEval, 0, len(strategies))
	for _, s := range strategies {
		evals = append(evals, evaluate(d, s, oracle, tuples, tids))
	}
	return evals, excluded
}

func findOracle(strategies []*Strategy, d *dataset.Dataset) *Strategy {
	for _, s := range strategies {
		if s.Name == "oracle" {
			return s
		}
	}
	return Oracle(d)
}

// ConfigRank is one row of the paper's Table III: a configuration
// applied globally, scored by how many tests it harms.
type ConfigRank struct {
	Rank      int
	Config    opt.Config
	Slowdowns int
	Speedups  int
	// GeoMean is baseline/config across all tuples (above 1 = good).
	GeoMean float64
	// MaxSpeedup is the best single-test improvement.
	MaxSpeedup float64
}

// RankConfigs scores every non-baseline configuration globally and
// ranks by ascending slowdown count (ties by descending speedups, then
// geomean). This reproduces Table III and exposes why "do no harm" and
// "fewest slowdowns" fail as portable-policy constructions.
func RankConfigs(d *dataset.Dataset) []ConfigRank {
	tids := tupleIDs(d, d.Tuples())
	var out []ConfigRank
	for cid := 1; cid < opt.NumConfigs; cid++ {
		r := ConfigRank{Config: opt.ByID(cid), MaxSpeedup: 1}
		ratios := make([]float64, 0, len(tids))
		for _, tid := range tids {
			outc, ratio := classify(d, tid, cid)
			switch outc {
			case Speedup:
				r.Speedups++
			case Slowdown:
				r.Slowdowns++
			}
			ratios = append(ratios, ratio)
			if ratio > r.MaxSpeedup {
				r.MaxSpeedup = ratio
			}
		}
		r.GeoMean = stats.GeoMean(ratios)
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Slowdowns != b.Slowdowns {
			return a.Slowdowns < b.Slowdowns
		}
		if a.Speedups != b.Speedups {
			return a.Speedups > b.Speedups
		}
		return a.GeoMean > b.GeoMean
	})
	for i := range out {
		out[i].Rank = i
	}
	return out
}

// MaxGeoMeanConfig returns the ranked configuration with the highest
// global geomean (the flawed "maximise geomean" policy of Section II-C).
func MaxGeoMeanConfig(ranks []ConfigRank) ConfigRank {
	best := ranks[0]
	for _, r := range ranks[1:] {
		if r.GeoMean > best.GeoMean {
			best = r
		}
	}
	return best
}

// ChipCounts is one row of Table IV: per-chip outcome counts for a
// configuration applied to every (app, input) pair on that chip.
type ChipCounts struct {
	Chip       string
	Speedups   int
	Slowdowns  int
	NoChanges  int
	GeoMean    float64
	MaxSpeedup float64
}

// PerChipCounts scores cfg on each chip separately, exposing the
// per-chip bias that global magnitude-based metrics hide (Table IV).
func PerChipCounts(d *dataset.Dataset, cfg opt.Config) []ChipCounts {
	var out []ChipCounts
	for _, chipName := range d.Chips() {
		cc := ChipCounts{Chip: chipName, MaxSpeedup: 1}
		var ratios []float64
		for _, t := range d.Tuples() {
			if t.Chip != chipName {
				continue
			}
			outc, ratio := Classify(d, t, cfg)
			switch outc {
			case Speedup:
				cc.Speedups++
			case Slowdown:
				cc.Slowdowns++
			default:
				cc.NoChanges++
			}
			ratios = append(ratios, ratio)
			if ratio > cc.MaxSpeedup {
				cc.MaxSpeedup = ratio
			}
		}
		cc.GeoMean = stats.GeoMean(ratios)
		out = append(out, cc)
	}
	return out
}
