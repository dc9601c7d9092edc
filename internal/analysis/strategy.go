// Package analysis implements the paper's core contribution: a
// magnitude-agnostic, rank-based methodology that consumes the study's
// empirical dataset and produces optimisation strategies at every
// degree of specialisation between "baseline" (never optimise) and
// "oracle" (per-test best), quantifying the performance cost of
// portability along the way.
//
// The centrepiece is Algorithm 1 of the paper (OptsForPartition here):
// for each optimisation flag, mirror-pair configurations differing only
// in that flag are compared per test under a 95% confidence-interval
// significance gate; the surviving normalised runtimes are tested
// against 1.0 with the Mann-Whitney U rank test, and the flag is
// enabled only on a statistically significant median speedup.
package analysis

import (
	"fmt"
	"sort"

	"gpuport/internal/dataset"
	"gpuport/internal/opt"
)

// Alpha is the significance level used throughout the study.
const Alpha = 0.05

// Dims selects which environment dimensions a strategy specialises on.
// The zero value is the fully-portable "global" strategy.
type Dims struct {
	Chip  bool
	App   bool
	Input bool
}

// Name returns the paper's name for the specialisation: "global" for
// none, else the underscore-joined dimension list (e.g. "chip_app").
func (d Dims) Name() string {
	var parts []string
	if d.Chip {
		parts = append(parts, "chip")
	}
	if d.App {
		parts = append(parts, "app")
	}
	if d.Input {
		parts = append(parts, "input")
	}
	if len(parts) == 0 {
		return "global"
	}
	name := parts[0]
	for _, p := range parts[1:] {
		name += "_" + p
	}
	return name
}

// Count returns the number of specialised dimensions.
func (d Dims) Count() int {
	n := 0
	for _, b := range []bool{d.Chip, d.App, d.Input} {
		if b {
			n++
		}
	}
	return n
}

// AllDims returns the 8 specialisation combinations in order of
// increasing specialisation (Table V, minus baseline and oracle).
func AllDims() []Dims {
	out := []Dims{
		{},
		{Chip: true}, {App: true}, {Input: true},
		{Chip: true, App: true}, {Chip: true, Input: true}, {App: true, Input: true},
		{Chip: true, App: true, Input: true},
	}
	return out
}

// PartitionKey identifies a data partition: the dimension values a
// strategy is specialised to, with "" meaning "any".
type PartitionKey struct {
	Chip  string
	App   string
	Input string
}

// String renders the key for reports.
func (k PartitionKey) String() string {
	get := func(s string) string {
		if s == "" {
			return "*"
		}
		return s
	}
	return fmt.Sprintf("(%s,%s,%s)", get(k.Chip), get(k.App), get(k.Input))
}

// keyFor projects a tuple onto the specialised dimensions.
func (d Dims) keyFor(t dataset.Tuple) PartitionKey {
	var k PartitionKey
	if d.Chip {
		k.Chip = t.Chip
	}
	if d.App {
		k.App = t.App
	}
	if d.Input {
		k.Input = t.Input
	}
	return k
}

// Strategy maps tuples to optimisation configurations (Table V).
type Strategy struct {
	// Name identifies the strategy in reports ("baseline", "global",
	// "chip_app", "oracle", ...).
	Name string
	pick func(dataset.Tuple) opt.Config
}

// Config returns the configuration the strategy selects for t.
func (s *Strategy) Config(t dataset.Tuple) opt.Config { return s.pick(t) }

// Baseline returns the strategy that never optimises.
func Baseline() *Strategy {
	return &Strategy{Name: "baseline", pick: func(dataset.Tuple) opt.Config { return opt.Config{} }}
}

// Oracle returns the strategy that picks, for every tuple, the
// configuration with the best mean runtime in d.
func Oracle(d *dataset.Dataset) *Strategy {
	table := make(map[dataset.Tuple]opt.Config)
	for _, t := range d.Tuples() {
		if cfg, _, ok := d.BestConfig(t); ok {
			table[t] = cfg
		}
	}
	return &Strategy{Name: "oracle", pick: func(t dataset.Tuple) opt.Config { return table[t] }}
}

// FlagDecision records the analysis verdict for one flag on one
// partition - the contents of a Table IX cell.
type FlagDecision struct {
	Flag opt.Flag
	// Enabled is the recommendation.
	Enabled bool
	// Confident is false when too few significant comparisons existed
	// for the MWU test to reach p < Alpha in either direction (the
	// paper's fg8-on-MALI case).
	Confident bool
	// P is the MWU two-sided p-value (NaN with no data).
	P float64
	// CL is the common-language effect size: the probability that a
	// random significant comparison shows a speedup.
	CL float64
	// MedianRatio is the median normalised runtime (enabled/disabled);
	// below 1.0 means the flag helps.
	MedianRatio float64
	// Comparisons is the number of significant mirror-pair comparisons
	// that fed the test.
	Comparisons int
}

// Partition is one data subset with its analysis outcome.
type Partition struct {
	Key       PartitionKey
	Tuples    []dataset.Tuple
	Decisions []FlagDecision
	Config    opt.Config
}

// Specialisation is the full result of running Algorithm 1 at one
// degree of specialisation.
type Specialisation struct {
	Dims       Dims
	Strategy   *Strategy
	Partitions []Partition
}

// Specialise partitions d along dims and derives a recommendation per
// partition (Algorithm 1, SPECIALISE_FOR_*).
func Specialise(d *dataset.Dataset, dims Dims) *Specialisation {
	tuples := d.Tuples()
	return newRatioIndex(d, tupleIDs(d, tuples), true).specialise(d, dims, tuples)
}

// SpecialiseUngated is the ablation variant of Specialise that skips
// Algorithm 1's 95% CI significance gate: every mirror-pair ratio feeds
// the MWU test, noise included. It exists to quantify what the gate
// buys (see BenchmarkAblationSignificanceGate); it is not part of the
// paper's methodology.
func SpecialiseUngated(d *dataset.Dataset, dims Dims) *Specialisation {
	tuples := d.Tuples()
	return newRatioIndex(d, tupleIDs(d, tuples), false).specialise(d, dims, tuples)
}

// specialise runs Algorithm 1 over tuples, partitioned along dims.
func (x *ratioIndex) specialise(d *dataset.Dataset, dims Dims, tuples []dataset.Tuple) *Specialisation {
	parts := map[PartitionKey][]dataset.Tuple{}
	var order []PartitionKey
	for _, t := range tuples {
		k := dims.keyFor(t)
		if _, ok := parts[k]; !ok {
			order = append(order, k)
		}
		parts[k] = append(parts[k], t)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.Chip != b.Chip {
			return a.Chip < b.Chip
		}
		if a.App != b.App {
			return a.App < b.App
		}
		return a.Input < b.Input
	})

	spec := &Specialisation{Dims: dims}
	table := make(map[PartitionKey]opt.Config, len(order))
	for _, k := range order {
		p := Partition{Key: k, Tuples: parts[k]}
		p.Decisions = x.decisions(tupleIDs(d, p.Tuples))
		p.Config = configFromDecisions(p.Decisions)
		table[k] = p.Config
		spec.Partitions = append(spec.Partitions, p)
	}
	spec.Strategy = &Strategy{
		Name: dims.Name(),
		pick: func(t dataset.Tuple) opt.Config { return table[dims.keyFor(t)] },
	}
	return spec
}

// OptsForPartition implements Algorithm 1's OPTS_FOR_PARTITION: for
// every flag, gather normalised runtimes from all mirror-pair
// configuration comparisons with significant differences, and enable
// the flag when the MWU test confirms a median speedup. Tuples without
// data are skipped, as their comparisons would be.
func OptsForPartition(d *dataset.Dataset, tuples []dataset.Tuple) []FlagDecision {
	tids := tupleIDs(d, tuples)
	return newRatioIndex(d, tids, true).decisions(tids)
}

// tupleIDs maps tuples to their dataset IDs, dropping tuples d has no
// records for.
func tupleIDs(d *dataset.Dataset, tuples []dataset.Tuple) []int {
	out := make([]int, 0, len(tuples))
	for _, t := range tuples {
		if tid, ok := d.TupleID(t); ok {
			out = append(out, tid)
		}
	}
	return out
}

// configFromDecisions assembles the recommended configuration. If both
// fg variants win, the one with the stronger (smaller) median ratio is
// kept; FromFlags would otherwise always prefer fg8.
func configFromDecisions(decs []FlagDecision) opt.Config {
	var flags []opt.Flag
	var fg1, fg8 *FlagDecision
	for i := range decs {
		dec := &decs[i]
		if !dec.Enabled {
			continue
		}
		switch dec.Flag {
		case opt.FlagFG1:
			fg1 = dec
		case opt.FlagFG8:
			fg8 = dec
		default:
			flags = append(flags, dec.Flag)
		}
	}
	switch {
	case fg1 != nil && fg8 != nil:
		if fg1.MedianRatio < fg8.MedianRatio {
			flags = append(flags, opt.FlagFG1)
		} else {
			flags = append(flags, opt.FlagFG8)
		}
	case fg1 != nil:
		flags = append(flags, opt.FlagFG1)
	case fg8 != nil:
		flags = append(flags, opt.FlagFG8)
	}
	return opt.FromFlags(flags)
}
