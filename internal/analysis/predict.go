package analysis

// This file implements the paper's second future-work item (Section
// IX): moving from descriptive to *predictive* models. The question:
// if a strategy is derived without ever seeing a particular
// application (or input, or chip), how well does it perform there?
// Leave-one-out cross-validation over any dimension answers that with
// the machinery already in place.

import (
	"gpuport/internal/dataset"
	"gpuport/internal/opt"
)

// LOOResult is the outcome of one leave-one-out fold.
type LOOResult struct {
	// Held is the held-out dimension value (an app, input or chip name).
	Held string
	// TestCount is the number of improvable held-out tests scored.
	TestCount int
	// Eval scores the strategy trained without Held on Held's tests,
	// against the full-data oracle.
	Eval StrategyEval
}

// LOODimension selects what to hold out.
type LOODimension int

const (
	// LOOApp holds out one application per fold.
	LOOApp LOODimension = iota
	// LOOInput holds out one input per fold.
	LOOInput
	// LOOChip holds out one chip per fold.
	LOOChip
)

// String returns the dimension name.
func (d LOODimension) String() string {
	switch d {
	case LOOApp:
		return "app"
	case LOOInput:
		return "input"
	case LOOChip:
		return "chip"
	default:
		return "?"
	}
}

// values returns the distinct values of the dimension in ds.
func (d LOODimension) values(ds *dataset.Dataset) []string {
	switch d {
	case LOOApp:
		return ds.Apps()
	case LOOInput:
		return ds.Inputs()
	default:
		return ds.Chips()
	}
}

// of projects a tuple onto the dimension.
func (d LOODimension) of(t dataset.Tuple) string {
	switch d {
	case LOOApp:
		return t.App
	case LOOInput:
		return t.Input
	default:
		return t.Chip
	}
}

// trainDims returns the specialisation the predictor may use: it can
// specialise on everything except the held-out dimension, since it
// will never have seen the held-out value.
func (d LOODimension) trainDims() Dims {
	switch d {
	case LOOApp:
		return Dims{Chip: true, Input: true}
	case LOOInput:
		return Dims{Chip: true, App: true}
	default:
		return Dims{App: true, Input: true}
	}
}

// CrossValidate performs leave-one-out cross-validation along dim: for
// every value v, Algorithm 1 derives a strategy from all tests NOT
// involving v (specialised over the remaining two dimensions, with the
// training set's global configuration as a fallback for partitions the
// training data never produced), then scores it on v's improvable
// tests against the per-test oracle. A fold computes its fallback only
// when a held-out test needs it.
func (x *Index) CrossValidate(dim LOODimension) []LOOResult {
	d := x.d
	oracle := Oracle(d)
	trainDims := dim.trainDims()
	r := x.reader(false)
	var out []LOOResult
	for _, held := range dim.values(d) {
		held := held
		train := x.positions(func(t dataset.Tuple) bool { return dim.of(t) != held })
		var test []dataset.Tuple
		var testIDs []int
		for _, k := range x.positions(func(t dataset.Tuple) bool { return dim.of(t) == held }) {
			if improvable(d, x.tids[k]) {
				test = append(test, x.tuples[k])
				testIDs = append(testIDs, x.tids[k])
			}
		}

		spec := r.specialise(trainDims, train)
		table := make(map[PartitionKey]opt.Config, len(spec.Partitions))
		for _, p := range spec.Partitions {
			table[p.Key] = p.Config
		}
		var fallback *opt.Config

		predictor := &Strategy{
			Name: "loo-" + dim.String(),
			pick: func(t dataset.Tuple) opt.Config {
				if cfg, ok := table[trainDims.keyFor(t)]; ok {
					return cfg
				}
				if fallback == nil {
					cfg := configFromDecisions(r.decisionsAt(train))
					fallback = &cfg
				}
				return *fallback
			},
		}
		eval := evaluate(d, predictor, oracle, test, testIDs)
		eval.Name = "loo-" + dim.String() + "/" + held
		out = append(out, LOOResult{Held: held, TestCount: len(test), Eval: eval})
	}
	return out
}
