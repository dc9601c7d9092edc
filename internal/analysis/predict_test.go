package analysis

import (
	"fmt"
	"math"
	"testing"

	"gpuport/internal/dataset"
	"gpuport/internal/opt"
	"gpuport/internal/stats"
)

// eagerCrossValidate is CrossValidate's fold loop done the plain way:
// every training partition goes through rule.decide on its own, every
// median selected and deciding, and the training set's fallback is
// computed before the fold is scored. It also counts the held-out
// tests whose training partition is missing, the only ones that read
// the fallback.
func eagerCrossValidate(rule *medianRule, dim LOODimension) (out []LOOResult, misses int) {
	d := rule.x.d
	oracle := Oracle(d)
	trainDims := dim.trainDims()
	for _, held := range dim.values(d) {
		train := d.TuplesWhere(func(t dataset.Tuple) bool { return dim.of(t) != held })
		test := d.TuplesWhere(func(t dataset.Tuple) bool { return dim.of(t) == held && Improvable(d, t) })

		parts := map[PartitionKey][]dataset.Tuple{}
		for _, t := range train {
			k := trainDims.keyFor(t)
			parts[k] = append(parts[k], t)
		}
		table := map[PartitionKey]opt.Config{}
		for _, t := range train {
			if k := trainDims.keyFor(t); !hasKey(table, k) {
				table[k] = configFromDecisions(rule.decide(parts[k]))
			}
		}
		fallback := configFromDecisions(rule.decide(train))
		for _, t := range test {
			if !hasKey(table, trainDims.keyFor(t)) {
				misses++
			}
		}

		predictor := &Strategy{
			Name: "loo-" + dim.String(),
			pick: func(t dataset.Tuple) opt.Config {
				if cfg, ok := table[trainDims.keyFor(t)]; ok {
					return cfg
				}
				return fallback
			},
		}
		testIDs := make([]int, len(test))
		for i, t := range test {
			testIDs[i], _ = d.TupleID(t)
		}
		eval := evaluate(d, predictor, oracle, test, testIDs)
		eval.Name = "loo-" + dim.String() + "/" + held
		out = append(out, LOOResult{Held: held, TestCount: len(test), Eval: eval})
	}
	return out, misses
}

func hasKey(table map[PartitionKey]opt.Config, k PartitionKey) bool {
	_, ok := table[k]
	return ok
}

// randLOODataset draws a noisy dataset over 3 chips x 3 apps x 2
// inputs with a third of the tuples and a sixth of the cells dropped,
// so some held-out tests have no training partition. Each tuple has
// its own per-flag effect.
func randLOODataset(r *stats.RNG) *dataset.Dataset {
	effects := []float64{0.6, 0.9, 1.0, 1.15, 1.6}
	d := dataset.New()
	for _, t := range grid([]string{"c1", "c2", "c3"}, []string{"a1", "a2", "a3"}, []string{"i1", "i2"}) {
		if r.Intn(3) == 0 {
			continue
		}
		var effect [7]float64
		for f := range effect {
			effect[f] = effects[r.Intn(len(effects))]
		}
		for _, cfg := range opt.All() {
			if r.Intn(6) == 0 {
				continue
			}
			v := 1000.0
			for _, f := range cfg.EnabledFlags() {
				v *= effect[f]
			}
			samples := make([]float64, 3)
			for i := range samples {
				samples[i] = v * (1 + 0.01*(r.Float64()-0.5))
			}
			d.Add(dataset.Record{Key: dataset.Key{Tuple: t, Config: cfg}, Samples: samples})
		}
	}
	return d
}

// diffLOO names the first fold where got and want differ, comparing
// floats by their bits.
func diffLOO(got, want []LOOResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d folds, eager %d", len(got), len(want))
	}
	for k, g := range got {
		w := want[k]
		ge, we := g.Eval, w.Eval
		same := g.Held == w.Held && g.TestCount == w.TestCount && ge.Name == we.Name &&
			ge.Speedups == we.Speedups && ge.Slowdowns == we.Slowdowns && ge.NoChanges == we.NoChanges &&
			math.Float64bits(ge.GeoMeanVsBaseline) == math.Float64bits(we.GeoMeanVsBaseline) &&
			math.Float64bits(ge.GeoMeanSlowdownVsOracle) == math.Float64bits(we.GeoMeanSlowdownVsOracle) &&
			math.Float64bits(ge.MaxSpeedup) == math.Float64bits(we.MaxSpeedup)
		if !same {
			return fmt.Errorf("fold %d: got %+v, eager %+v", k, g, w)
		}
	}
	return nil
}

// TestCrossValidateLazyFallbackMatchesEager: on partial datasets where
// held-out tests miss their training partition along every dimension,
// CrossValidate (one ratio index, fallback computed on first miss)
// equals the eager fold loop field for field, floats by their bits.
func TestCrossValidateLazyFallbackMatchesEager(t *testing.T) {
	r := stats.NewRNG(11)
	dims := []LOODimension{LOOApp, LOOInput, LOOChip}
	misses := make([]int, len(dims))
	for trial := 0; trial < 30; trial++ {
		d := randLOODataset(r)
		for i, dim := range dims {
			want, m := eagerCrossValidate(&medianRule{x: NewIndex(d)}, dim)
			misses[i] += m
			if err := diffLOO(NewIndex(d).CrossValidate(dim), want); err != nil {
				t.Fatalf("trial %d, %s: %v", trial, dim, err)
			}
		}
	}
	for i, dim := range dims {
		if misses[i] == 0 {
			t.Errorf("no held-out %s test missed its training partition: the fallback went unread", dim)
		}
	}
}
