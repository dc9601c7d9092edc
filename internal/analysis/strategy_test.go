package analysis

import (
	"fmt"
	"testing"

	"gpuport/internal/dataset"
	"gpuport/internal/opt"
	"gpuport/internal/stats"
)

// synthDataset builds a dataset where each tuple's runtime is a pure
// function of the configuration: base multiplied by a per-flag factor
// (below 1.0 = flag helps on that tuple), with tiny deterministic
// noise so confidence intervals are tight.
func synthDataset(tuples []dataset.Tuple, factor func(t dataset.Tuple, f opt.Flag) float64) *dataset.Dataset {
	d := dataset.New()
	rng := stats.NewRNG(12345)
	for _, t := range tuples {
		base := 1000.0
		for _, cfg := range opt.All() {
			v := base
			for _, f := range cfg.EnabledFlags() {
				v *= factor(t, f)
			}
			samples := make([]float64, 3)
			for i := range samples {
				samples[i] = v * (1 + 0.001*(rng.Float64()-0.5))
			}
			d.Add(dataset.Record{Key: dataset.Key{Tuple: t, Config: cfg}, Samples: samples})
		}
	}
	return d
}

func grid(chips, apps, inputs []string) []dataset.Tuple {
	var out []dataset.Tuple
	for _, c := range chips {
		for _, a := range apps {
			for _, i := range inputs {
				out = append(out, dataset.Tuple{Chip: c, App: a, Input: i})
			}
		}
	}
	return out
}

func TestDimsNames(t *testing.T) {
	cases := map[string]Dims{
		"global":         {},
		"chip":           {Chip: true},
		"app":            {App: true},
		"input":          {Input: true},
		"chip_app":       {Chip: true, App: true},
		"chip_input":     {Chip: true, Input: true},
		"app_input":      {App: true, Input: true},
		"chip_app_input": {Chip: true, App: true, Input: true},
	}
	for want, d := range cases {
		if got := d.Name(); got != want {
			t.Errorf("Dims%+v.Name() = %q, want %q", d, got, want)
		}
	}
	if len(AllDims()) != 8 {
		t.Errorf("AllDims = %d, want 8", len(AllDims()))
	}
}

func TestGlobalEnablesUniversallyGoodFlag(t *testing.T) {
	tuples := grid([]string{"c1", "c2"}, []string{"a1", "a2"}, []string{"i1"})
	d := synthDataset(tuples, func(tp dataset.Tuple, f opt.Flag) float64 {
		switch f {
		case opt.FlagSG:
			return 0.7 // always helps
		case opt.FlagWG:
			return 1.4 // always hurts
		default:
			return 1.0 // no effect -> never significant
		}
	})
	spec := Specialise(d, Dims{})
	if len(spec.Partitions) != 1 {
		t.Fatalf("global partitions = %d", len(spec.Partitions))
	}
	cfg := spec.Strategy.Config(tuples[0])
	if !cfg.SG {
		t.Error("sg should be enabled globally")
	}
	if cfg.WG {
		t.Error("wg should be disabled globally")
	}
	for _, dec := range spec.Partitions[0].Decisions {
		switch dec.Flag {
		case opt.FlagSG:
			if !dec.Enabled || !dec.Confident || dec.CL < 0.95 {
				t.Errorf("sg decision %+v", dec)
			}
		case opt.FlagWG:
			if dec.Enabled || !dec.Confident || dec.CL > 0.05 {
				t.Errorf("wg decision %+v", dec)
			}
		default:
			// Flags with no effect produce at most a handful of noise
			// flukes - far too few for the MWU test to act on.
			if dec.Comparisons > 10 {
				t.Errorf("%v has %d significant pairs from pure noise", dec.Flag, dec.Comparisons)
			}
			if dec.Enabled {
				t.Errorf("%v enabled from pure noise: %+v", dec.Flag, dec)
			}
		}
	}
}

func TestChipSpecialisationSplitsConflict(t *testing.T) {
	// sg helps on chipA, hurts on chipB: the chip specialisation must
	// recommend it only for chipA.
	tuples := grid([]string{"chipA", "chipB"}, []string{"a1", "a2", "a3"}, []string{"i1", "i2"})
	d := synthDataset(tuples, func(tp dataset.Tuple, f opt.Flag) float64 {
		if f == opt.FlagSG {
			if tp.Chip == "chipA" {
				return 0.6
			}
			return 1.5
		}
		return 1.0
	})
	spec := Specialise(d, Dims{Chip: true})
	if len(spec.Partitions) != 2 {
		t.Fatalf("partitions = %d, want 2", len(spec.Partitions))
	}
	cfgA := spec.Strategy.Config(dataset.Tuple{Chip: "chipA", App: "a1", Input: "i1"})
	cfgB := spec.Strategy.Config(dataset.Tuple{Chip: "chipB", App: "a1", Input: "i1"})
	if !cfgA.SG {
		t.Error("chipA should enable sg")
	}
	if cfgB.SG {
		t.Error("chipB should not enable sg")
	}
}

func TestInputSpecialisation(t *testing.T) {
	tuples := grid([]string{"c"}, []string{"a1", "a2", "a3", "a4"}, []string{"road", "social"})
	d := synthDataset(tuples, func(tp dataset.Tuple, f opt.Flag) float64 {
		if f == opt.FlagOiterGB && tp.Input == "road" {
			return 0.3
		}
		if f == opt.FlagOiterGB {
			return 1.2
		}
		return 1.0
	})
	spec := Specialise(d, Dims{Input: true})
	road := spec.Strategy.Config(dataset.Tuple{Chip: "c", App: "a1", Input: "road"})
	social := spec.Strategy.Config(dataset.Tuple{Chip: "c", App: "a1", Input: "social"})
	if !road.OiterGB || social.OiterGB {
		t.Errorf("oitergb: road=%v social=%v, want true/false", road.OiterGB, social.OiterGB)
	}
}

func TestFGConflictResolvedByMedian(t *testing.T) {
	tuples := grid([]string{"c1", "c2"}, []string{"a1", "a2", "a3"}, []string{"i1", "i2"})
	// Both fg variants help; fg1 helps more.
	d := synthDataset(tuples, func(tp dataset.Tuple, f opt.Flag) float64 {
		switch f {
		case opt.FlagFG1:
			return 0.5
		case opt.FlagFG8:
			return 0.8
		default:
			return 1.0
		}
	})
	spec := Specialise(d, Dims{})
	cfg := spec.Strategy.Config(tuples[0])
	if cfg.FG != opt.FG1 {
		t.Errorf("fg conflict: got %v, want FG1 (stronger median)", cfg.FG)
	}
}

func TestBaselineStrategy(t *testing.T) {
	s := Baseline()
	if s.Name != "baseline" {
		t.Errorf("name = %q", s.Name)
	}
	if !s.Config(dataset.Tuple{Chip: "x"}).IsBaseline() {
		t.Error("baseline must map everything to the empty config")
	}
}

func TestOracleStrategy(t *testing.T) {
	tuples := grid([]string{"c1"}, []string{"a1"}, []string{"i1"})
	d := synthDataset(tuples, func(tp dataset.Tuple, f opt.Flag) float64 {
		if f == opt.FlagSG {
			return 0.5
		}
		if f == opt.FlagFG8 {
			return 0.9
		}
		return 1.1
	})
	o := Oracle(d)
	cfg := o.Config(tuples[0])
	// Best config enables exactly sg and fg8 (the only helpful flags).
	if !cfg.SG || cfg.FG != opt.FG8 || cfg.WG || cfg.CoopCV || cfg.OiterGB || cfg.SZ256 {
		t.Errorf("oracle config = %v", cfg)
	}
}

func TestPartitionKeyString(t *testing.T) {
	k := PartitionKey{Chip: "c"}
	if k.String() != "(c,*,*)" {
		t.Errorf("key string = %q", k.String())
	}
}

func TestDimsCount(t *testing.T) {
	if (Dims{}).Count() != 0 || (Dims{Chip: true, Input: true}).Count() != 2 {
		t.Error("Count wrong")
	}
}

// TestSpecialiseAllocsIndependentOfGrid pins the dense layout's win:
// Algorithm 1 reads each cell's cached statistics, so one global
// Specialise allocates the same handful of buffers over a 1-chip grid
// (51 tuples) and a 4-chip grid (204 tuples) - nothing per comparison.
func TestSpecialiseAllocsIndependentOfGrid(t *testing.T) {
	const bound = 64
	apps := make([]string, 17)
	for i := range apps {
		apps[i] = fmt.Sprintf("app%02d", i)
	}
	inputs := []string{"road", "social", "random"}
	factor := func(tp dataset.Tuple, f opt.Flag) float64 {
		switch {
		case f == opt.FlagSG:
			return 0.8
		case f == opt.FlagWG && tp.Input == "road":
			return 1.3
		default:
			return 1.0
		}
	}
	for _, chips := range [][]string{{"c1"}, {"c1", "c2", "c3", "c4"}} {
		d := synthDataset(grid(chips, apps, inputs), factor)
		allocs := testing.AllocsPerRun(5, func() { Specialise(d, Dims{}) })
		if allocs > bound {
			t.Errorf("%d chips: Specialise(global) allocates %.0f times, want <= %d", len(chips), allocs, bound)
		}
	}
}
