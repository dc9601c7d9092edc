package analysis

import (
	"math"
	"testing"

	"gpuport/internal/dataset"
	"gpuport/internal/opt"
)

func TestClassify(t *testing.T) {
	tuples := grid([]string{"c"}, []string{"a"}, []string{"i"})
	d := synthDataset(tuples, func(tp dataset.Tuple, f opt.Flag) float64 {
		switch f {
		case opt.FlagSG:
			return 0.5
		case opt.FlagWG:
			return 2.0
		default:
			return 1.0
		}
	})
	tp := tuples[0]
	if out, ratio := Classify(d, tp, opt.Config{SG: true}); out != Speedup || ratio < 1.9 {
		t.Errorf("sg: %v %v", out, ratio)
	}
	if out, ratio := Classify(d, tp, opt.Config{WG: true}); out != Slowdown || ratio > 0.6 {
		t.Errorf("wg: %v %v", out, ratio)
	}
	if out, _ := Classify(d, tp, opt.Config{CoopCV: true}); out != NoChange {
		t.Errorf("noop flag should be NoChange, got %v", out)
	}
	if out, ratio := Classify(d, tp, opt.Config{}); out != NoChange || ratio != 1 {
		t.Errorf("baseline vs baseline: %v %v", out, ratio)
	}
	// Absent cells classify as NoChange at ratio 1: an unknown tuple,
	// and configs outside the space (no opt ID), which must not panic.
	for _, tc := range []struct {
		tuple dataset.Tuple
		cfg   opt.Config
	}{
		{dataset.Tuple{Chip: "zz", App: "a", Input: "i"}, opt.Config{SG: true}},
		{tp, opt.Config{FG: 3}},
		{tp, opt.Config{SG: true, FG: 255}},
	} {
		if out, ratio := Classify(d, tc.tuple, tc.cfg); out != NoChange || ratio != 1 {
			t.Errorf("%v under %+v: %v %v, want absent", tc.tuple, tc.cfg, out, ratio)
		}
	}
}

func TestImprovable(t *testing.T) {
	tuples := grid([]string{"cGood", "cBad"}, []string{"a"}, []string{"i"})
	d := synthDataset(tuples, func(tp dataset.Tuple, f opt.Flag) float64 {
		if tp.Chip == "cGood" && f == opt.FlagSG {
			return 0.5
		}
		return 1.0 // nothing helps on cBad
	})
	if !Improvable(d, tuples[0]) {
		t.Error("cGood should be improvable")
	}
	if Improvable(d, tuples[1]) {
		t.Error("cBad should not be improvable")
	}
}

func TestEvaluateAllCountsAndOracle(t *testing.T) {
	tuples := grid([]string{"c1", "c2"}, []string{"a1", "a2"}, []string{"i1", "i2"})
	d := synthDataset(tuples, func(tp dataset.Tuple, f opt.Flag) float64 {
		if f == opt.FlagSG {
			if tp.Chip == "c1" {
				return 0.5
			}
			return 1.6
		}
		return 1.0
	})
	strategies := StandardStrategies(d)
	evals, excluded := EvaluateAll(d, strategies)
	if len(evals) != 10 {
		t.Fatalf("evals = %d, want 10 strategies", len(evals))
	}
	// c2 tuples are not improvable (sg only hurts there): excluded.
	if excluded != 4 {
		t.Errorf("excluded = %d, want 4", excluded)
	}
	byName := map[string]StrategyEval{}
	for _, e := range evals {
		byName[e.Name] = e
	}
	base := byName["baseline"]
	if base.Speedups != 0 || base.Slowdowns != 0 || base.NoChanges != 4 {
		t.Errorf("baseline eval %+v", base)
	}
	oracle := byName["oracle"]
	if oracle.Speedups != 4 || oracle.Slowdowns != 0 {
		t.Errorf("oracle eval %+v", oracle)
	}
	if math.Abs(oracle.GeoMeanSlowdownVsOracle-1) > 1e-9 {
		t.Errorf("oracle vs oracle = %v, want 1", oracle.GeoMeanSlowdownVsOracle)
	}
	// The global strategy enables sg (c1 wins outnumber c2 losses in
	// pair counts 4 configs..): either way chip specialisation must be
	// at least as good as global on every chip.
	global := byName["global"]
	chipEval := byName["chip"]
	if chipEval.Slowdowns > global.Slowdowns {
		t.Errorf("chip specialisation has more slowdowns (%d) than global (%d)",
			chipEval.Slowdowns, global.Slowdowns)
	}
	if chipEval.GeoMeanSlowdownVsOracle > global.GeoMeanSlowdownVsOracle+1e-9 {
		t.Errorf("chip (%v) worse than global (%v) vs oracle",
			chipEval.GeoMeanSlowdownVsOracle, global.GeoMeanSlowdownVsOracle)
	}
}

func TestRankConfigs(t *testing.T) {
	tuples := grid([]string{"c1", "c2"}, []string{"a1", "a2"}, []string{"i1"})
	d := synthDataset(tuples, func(tp dataset.Tuple, f opt.Flag) float64 {
		switch f {
		case opt.FlagSG:
			return 0.8
		case opt.FlagSZ256:
			return 1.5
		default:
			return 1.0
		}
	})
	ranks := RankConfigs(d)
	if len(ranks) != 95 {
		t.Fatalf("ranks = %d, want 95", len(ranks))
	}
	for i, r := range ranks {
		if r.Rank != i {
			t.Fatalf("rank field mismatch at %d", i)
		}
		if i > 0 && r.Slowdowns < ranks[i-1].Slowdowns {
			t.Fatalf("ranking not sorted by slowdowns at %d", i)
		}
	}
	// The top rank must not contain sz256 (it hurts everywhere).
	if ranks[0].Config.SZ256 {
		t.Errorf("top rank contains sz256: %v", ranks[0].Config)
	}
	// Bottom rank must contain sz256.
	if !ranks[len(ranks)-1].Config.SZ256 {
		t.Errorf("bottom rank lacks sz256: %v", ranks[len(ranks)-1].Config)
	}
	best := MaxGeoMeanConfig(ranks)
	for _, r := range ranks {
		if r.GeoMean > best.GeoMean {
			t.Errorf("MaxGeoMeanConfig missed %v (%v > %v)", r.Config, r.GeoMean, best.GeoMean)
		}
	}
}

func TestPerChipCounts(t *testing.T) {
	tuples := grid([]string{"c1", "c2"}, []string{"a1", "a2", "a3"}, []string{"i1"})
	d := synthDataset(tuples, func(tp dataset.Tuple, f opt.Flag) float64 {
		if f == opt.FlagSG {
			if tp.Chip == "c1" {
				return 0.5
			}
			return 2.0
		}
		return 1.0
	})
	counts := PerChipCounts(d, opt.Config{SG: true})
	if len(counts) != 2 {
		t.Fatalf("counts = %d chips", len(counts))
	}
	for _, cc := range counts {
		switch cc.Chip {
		case "c1":
			if cc.Speedups != 3 || cc.Slowdowns != 0 {
				t.Errorf("c1 counts %+v", cc)
			}
			if cc.MaxSpeedup < 1.9 {
				t.Errorf("c1 max speedup %v", cc.MaxSpeedup)
			}
		case "c2":
			if cc.Speedups != 0 || cc.Slowdowns != 3 {
				t.Errorf("c2 counts %+v", cc)
			}
		}
	}
}

func TestStrategyEvalTests(t *testing.T) {
	e := StrategyEval{Speedups: 3, Slowdowns: 2, NoChanges: 5}
	if e.Tests() != 10 {
		t.Errorf("Tests() = %d", e.Tests())
	}
}
