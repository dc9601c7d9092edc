package analysis

import (
	"testing"

	"gpuport/internal/dataset"
	"gpuport/internal/opt"
)

func samplingFixture() *dataset.Dataset {
	tuples := grid(
		[]string{"c1", "c2"},
		[]string{"a1", "a2", "a3", "a4", "a5"},
		[]string{"i1", "i2", "i3"},
	)
	return synthDataset(tuples, func(tp dataset.Tuple, f opt.Flag) float64 {
		switch f {
		case opt.FlagSG:
			return 0.7
		case opt.FlagWG:
			return 1.5
		case opt.FlagOiterGB:
			if tp.Chip == "c1" {
				return 0.6
			}
			return 1.4
		default:
			return 1.0
		}
	})
}

func TestSamplingCurveFullFractionAgrees(t *testing.T) {
	d := samplingFixture()
	pts := NewIndex(d).SamplingCurve(Dims{Chip: true}, []float64{1.0}, 3, 11)
	if len(pts) != 1 {
		t.Fatalf("points = %d", len(pts))
	}
	p := pts[0]
	if p.MeanAgreement < 0.999 || p.MinAgreement < 0.999 {
		t.Errorf("full-fraction agreement = %v/%v, want 1.0", p.MeanAgreement, p.MinAgreement)
	}
	if p.MeanUndecided > 0.001 {
		t.Errorf("full-fraction undecided = %v, want 0", p.MeanUndecided)
	}
}

func TestSamplingCurveMonotoneish(t *testing.T) {
	d := samplingFixture()
	pts := NewIndex(d).SamplingCurve(Dims{Chip: true}, []float64{0.1, 0.5, 1.0}, 5, 11)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Agreement should not collapse at half the data, and the tiny
	// sample should leave more undecided than the full one.
	if pts[1].MeanAgreement < 0.7 {
		t.Errorf("50%% sample agreement = %v, want >= 0.7", pts[1].MeanAgreement)
	}
	if pts[0].MeanUndecided < pts[2].MeanUndecided {
		t.Errorf("10%% sample should leave more undecided than 100%%: %v vs %v",
			pts[0].MeanUndecided, pts[2].MeanUndecided)
	}
	for _, p := range pts {
		if p.MeanAgreement < 0 || p.MeanAgreement > 1 || p.MeanUndecided < 0 || p.MeanUndecided > 1 {
			t.Errorf("point out of range: %+v", p)
		}
		if p.MinAgreement > p.MeanAgreement+1e-9 {
			t.Errorf("min agreement above mean: %+v", p)
		}
	}
}

func TestSamplingCurveDeterministic(t *testing.T) {
	d := samplingFixture()
	a := NewIndex(d).SamplingCurve(Dims{}, []float64{0.3}, 4, 5)
	b := NewIndex(d).SamplingCurve(Dims{}, []float64{0.3}, 4, 5)
	if a[0] != b[0] {
		t.Errorf("sampling curve not deterministic: %+v vs %+v", a[0], b[0])
	}
}

func TestCrossValidateApp(t *testing.T) {
	// sg helps everywhere; an unseen app should still be predicted well.
	tuples := grid([]string{"c1", "c2"}, []string{"a1", "a2", "a3"}, []string{"i1", "i2"})
	d := synthDataset(tuples, func(tp dataset.Tuple, f opt.Flag) float64 {
		if f == opt.FlagSG {
			return 0.6
		}
		if f == opt.FlagWG {
			return 1.5
		}
		return 1.0
	})
	results := NewIndex(d).CrossValidate(LOOApp)
	if len(results) != 3 {
		t.Fatalf("folds = %d, want 3", len(results))
	}
	for _, r := range results {
		if r.TestCount == 0 {
			t.Errorf("fold %s scored no tests", r.Held)
			continue
		}
		if r.Eval.Slowdowns > 0 {
			t.Errorf("fold %s: %d slowdowns predicting a universal optimisation", r.Held, r.Eval.Slowdowns)
		}
		if r.Eval.Speedups != r.TestCount {
			t.Errorf("fold %s: %d/%d speedups", r.Held, r.Eval.Speedups, r.TestCount)
		}
	}
}

func TestCrossValidateChipConflict(t *testing.T) {
	// sg's sign depends on the chip. Holding out a chip forces the
	// predictor to use a chip-agnostic recommendation, so at least one
	// fold must do markedly worse than the chip-aware oracle.
	tuples := grid([]string{"c1", "c2"}, []string{"a1", "a2", "a3", "a4"}, []string{"i1", "i2"})
	d := synthDataset(tuples, func(tp dataset.Tuple, f opt.Flag) float64 {
		if f == opt.FlagSG {
			if tp.Chip == "c1" {
				return 0.5
			}
			return 1.6
		}
		return 1.0
	})
	results := NewIndex(d).CrossValidate(LOOChip)
	if len(results) != 2 {
		t.Fatalf("folds = %d", len(results))
	}
	for _, r := range results {
		switch r.Held {
		case "c1":
			// Trained only on c2 (where sg hurts): predicts baseline,
			// missing c1's speedups -> far from oracle.
			if r.Eval.GeoMeanSlowdownVsOracle < 1.5 {
				t.Errorf("held c1 should be far from oracle, got %v", r.Eval.GeoMeanSlowdownVsOracle)
			}
		case "c2":
			// Trained only on c1 (sg helps): predicts sg, which hurts
			// c2. c2 tests are essentially non-improvable (nothing
			// helps there), so the fold is empty up to noise flukes.
			if r.TestCount > 2 {
				t.Errorf("c2 should have at most fluke improvable tests, got %d", r.TestCount)
			}
		}
	}
}

func TestLOODimensionNames(t *testing.T) {
	if LOOApp.String() != "app" || LOOInput.String() != "input" || LOOChip.String() != "chip" {
		t.Error("dimension names wrong")
	}
	if LOODimension(99).String() != "?" {
		t.Error("unknown dimension should render as ?")
	}
}
