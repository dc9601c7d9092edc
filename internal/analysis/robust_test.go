package analysis

import (
	"math"
	"testing"

	"gpuport/internal/dataset"
	"gpuport/internal/opt"
)

func TestAgreementBetweenIdentical(t *testing.T) {
	d := samplingFixture()
	a := NewIndex(d).Specialise(Dims{Chip: true})
	b := NewIndex(d).Specialise(Dims{Chip: true})
	agree, undec := AgreementBetween(a, b)
	if agree < 0.999 || undec > 0.001 {
		t.Errorf("identical specs: agree %v, undec %v", agree, undec)
	}
}

func TestAgreementBetweenConflicting(t *testing.T) {
	tuples := grid([]string{"c1"}, []string{"a1", "a2", "a3"}, []string{"i1", "i2"})
	dGood := synthDataset(tuples, func(tp dataset.Tuple, f opt.Flag) float64 {
		if f == opt.FlagSG {
			return 0.5
		}
		return 1.0
	})
	dBad := synthDataset(tuples, func(tp dataset.Tuple, f opt.Flag) float64 {
		if f == opt.FlagSG {
			return 2.0
		}
		return 1.0
	})
	a := NewIndex(dGood).Specialise(Dims{})
	b := NewIndex(dBad).Specialise(Dims{})
	agree, _ := AgreementBetween(a, b)
	if agree > 0.95 {
		t.Errorf("opposite datasets should disagree somewhere: agree = %v", agree)
	}
}

func TestRankCorrelationIdentical(t *testing.T) {
	d := samplingFixture()
	ranks := RankConfigs(d)
	if tau := RankCorrelation(ranks, ranks); !almostEq(tau, 1) {
		t.Errorf("self correlation = %v, want 1", tau)
	}
}

func TestRankCorrelationReversed(t *testing.T) {
	d := samplingFixture()
	ranks := RankConfigs(d)
	rev := make([]ConfigRank, len(ranks))
	for i, r := range ranks {
		r.Rank = len(ranks) - 1 - i
		rev[i] = r
	}
	if tau := RankCorrelation(ranks, rev); !almostEq(tau, -1) {
		t.Errorf("reversed correlation = %v, want -1", tau)
	}
}

func TestRankCorrelationDisjoint(t *testing.T) {
	d := samplingFixture()
	ranks := RankConfigs(d)
	if tau := RankCorrelation(ranks, nil); !math.IsNaN(tau) {
		t.Errorf("no overlap should be NaN, got %v", tau)
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
