package analysis

// Fault-degradation proof: the analysis layer must draw (nearly) the
// same conclusions from a sweep that lost cells and samples to injected
// faults as from a clean one. This is the test that calibrates
// FaultAgreementFloor and FaultRankTauFloor.

import (
	"testing"

	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/dataset"
	"gpuport/internal/fault"
	"gpuport/internal/graph"
	"gpuport/internal/measure"
)

// faultSweepOptions is a small but non-trivial sweep: 2 chips x 3 apps
// x 2 inputs x 96 configs.
func faultSweepOptions() measure.Options {
	var as []apps.App
	for _, name := range []string{"bfs-wl", "pr-residual", "sssp-nf"} {
		a, err := apps.ByName(name)
		if err != nil {
			panic(err)
		}
		as = append(as, a)
	}
	return measure.Options{
		Seed:  7,
		Runs:  3,
		Chips: chip.All()[:2],
		Apps:  as,
		Inputs: []*graph.Graph{
			graph.GenerateUniform("fa-rand", 600, 5, 9),
			graph.GenerateUniform("fa-rand2", 500, 6, 17),
		},
	}
}

func TestFaultedSweepAgreesWithClean(t *testing.T) {
	clean, err := measure.Collect(faultSweepOptions())
	if err != nil {
		t.Fatal(err)
	}
	// ~5% fault rates with a single retry, so some cells genuinely go
	// missing, some heal on the (differently-noised) retry stream, and
	// some samples are quarantined - a partial AND perturbed dataset.
	o := faultSweepOptions()
	o.Faults = &fault.Profile{
		Seed:       3,
		Transient:  0.05,
		Hang:       0.02,
		Corrupt:    0.05,
		MaxRetries: 1,
	}
	faulted, rep, err := measure.CollectReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retried == 0 || rep.Quarantined == 0 {
		t.Fatalf("fault profile was inert: %+v", rep)
	}
	t.Logf("faulted sweep: coverage %.3f, %d retried, %d quarantined, %d failed",
		rep.Coverage(), rep.Retried, rep.Quarantined, len(rep.Failures))

	agree, undecided := AgreementBetween(
		NewIndex(clean).Specialise(Dims{Chip: true}),
		NewIndex(faulted).Specialise(Dims{Chip: true}))
	t.Logf("per-chip agreement %.3f (undecided %.3f)", agree, undecided)
	if agree < FaultAgreementFloor {
		t.Errorf("per-chip agreement %.3f below documented floor %v",
			agree, FaultAgreementFloor)
	}

	tau := RankCorrelation(RankConfigs(clean), RankConfigs(faulted))
	t.Logf("rank tau %.3f", tau)
	if tau < FaultRankTauFloor {
		t.Errorf("rank correlation %.3f below documented floor %v",
			tau, FaultRankTauFloor)
	}
}

// TestAnalysisSurvivesChipDropout is the graceful-degradation
// acceptance: a whole chip dies mid-sweep and every analysis entry
// point must still complete on the partial dataset.
func TestAnalysisSurvivesChipDropout(t *testing.T) {
	o := faultSweepOptions()
	o.Faults = &fault.Profile{Seed: 4, Dropout: 1}
	d, rep, err := measure.CollectReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DropoutChip == "" || rep.Complete() {
		t.Fatalf("dropout did not degrade the sweep: %+v", rep)
	}
	t.Logf("dropout killed %s from cell %d; coverage %.3f",
		rep.DropoutChip, rep.DropoutFrom, rep.Coverage())

	ranks := RankConfigs(d)
	if len(ranks) == 0 {
		t.Error("RankConfigs returned nothing on partial dataset")
	}
	for _, dims := range append(AllDims(), Dims{}) {
		sp := NewIndex(d).Specialise(dims)
		if sp == nil || sp.Strategy == nil {
			t.Fatalf("Specialise(%s) degenerated on partial dataset", dims.Name())
		}
	}
	strategies := []*Strategy{Baseline(), NewIndex(d).Specialise(Dims{Chip: true}).Strategy, Oracle(d)}
	evals, excluded := EvaluateAll(d, strategies)
	if len(evals) != len(strategies) {
		t.Fatalf("EvaluateAll returned %d evals for %d strategies", len(evals), len(strategies))
	}
	t.Logf("EvaluateAll on partial data: %d excluded tests", excluded)
	if h := CrossChipHeatmap(d); h == nil {
		t.Error("CrossChipHeatmap returned nil on partial dataset")
	}
	if ex := Extremes(d); len(ex) == 0 {
		t.Error("Extremes returned nothing on partial dataset")
	}

	// The surviving chip's partition must still reach real decisions.
	surviving := ""
	for _, ch := range o.Chips {
		if ch.Name != rep.DropoutChip {
			surviving = ch.Name
		}
	}
	perChip := NewIndex(d).Specialise(Dims{Chip: true})
	found := false
	for _, part := range perChip.Partitions {
		if part.Key.Chip == surviving {
			found = true
		}
	}
	if !found {
		t.Errorf("surviving chip %s missing from per-chip specialisation", surviving)
	}
	_ = dataset.Tuple{}
}
