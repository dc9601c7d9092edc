// Package study is the top-level facade: it ties dataset collection,
// the portability analysis and the microbenchmarks together and caches
// intermediate results, so the CLI, the examples and the benchmark
// harness all drive the same pipeline.
package study

import (
	"sync"

	"gpuport/internal/analysis"
	"gpuport/internal/dataset"
	"gpuport/internal/graph"
	"gpuport/internal/measure"
)

// Study wraps a collected dataset with lazily-computed, cached analysis
// results. Safe for concurrent readers.
type Study struct {
	d *dataset.Dataset
	// rep is the collection report when the study collected its own
	// dataset; nil for FromDataset (e.g. CSV-loaded) studies.
	rep *measure.Report

	ranksOnce sync.Once
	ranks     []analysis.ConfigRank

	indexOnce sync.Once
	index     *analysis.Index

	specMu sync.Mutex
	specs  map[string]*analysis.Specialisation

	oracleOnce sync.Once
	oracle     *analysis.Strategy

	evalOnce sync.Once
	evals    []analysis.StrategyEval
	excluded int

	heatOnce sync.Once
	heat     *analysis.Heatmap

	extremesOnce sync.Once
	extremes     []analysis.Extreme
}

// New collects a dataset with the given options and wraps it together
// with the collection report. Under fault injection the dataset may be
// partial; the analysis degrades to the covered cells and Coverage
// reports how much of the intended sweep is present.
func New(o measure.Options) (*Study, error) {
	d, rep, err := measure.CollectReport(o)
	if err != nil {
		return nil, err
	}
	s := FromDataset(d)
	s.rep = rep
	return s, nil
}

// Default runs the standard full study (seed 42, 3 runs).
func Default() (*Study, error) {
	return New(measure.Options{Seed: 42, Runs: 3})
}

// FromDataset wraps an existing dataset (e.g. loaded from CSV).
func FromDataset(d *dataset.Dataset) *Study {
	return &Study{d: d, specs: make(map[string]*analysis.Specialisation)}
}

// Dataset returns the underlying dataset.
func (s *Study) Dataset() *dataset.Dataset { return s.d }

// Report returns the collection report, or nil when the study wraps a
// pre-existing dataset.
func (s *Study) Report() *measure.Report { return s.rep }

// Coverage returns the fraction of the intended sweep that was
// measured (1 when the study has no collection report).
func (s *Study) Coverage() float64 { return s.rep.Coverage() }

// Ranks returns the global configuration ranking (Table III).
func (s *Study) Ranks() []analysis.ConfigRank {
	s.ranksOnce.Do(func() { s.ranks = analysis.RankConfigs(s.d) })
	return s.ranks
}

// Specialise returns the (cached) Algorithm 1 result for dims.
func (s *Study) Specialise(dims analysis.Dims) *analysis.Specialisation {
	s.specMu.Lock()
	defer s.specMu.Unlock()
	key := dims.Name()
	if sp, ok := s.specs[key]; ok {
		return sp
	}
	sp := s.analysisIndex().Specialise(dims)
	s.specs[key] = sp
	return sp
}

// analysisIndex returns the dataset's Algorithm-1 index, built on first
// use and shared by every analysis of the study.
func (s *Study) analysisIndex() *analysis.Index {
	s.indexOnce.Do(func() { s.index = analysis.NewIndex(s.d) })
	return s.index
}

// Global returns the fully-portable strategy's analysis.
func (s *Study) Global() *analysis.Specialisation {
	return s.Specialise(analysis.Dims{})
}

// PerChip returns the chip-specialised analysis (Table IX).
func (s *Study) PerChip() *analysis.Specialisation {
	return s.Specialise(analysis.Dims{Chip: true})
}

// Oracle returns the per-test-best strategy.
func (s *Study) Oracle() *analysis.Strategy {
	s.oracleOnce.Do(func() { s.oracle = analysis.Oracle(s.d) })
	return s.oracle
}

// Strategies returns the ten standard strategies: baseline, the eight
// specialisations, oracle.
func (s *Study) Strategies() []*analysis.Strategy {
	out := []*analysis.Strategy{analysis.Baseline()}
	for _, dims := range analysis.AllDims() {
		out = append(out, s.Specialise(dims).Strategy)
	}
	return append(out, s.Oracle())
}

// Evaluations returns the Figure 3 / Figure 4 evaluations over the
// improvable test subset, plus the number of excluded tests.
func (s *Study) Evaluations() ([]analysis.StrategyEval, int) {
	s.evalOnce.Do(func() {
		s.evals, s.excluded = analysis.EvaluateAll(s.d, s.Strategies())
	})
	return s.evals, s.excluded
}

// Heatmap returns the Figure 1 cross-chip portability heatmap.
func (s *Study) Heatmap() *analysis.Heatmap {
	s.heatOnce.Do(func() { s.heat = analysis.CrossChipHeatmap(s.d) })
	return s.heat
}

// Extremes returns Table II.
func (s *Study) Extremes() []analysis.Extreme {
	s.extremesOnce.Do(func() { s.extremes = analysis.Extremes(s.d) })
	return s.extremes
}

// SamplingCurve runs the Section IX subsampling sufficiency experiment
// at the given specialisation (not cached: parameterised).
func (s *Study) SamplingCurve(dims analysis.Dims, fractions []float64, trials int, seed uint64) []analysis.SamplingPoint {
	return s.analysisIndex().SamplingCurve(dims, fractions, trials, seed)
}

// CrossValidate runs leave-one-out prediction along the dimension.
func (s *Study) CrossValidate(dim analysis.LOODimension) []analysis.LOOResult {
	return s.analysisIndex().CrossValidate(dim)
}

// Comparison reports how far the conclusions of one study carry over
// to another.
type Comparison struct {
	// ChipAgreement is the fraction of per-chip flag decisions that
	// match across the studies; ChipUndecided the fraction the second
	// study could not decide.
	ChipAgreement, ChipUndecided float64
	// RankTau is the Kendall tau-b between the studies' Table III
	// rankings.
	RankTau float64
}

// Compare compares the per-chip specialisations and the Table III
// rankings of a and b, with a as the reference.
func Compare(a, b *Study) Comparison {
	c := Comparison{RankTau: analysis.RankCorrelation(a.Ranks(), b.Ranks())}
	c.ChipAgreement, c.ChipUndecided = analysis.AgreementBetween(a.PerChip(), b.PerChip())
	return c
}

// SeedStabilityResult reports how the study's conclusions move when the
// measurement noise stream changes.
type SeedStabilityResult struct {
	// Seeds are the evaluated noise seeds; the first is the reference.
	Seeds []uint64
	// GlobalConfigs holds each seed's fully-portable recommendation.
	GlobalConfigs []string
	// RankTau[i] is the Kendall tau-b between seed i's Table III
	// ranking and the reference seed's (RankTau[0] == 1).
	RankTau []float64
	// ChipAgreement[i] is the fraction of per-chip flag decisions
	// matching the reference seed's (ChipAgreement[0] == 1).
	ChipAgreement []float64
}

// TransferResult reports whether recommendations derived on one input
// domain survive on a fresh domain of the same structural classes.
type TransferResult struct {
	// GlobalA and GlobalB are the fully-portable picks on each domain.
	GlobalA, GlobalB string
	// Comparison compares domain B's conclusions with domain A's.
	Comparison
}

// InputTransfer collects two datasets - the standard inputs and the
// extended (fresh, larger) inputs of the same classes - and compares
// the conclusions. High agreement means the study's recommendations
// describe the input *classes*, not the specific graphs measured.
func InputTransfer(base measure.Options) (*TransferResult, error) {
	stdOpts := base
	stdOpts.Inputs = graph.StandardInputs()
	extOpts := base
	extOpts.Inputs = graph.ExtendedInputs()

	std, err := New(stdOpts)
	if err != nil {
		return nil, err
	}
	ext, err := New(extOpts)
	if err != nil {
		return nil, err
	}
	return &TransferResult{
		GlobalA:    std.Global().Strategy.Config(dataset.Tuple{}).String(),
		GlobalB:    ext.Global().Strategy.Config(dataset.Tuple{}).String(),
		Comparison: Compare(std, ext),
	}, nil
}

// SeedStability re-collects the dataset under each seed (first seed =
// this study's data is NOT reused; the sweep re-runs so options other
// than Seed must be supplied) and compares rankings and per-chip
// decisions across seeds.
func SeedStability(base measure.Options, seeds []uint64) (*SeedStabilityResult, error) {
	res := &SeedStabilityResult{Seeds: seeds}
	var ref *Study
	for i, seed := range seeds {
		o := base
		o.Seed = seed
		s, err := New(o)
		if err != nil {
			return nil, err
		}
		res.GlobalConfigs = append(res.GlobalConfigs,
			s.Global().Strategy.Config(dataset.Tuple{}).String())
		if i == 0 {
			ref = s
			res.RankTau = append(res.RankTau, 1)
			res.ChipAgreement = append(res.ChipAgreement, 1)
			continue
		}
		c := Compare(ref, s)
		res.RankTau = append(res.RankTau, c.RankTau)
		res.ChipAgreement = append(res.ChipAgreement, c.ChipAgreement)
	}
	return res, nil
}
