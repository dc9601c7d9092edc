package report

import (
	"fmt"
	"io"

	"gpuport/internal/analysis"
	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/dataset"
	"gpuport/internal/graph"
	"gpuport/internal/microbench"
	"gpuport/internal/obs"
	"gpuport/internal/study"
)

// section is one of the paper's numbered results, a table or a figure.
type section struct {
	kind    string // "table" or "figure"
	num     int
	dataset bool // render reads the study; the others describe fixed data
	render  func(w io.Writer) error
	// aside, when set, is a line All prints after the section.
	aside func() string
}

// paper lists Tables I-X, then Figures 1-5, in the order All renders
// them, each rendering from s (nil will do for the fixed ones). It is
// built per call, not held in a package variable, so that the
// determinism gate's call graph, which follows static references inside
// function declarations, reaches every entry's body.
func paper(s *study.Study) []section {
	return []section{
		{kind: "table", num: 1, render: func(w io.Writer) error { return Chips(w, chip.All()) }},
		{kind: "table", num: 2, dataset: true, render: func(w io.Writer) error { return Extremes(w, s.Extremes()) },
			aside: func() string {
				return fmt.Sprintf("max oracle geomean speedup over baseline: %.2fx\n", analysis.MaxOracleGeoMean(s.Dataset()))
			}},
		{kind: "table", num: 3, dataset: true, render: func(w io.Writer) error {
			return ConfigRanks(w, s.Ranks(), globalRank(s), len(s.Dataset().Tuples()))
		}},
		{kind: "table", num: 4, dataset: true, render: func(w io.Writer) error {
			d, maxGeo, ours := s.Dataset(), analysis.MaxGeoMeanConfig(s.Ranks()), globalRank(s)
			return ChipCounts(w,
				maxGeo.Config, analysis.PerChipCounts(d, maxGeo.Config),
				ours.Config, analysis.PerChipCounts(d, ours.Config))
		}},
		{kind: "table", num: 5, render: Strategies},
		{kind: "table", num: 6, render: OptSummary},
		{kind: "table", num: 7, render: func(w io.Writer) error { return Apps(w, apps.All()) }},
		{kind: "table", num: 8, render: func(w io.Writer) error {
			var props []graph.Properties
			for _, g := range graph.StandardInputs() { // regenerated to describe them
				props = append(props, graph.Analyze(g))
			}
			return Inputs(w, props)
		}},
		{kind: "table", num: 9, dataset: true, render: func(w io.Writer) error { return ChipRecommendations(w, s.PerChip()) }},
		{kind: "table", num: 10, render: microbenchSpeedups},
		{kind: "figure", num: 1, dataset: true, render: func(w io.Writer) error { return Heatmap(w, s.Heatmap()) }},
		{kind: "figure", num: 2, dataset: true, render: func(w io.Writer) error {
			return FlagFrequencies(w, analysis.TopSpeedupOpts(s.Dataset()))
		}},
		{kind: "figure", num: 3, dataset: true, render: func(w io.Writer) error {
			evals, excluded := s.Evaluations()
			return StrategyOutcomes(w, evals, excluded)
		}},
		{kind: "figure", num: 4, dataset: true, render: func(w io.Writer) error {
			evals, _ := s.Evaluations()
			return StrategySlowdowns(w, evals)
		}},
		{kind: "figure", num: 5, render: launchUtilisation},
	}
}

// PaperTable renders Table n. load supplies the study and is called
// only for a table that reads the dataset, so the fixed tables and an
// unknown number never load or collect one.
func PaperTable(w io.Writer, n int, load func() (*study.Study, error)) error {
	return paperSection(w, "table", n, load)
}

// PaperFigure renders Figure n, calling load as PaperTable does.
func PaperFigure(w io.Writer, n int, load func() (*study.Study, error)) error {
	return paperSection(w, "figure", n, load)
}

func paperSection(w io.Writer, kind string, n int, load func() (*study.Study, error)) error {
	count := 0
	for i, sec := range paper(nil) {
		if sec.kind != kind {
			continue
		}
		count++
		if sec.num != n {
			continue
		}
		if !sec.dataset {
			return sec.render(w)
		}
		s, err := load()
		if err != nil {
			return err
		}
		return paper(s)[i].render(w)
	}
	return fmt.Errorf("no %s %d (valid: 1-%d)", kind, n, count)
}

// All renders the study's dataset summary and campaign accounting,
// then every table and figure of the paper, a blank line before each.
func All(w io.Writer, s *study.Study, pipeline *obs.Summary) error {
	p := &printer{w: w}
	p.do(TuplesSummary(w, s.Dataset()))
	p.do(Campaign(w, s, pipeline))
	for _, sec := range paper(s) {
		p.ln()
		p.do(sec.render(w))
		if sec.aside != nil {
			p.f("%s", sec.aside())
		}
	}
	return p.err
}

// Full renders REPORT.md: a title naming the seed, All, and the
// Section IX extension experiments.
func Full(w io.Writer, s *study.Study, seed uint64, pipeline *obs.Summary) error {
	p := &printer{w: w}
	p.ln("# gpuport study report")
	p.ln()
	p.f("Reproduction of \"One Size Doesn't Fit All\" (IISWC 2019); seed %d.\n\n", seed)
	p.do(All(w, s, pipeline))
	p.ln("\n## Extension: sampling sufficiency (Section IX future work)")
	p.ln()
	p.do(Sampling(w, s, analysis.Dims{Chip: true}, seed))
	p.ln("\n## Extension: leave-one-out prediction (Section IX future work)")
	p.ln()
	for _, dim := range []analysis.LOODimension{analysis.LOOApp, analysis.LOOInput, analysis.LOOChip} {
		p.do(CrossValidation(w, dim.String(), s.CrossValidate(dim)))
		p.ln()
	}
	return p.err
}

// Campaign renders the collection's accounting: trace-cache traffic from
// pipeline, then fault injection, missing or resumed cells and
// checkpoint trouble. A clean, uncached run renders nothing.
func Campaign(w io.Writer, s *study.Study, pipeline *obs.Summary) error {
	if err := TraceCacheSummary(w, pipeline); err != nil {
		return err
	}
	rep := s.Report()
	if rep == nil || !rep.Eventful() {
		return nil
	}
	p := &printer{w: w}
	p.do(Coverage(w, rep))
	p.do(FaultSummary(w, rep))
	p.do(PartialTuples(w, s.Dataset()))
	return p.err
}

// Sampling renders the sampling-sufficiency curve for a
// specialisation: five random subsamples of the test domain at each of
// six sizes, drawn from seed.
func Sampling(w io.Writer, s *study.Study, dims analysis.Dims, seed uint64) error {
	pts := s.SamplingCurve(dims, []float64{0.1, 0.2, 0.3, 0.5, 0.75, 1.0}, 5, seed)
	return SamplingCurve(w, dims, pts)
}

// Decisions lists Algorithm 1's flag decisions for every partition of
// a specialisation, one partition header and one line per flag.
func Decisions(w io.Writer, spec *analysis.Specialisation) error {
	p := &printer{w: w}
	for _, part := range spec.Partitions {
		p.f("partition %s -> %s\n", part.Key, part.Config)
		for _, dec := range part.Decisions {
			p.f("  %-8s enabled=%-5v confident=%-5v p=%.4f CL=%.2f median=%.3f comparisons=%d\n",
				dec.Flag, dec.Enabled, dec.Confident, dec.P, dec.CL, dec.MedianRatio, dec.Comparisons)
		}
	}
	return p.err
}

// Transfer renders whether recommendations survive on fresh inputs.
func Transfer(w io.Writer, res *study.TransferResult) error {
	t := NewTable("Do recommendations transfer to fresh inputs of the same classes?",
		"Metric", "Value").RightAlign(1)
	t.Row("global pick on standard inputs", res.GlobalA)
	t.Row("global pick on extended inputs", res.GlobalB)
	t.Row("per-chip decision agreement", F(res.ChipAgreement*100, 1)+"%")
	t.Row("decisions the fresh domain leaves open", F(res.ChipUndecided*100, 1)+"%")
	t.Row("Table III rank correlation (tau)", F(res.RankTau, 3))
	return t.Render(w)
}

// Stability renders how the conclusions move across measurement seeds.
func Stability(w io.Writer, res *study.SeedStabilityResult) error {
	t := NewTable("Conclusion stability across measurement seeds",
		"Seed", "Global config", "Table III tau", "Table IX agreement").
		RightAlign(0, 2, 3)
	for i := range res.Seeds {
		t.Row(res.Seeds[i], res.GlobalConfigs[i],
			F(res.RankTau[i], 3), F(res.ChipAgreement[i]*100, 1)+"%")
	}
	return t.Render(w)
}

// globalRank is the global strategy's pick as a Table III row. The
// pick can be the baseline, which Table III does not rank: rank -1.
func globalRank(s *study.Study) analysis.ConfigRank {
	cfg := s.Global().Strategy.Config(dataset.Tuple{})
	for _, r := range s.Ranks() {
		if r.Config == cfg {
			return r
		}
	}
	return analysis.ConfigRank{Rank: -1, Config: cfg}
}

// microbenchSpeedups renders Table X: the sg-cmb and m-divg
// microbenchmark speedups on each chip.
func microbenchSpeedups(w io.Writer) error {
	sgcmb, mdivg := microbench.TableX(chip.All())
	t := NewTable("Table X: microbenchmark speedups per chip", "Bench", "M4000", "GTX1080", "HD5500", "IRIS", "R9", "MALI").
		RightAlign(1, 2, 3, 4, 5, 6)
	row := func(name string, sp []microbench.Speedup) {
		cells := []any{name}
		for _, s := range sp {
			cells = append(cells, F(s.Factor, 2))
		}
		t.Row(cells...)
	}
	row("sg-cmb", sgcmb)
	row("m-divg", mdivg)
	return t.Render(w)
}

// launchUtilisation renders Figure 5: each chip's utilisation over the
// standard sweep of kernel durations, launch and copy overhead included.
func launchUtilisation(w io.Writer) error {
	sweep := microbench.Figure5Sweep()
	t := NewTable("Figure 5: GPU utilisation vs kernel duration (10000 launches + copies)",
		"Kernel (us)", "M4000", "GTX1080", "HD5500", "IRIS", "R9", "MALI").
		RightAlign(0, 1, 2, 3, 4, 5, 6)
	chips := chip.All()
	series := make([][]microbench.UtilisationPoint, len(chips))
	for i, ch := range chips {
		series[i] = microbench.LaunchOverhead(ch, sweep)
	}
	for pi, t0 := range sweep {
		cells := []any{F(t0/1000, 0)}
		for ci := range chips {
			cells = append(cells, F(series[ci][pi].Utilisation*100, 0)+"%")
		}
		t.Row(cells...)
	}
	return t.Render(w)
}
