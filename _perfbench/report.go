package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"gpuport/internal/analysis"
	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/dataset"
	"gpuport/internal/graph"
	"gpuport/internal/measure"
	"gpuport/internal/microbench"
	"gpuport/internal/report"
	"gpuport/internal/study"
)

// gpuportBin is the gpuport command run.sh builds from the checkout.
const gpuportBin = ".bench_build/gpuport"

// runReport drives the report workload: the full REPORT.md - every
// table and figure, the sampling curve and three leave-one-out
// cross-validations - rendered from a dataset loaded during set-up.
// Untraced operations run the program itself, `gpuport -in d.csv
// report`, as a child process whose CPU time and peak RSS are the
// operation's. Traced operations run an in-process copy of its report
// path with a span around each analysis group. At seed 42 every report
// must equal the committed REPORT.md byte for byte; at other seeds
// every report must equal the run's first, which the program wrote.
func runReport(b *bench) error {
	report.Markdown = true
	var want []byte
	if b.seed == 42 {
		raw, err := os.ReadFile("REPORT.md")
		if err != nil {
			return fmt.Errorf("reference report: %w", err)
		}
		want = raw
	}
	if _, err := os.Stat(gpuportBin); err != nil {
		return fmt.Errorf("program under test: %w", err)
	}
	csvPath := filepath.Join(b.dir, "dataset.csv")
	var d *dataset.Dataset
	for i := 0; i < setupReps; i++ {
		err := b.setupRep(func() (err error) {
			d, err = b.loadDataset(csvPath)
			return err
		})
		if err != nil {
			return fmt.Errorf("set-up dataset: %w", err)
		}
	}
	b.info["load"] = "closed loop, one report at a time"
	if err := b.startWindow(); err != nil {
		return err
	}
	for i := 0; b.more(i); i++ {
		traced := b.traced && i%2 == 1
		op := b.op("report", i, traced)
		var out []byte
		var err error
		if traced {
			out, err = b.reportOnce(op, d)
		} else {
			out, err = b.reportChild(csvPath)
		}
		ms := op.end() * 1e3
		b.timeOp(ms, traced)
		switch {
		case err != nil:
			b.tally.fail("error")
		case want == nil:
			want = out
			b.tally.ok()
		case bytes.Equal(out, want):
			b.tally.ok()
		default:
			b.tally.fail("report-mismatch")
		}
		if traced {
			op.note("report.bytes", float64(len(out)))
			var analysed float64
			for name, v := range b.cur {
				if strings.HasPrefix(name, "analysis.") && strings.HasSuffix(name, "_s") {
					analysed += v
				}
			}
			op.note("analysis.share", analysed/(ms/1e3))
			b.flushOp()
		}
	}
	return b.endWindow()
}

// reportChild runs `gpuport -seed N -in csvPath -out F report`, the
// program's own report path, and returns the report it wrote. Its CPU
// time reaches the window through the children's rusage; its peak RSS
// is kept in b.childRSS.
func (b *bench) reportChild(csvPath string) ([]byte, error) {
	outPath := filepath.Join(b.dir, "report.md")
	cmd := exec.Command(gpuportBin, "-seed", strconv.FormatUint(b.seed, 10), "-in", csvPath, "-out", outPath, "report")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		b.childRSS = max(b.childRSS, float64(ru.Maxrss)/1024) // Maxrss is in KiB
	}
	out, err := os.ReadFile(outPath)
	if err != nil {
		return nil, err
	}
	return out, os.Remove(outPath)
}

// loadDataset collects the seed's standard dataset, writes it to
// csvPath and loads it back, the path from `gpuport -out d.csv dataset`
// to `gpuport -in d.csv report`. Only the CSV round trip feeds the
// per-layer figures; the collection is the workload's input.
func (b *bench) loadDataset(csvPath string) (*dataset.Dataset, error) {
	src, err := measure.Collect(measure.Options{Seed: b.seed, Runs: 3, Workers: b.workers})
	if err != nil {
		return nil, err
	}
	op := b.op("setup", len(b.setup), b.traced)
	wr := op.child("dataset.write_csv")
	var buf bytes.Buffer
	if err := src.WriteCSV(&buf); err != nil {
		return nil, err
	}
	wr.endLayer("dataset.write_csv_s")
	op.note("dataset.csv_bytes", float64(buf.Len()))
	if err := os.WriteFile(csvPath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	rd := op.child("dataset.read_csv")
	d, err := dataset.ReadCSV(&buf)
	rd.endLayer("dataset.read_csv_s")
	op.end()
	if op.live {
		b.flushOp()
	}
	return d, err
}

// reportData is every analysis result the report renders.
type reportData struct {
	d                      *dataset.Dataset
	extremes               []analysis.Extreme
	maxOracle              float64
	ranks                  []analysis.ConfigRank
	global, maxGeo         analysis.ConfigRank
	countsMaxGeo, countsUs []analysis.ChipCounts
	tuples                 int
	props                  []graph.Properties
	perChip                *analysis.Specialisation
	sgcmb, mdivg           []microbench.Speedup
	heat                   *analysis.Heatmap
	flagFreqs              []analysis.FlagFrequency
	evals                  []analysis.StrategyEval
	excluded               int
	fig5Sweep              []float64
	fig5                   [][]microbench.UtilisationPoint
	sampling               []analysis.SamplingPoint
	loo                    [][]analysis.LOOResult
}

// looDims are the report's three leave-one-out dimensions, in order.
var looDims = []analysis.LOODimension{analysis.LOOApp, analysis.LOOInput, analysis.LOOChip}

// samplingFractions are the sampling curve's subsample sizes.
var samplingFractions = []float64{0.1, 0.2, 0.3, 0.5, 0.75, 1.0}

// reportOnce analyses a fresh study over d, one span per analysis group,
// then renders the report. It and renderReport are a copy of
// cmd/gpuport's writeFullReport with the analyses pulled ahead of the
// rendering so each gets its own span; a traced run checks its bytes
// against the program's own report, so the copy cannot drift unseen.
func (b *bench) reportOnce(op *span, d *dataset.Dataset) ([]byte, error) {
	s := study.FromDataset(d)
	var before runtime.MemStats
	if op.live {
		runtime.ReadMemStats(&before)
	}
	r := &reportData{d: d}

	sp := op.child("analysis.specialise")
	for _, dims := range analysis.AllDims() {
		s.Specialise(dims)
	}
	sp.endLayer("analysis.specialise_s")

	rk := op.child("analysis.ranks")
	r.ranks = s.Ranks()
	rk.endLayer("analysis.ranks_s")

	ev := op.child("analysis.evaluate")
	r.evals, r.excluded = s.Evaluations()
	ev.endLayer("analysis.evaluate_s")

	tb := op.child("analysis.tables")
	r.extremes = s.Extremes()
	r.maxOracle = analysis.MaxOracleGeoMean(d)
	r.global = globalConfig(s, r.ranks)
	r.maxGeo = analysis.MaxGeoMeanConfig(r.ranks)
	r.countsMaxGeo = analysis.PerChipCounts(d, r.maxGeo.Config)
	r.countsUs = analysis.PerChipCounts(d, r.global.Config)
	r.tuples = len(d.Tuples())
	r.perChip = s.PerChip()
	r.heat = s.Heatmap()
	r.flagFreqs = analysis.TopSpeedupOpts(d)
	r.sgcmb, r.mdivg = microbench.TableX(chip.All())
	r.fig5Sweep = microbench.Figure5Sweep()
	for _, ch := range chip.All() {
		r.fig5 = append(r.fig5, microbench.LaunchOverhead(ch, r.fig5Sweep))
	}
	tb.endLayer("analysis.tables_s")

	// Table VIII regenerates the standard inputs to describe them.
	gg := op.child("graph.generate")
	inputs := graph.StandardInputs()
	gg.endLayer("graph.generate_s")
	ip := op.child("analysis.input-properties")
	for _, g := range inputs {
		r.props = append(r.props, graph.Analyze(g))
	}
	ip.endLayer("analysis.tables_s")

	sa := op.child("analysis.sampling")
	r.sampling = s.SamplingCurve(analysis.Dims{Chip: true}, samplingFractions, 5, b.seed)
	sa.endLayer("analysis.sampling_s")

	cv := op.child("analysis.crossval")
	for _, dim := range looDims {
		r.loo = append(r.loo, s.CrossValidate(dim))
	}
	cv.endLayer("analysis.crossval_s")

	if op.live {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		op.note("analysis.allocs", float64(after.Mallocs-before.Mallocs))
	}

	rn := op.child("report.render")
	var buf bytes.Buffer
	err := renderReport(&buf, r, b.seed)
	rn.endLayer("report.render_s")
	return buf.Bytes(), err
}

// globalConfig is the fully portable recommendation's Table III row (rank
// -1 when the recommendation is the baseline).
func globalConfig(s *study.Study, ranks []analysis.ConfigRank) analysis.ConfigRank {
	cfg := s.Global().Strategy.Config(dataset.Tuple{})
	for _, r := range ranks {
		if r.Config == cfg {
			return r
		}
	}
	return analysis.ConfigRank{Rank: -1, Config: cfg}
}

// emit chains renderer calls and plain writes, latching the first
// error.
type emit struct {
	w   io.Writer
	err error
}

func (e *emit) do(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *emit) f(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

func (e *emit) ln(args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintln(e.w, args...)
	}
}

// renderReport writes the report in the layout of `gpuport report`.
func renderReport(w io.Writer, r *reportData, seed uint64) error {
	e := &emit{w: w}
	e.ln("# gpuport study report")
	e.ln()
	e.f("Reproduction of \"One Size Doesn't Fit All\" (IISWC 2019); seed %d.\n\n", seed)

	e.do(report.TuplesSummary(w, r.d))
	e.ln()
	e.do(report.Chips(w, chip.All()))
	e.ln()
	e.do(report.Extremes(w, r.extremes))
	e.f("max oracle geomean speedup over baseline: %.2fx\n\n", r.maxOracle)
	e.do(report.ConfigRanks(w, r.ranks, r.global, r.tuples))
	e.ln()
	e.do(report.ChipCounts(w, r.maxGeo.Config, r.countsMaxGeo, r.global.Config, r.countsUs))
	e.ln()
	e.do(report.Strategies(w))
	e.ln()
	e.do(report.OptSummary(w))
	e.ln()
	e.do(report.Apps(w, apps.All()))
	e.ln()
	e.do(report.Inputs(w, r.props))
	e.ln()
	e.do(report.ChipRecommendations(w, r.perChip))
	e.ln()

	tx := report.NewTable("Table X: microbenchmark speedups per chip", "Bench", "M4000", "GTX1080", "HD5500", "IRIS", "R9", "MALI").
		RightAlign(1, 2, 3, 4, 5, 6)
	for _, row := range []struct {
		name string
		sp   []microbench.Speedup
	}{{"sg-cmb", r.sgcmb}, {"m-divg", r.mdivg}} {
		cells := []any{row.name}
		for _, s := range row.sp {
			cells = append(cells, report.F(s.Factor, 2))
		}
		tx.Row(cells...)
	}
	e.do(tx.Render(w))
	e.ln()

	e.do(report.Heatmap(w, r.heat))
	e.ln()
	e.do(report.FlagFrequencies(w, r.flagFreqs))
	e.ln()
	e.do(report.StrategyOutcomes(w, r.evals, r.excluded))
	e.ln()
	e.do(report.StrategySlowdowns(w, r.evals))
	e.ln()

	f5 := report.NewTable("Figure 5: GPU utilisation vs kernel duration (10000 launches + copies)",
		"Kernel (us)", "M4000", "GTX1080", "HD5500", "IRIS", "R9", "MALI").
		RightAlign(0, 1, 2, 3, 4, 5, 6)
	for pi, t0 := range r.fig5Sweep {
		cells := []any{report.F(t0/1000, 0)}
		for ci := range r.fig5 {
			cells = append(cells, report.F(r.fig5[ci][pi].Utilisation*100, 0)+"%")
		}
		f5.Row(cells...)
	}
	e.do(f5.Render(w))

	e.ln("\n## Extension: sampling sufficiency (Section IX future work)")
	e.ln()
	e.do(report.SamplingCurve(w, analysis.Dims{Chip: true}, r.sampling))
	e.ln("\n## Extension: leave-one-out prediction (Section IX future work)")
	e.ln()
	for k, dim := range looDims {
		e.do(report.CrossValidation(w, dim.String(), r.loo[k]))
		e.ln()
	}
	return e.err
}
