// Command gpuport reproduces the study end to end: it generates the
// dataset (running all 17 graph applications on the 3 inputs and
// sweeping the 96 optimisation configurations across the 6 chip
// models), runs the portability analysis, and prints every table and
// figure of the paper.
//
// Usage:
//
//	gpuport all                  print every table and figure
//	gpuport dataset -out d.csv   generate and save the dataset
//	gpuport table <1..10>        print one table
//	gpuport figure <1..5>        print one figure
//	gpuport micro                print Table X and Figure 5
//	gpuport inputs               print input properties (Table VIII)
//	gpuport decisions [dims]     print Algorithm 1 flag decisions for a
//	                             specialisation (global, chip, app,
//	                             input, chip_app, ... ); default global
//	gpuport sampling [dims]      Section IX future work: how small a
//	                             sample of the test domain suffices
//	gpuport predict [app|input|chip]
//	                             Section IX future work: leave-one-out
//	                             prediction for unseen environments
//	gpuport stability [N]        re-run the study under N seeds and
//	                             report how stable the conclusions are
//	gpuport transfer             re-run the study on fresh inputs of the
//	                             same classes and compare conclusions
//	gpuport report [-out f.md]   write the full study + extensions as a
//	                             markdown report (default REPORT.md)
//
// Flags (before the subcommand):
//
//	-seed N       noise seed (default 42)
//	-runs N       timed runs per cell (default 3)
//	-in file      load a previously saved dataset instead of generating
//	-out file     save the generated dataset as CSV
//	-faults spec  inject faults while collecting: "light", "heavy", or
//	              key=value pairs like "transient=0.05,corrupt=0.02"
//	              (see internal/fault); the run degrades gracefully to a
//	              partial dataset and reports its coverage
//	-resume file  persist completed cells to this checkpoint CSV as the
//	              sweep runs; an interrupted run (Ctrl-C) restarted with
//	              the same flag resumes bit-identically
//	-trace-cache dir
//	              content-addressed trace cache: (app, input) pairs
//	              whose traces are cached skip execution entirely, so
//	              repeated campaigns (and interrupted-then-retried
//	              trace phases) are near-instant; the dataset is
//	              bit-identical with or without the cache. Delete the
//	              directory (or any file in it) to invalidate; damaged
//	              entries are detected and re-traced
//	-trace-cache-mb N
//	              trace cache size cap in MiB (default 256); least-
//	              recently-used entries are evicted beyond it
//	-workers N    worker count for tracing and collection (default
//	              GOMAXPROCS)
//	-v            progress logging to stderr
//	-md           render tables as markdown instead of aligned text
//
// Observability flags (before the subcommand):
//
//	-obs-trace file
//	              export the run's observability timeline as Chrome
//	              trace-event JSON (loadable in Perfetto or
//	              chrome://tracing): the real harness track plus the
//	              simulated kernel timeline. Implies full span capture.
//	-obs-metrics file
//	              export Prometheus-style text metrics: pipeline
//	              counters, deterministic histograms, span/event totals
//	              and stage timings
//	-cpuprofile file / -memprofile file
//	              write pprof CPU / heap profiles of the run
//	              (see `make profile`); inspect with `go tool pprof`
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"

	"gpuport/internal/analysis"
	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/dataset"
	"gpuport/internal/fault"
	"gpuport/internal/graph"
	"gpuport/internal/measure"
	"gpuport/internal/microbench"
	"gpuport/internal/obs"
	"gpuport/internal/report"
	"gpuport/internal/study"
	"gpuport/internal/tracecache"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := runCtx(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "gpuport: interrupted; completed shards are saved when -resume is set")
		} else {
			fmt.Fprintln(os.Stderr, "gpuport:", err)
		}
		os.Exit(1)
	}
}

// run keeps the historical signature for tests; it is runCtx without
// cancellation.
func run(args []string, w io.Writer) error {
	return runCtx(context.Background(), args, w)
}

func runCtx(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("gpuport", flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "measurement noise seed")
	runs := fs.Int("runs", 3, "timed runs per cell")
	inFile := fs.String("in", "", "load dataset from CSV instead of generating")
	outFile := fs.String("out", "", "save generated dataset to CSV")
	faultSpec := fs.String("faults", "", "fault injection profile: none, light, heavy, or key=value pairs")
	resume := fs.String("resume", "", "checkpoint CSV: persist completed cells and resume interrupted sweeps")
	cacheDir := fs.String("trace-cache", "", "directory for the content-addressed trace cache (created if missing)")
	cacheMB := fs.Int("trace-cache-mb", 0, "trace cache size cap in MiB (default 256)")
	workers := fs.Int("workers", 0, "trace and collection workers (default GOMAXPROCS)")
	verbose := fs.Bool("v", false, "progress logging")
	md := fs.Bool("md", false, "render tables as markdown")
	obsTrace := fs.String("obs-trace", "", "export Chrome trace-event JSON (Perfetto-compatible) to this file")
	obsMetrics := fs.String("obs-metrics", "", "export Prometheus-style text metrics to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	report.Markdown = *md
	profile, err := fault.Parse(*faultSpec)
	if err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		rest = []string{"all"}
	}

	// The observability recorder outlives the subcommand: the exports
	// are written after it returns, whatever path it took. Span capture
	// stays off unless an export that needs it was requested.
	rec := obs.New()
	switch {
	case *obsTrace != "":
		rec.EnableSim()
	case *obsMetrics != "":
		rec.EnableTracing()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	opts := measure.Options{
		Seed:       *seed,
		Runs:       *runs,
		Ctx:        ctx,
		Workers:    *workers,
		Faults:     profile,
		Checkpoint: *resume,
		Obs:        rec,
	}
	// -v: live progress and the per-stage summary, on stderr only -
	// wall-clock is not reproducible output.
	var progress io.Writer
	if *verbose {
		progress = os.Stderr
		opts.Notify = progressSink(progress)
	}
	if *cacheDir != "" {
		store, err := tracecache.Open(*cacheDir, int64(*cacheMB)<<20)
		if err != nil {
			return err
		}
		opts.TraceCache = store.SetObs(rec)
	}
	loader := func() (*study.Study, error) {
		return loadOrCollect(*inFile, *outFile, opts, progress)
	}

	runErr := dispatch(rest, w, *seed, *inFile, *outFile, opts, progress, loader)
	if err := writeObsExports(rec, *obsTrace, *obsMetrics); err != nil && runErr == nil {
		runErr = err
	}
	if err := writeMemProfile(*memprofile); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

// writeObsExports renders the recorder's snapshot to the requested
// export files. Both exports share one snapshot so they describe the
// same instant.
func writeObsExports(rec *obs.Recorder, tracePath, metricsPath string) error {
	if tracePath == "" && metricsPath == "" {
		return nil
	}
	snap := rec.Snapshot()
	write := func(path string, render func(io.Writer, *obs.Snapshot) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f, snap); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(tracePath, obs.WriteChromeTrace); err != nil {
		return err
	}
	return write(metricsPath, obs.WriteMetrics)
}

// writeMemProfile writes a heap profile after a GC, so the numbers
// reflect live memory rather than collection timing.
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dispatch executes one subcommand. Split from runCtx so the
// observability exports and profiles wrap every path uniformly.
func dispatch(rest []string, w io.Writer, seed uint64, inFile, outFile string, opts measure.Options, progress io.Writer, loader func() (*study.Study, error)) error {
	switch rest[0] {
	case "all":
		s, err := loader()
		if err != nil {
			return err
		}
		return printAll(w, s, opts.Obs.Summary())
	case "dataset":
		s, err := loader()
		if err != nil {
			return err
		}
		if err := report.TuplesSummary(w, s.Dataset()); err != nil {
			return err
		}
		if err := printCampaign(w, s, opts.Obs.Summary()); err != nil {
			return err
		}
		if outFile == "" {
			fmt.Fprintln(w, "hint: pass -out file.csv to persist the dataset")
		}
		return nil
	case "table":
		if len(rest) < 2 {
			return fmt.Errorf("usage: gpuport table <1..10>")
		}
		n, err := strconv.Atoi(rest[1])
		if err != nil {
			return fmt.Errorf("bad table number %q", rest[1])
		}
		return printTable(w, n, loader)
	case "figure":
		if len(rest) < 2 {
			return fmt.Errorf("usage: gpuport figure <1..5>")
		}
		n, err := strconv.Atoi(rest[1])
		if err != nil {
			return fmt.Errorf("bad figure number %q", rest[1])
		}
		return printFigure(w, n, loader)
	case "micro":
		if err := printTableX(w); err != nil {
			return err
		}
		return printFigure5(w)
	case "inputs":
		return printInputs(w)
	case "sampling":
		dims := analysis.Dims{Chip: true}
		if len(rest) >= 2 {
			var err error
			dims, err = parseDims(rest[1])
			if err != nil {
				return err
			}
		}
		s, err := loader()
		if err != nil {
			return err
		}
		pts := s.SamplingCurve(dims, []float64{0.1, 0.2, 0.3, 0.5, 0.75, 1.0}, 5, seed)
		return report.SamplingCurve(w, dims, pts)
	case "predict":
		dim := analysis.LOOApp
		if len(rest) >= 2 {
			switch rest[1] {
			case "app":
				dim = analysis.LOOApp
			case "input":
				dim = analysis.LOOInput
			case "chip":
				dim = analysis.LOOChip
			default:
				return fmt.Errorf("unknown hold-out dimension %q (app, input or chip)", rest[1])
			}
		}
		s, err := loader()
		if err != nil {
			return err
		}
		return report.CrossValidation(w, dim.String(), s.CrossValidate(dim))
	case "report":
		// A full markdown report: every table and figure plus the
		// extension experiments. Written to -out (default REPORT.md).
		path := outFile
		if path == "" {
			path = "REPORT.md"
		}
		s, err := loadOrCollect(inFile, "", opts, progress)
		if err != nil {
			return err
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		prevMD := report.Markdown
		report.Markdown = true
		defer func() { report.Markdown = prevMD }()
		if err := writeFullReport(f, s, seed, opts.Obs.Summary()); err != nil {
			return err
		}
		fmt.Fprintf(w, "report written to %s\n", path)
		return nil
	case "transfer":
		base := opts
		base.Checkpoint = "" // one checkpoint cannot serve two sweeps
		res, err := study.InputTransfer(base)
		if err != nil {
			return err
		}
		t := report.NewTable("Do recommendations transfer to fresh inputs of the same classes?",
			"Metric", "Value").RightAlign(1)
		t.Row("global pick on standard inputs", res.GlobalA)
		t.Row("global pick on extended inputs", res.GlobalB)
		t.Row("per-chip decision agreement", report.F(res.ChipAgreement*100, 1)+"%")
		t.Row("decisions the fresh domain leaves open", report.F(res.ChipUndecided*100, 1)+"%")
		t.Row("Table III rank correlation (tau)", report.F(res.RankTau, 3))
		return t.Render(w)
	case "stability":
		n := 3
		if len(rest) >= 2 {
			v, err := strconv.Atoi(rest[1])
			if err != nil || v < 2 || v > 10 {
				return fmt.Errorf("stability wants 2..10 seeds, got %q", rest[1])
			}
			n = v
		}
		seeds := make([]uint64, n)
		for i := range seeds {
			seeds[i] = seed + uint64(i)
		}
		base := opts
		base.Checkpoint = "" // per-seed sweeps must not share a checkpoint
		res, err := study.SeedStability(base, seeds)
		if err != nil {
			return err
		}
		t := report.NewTable("Conclusion stability across measurement seeds",
			"Seed", "Global config", "Table III tau", "Table IX agreement").
			RightAlign(0, 2, 3)
		for i := range res.Seeds {
			t.Row(res.Seeds[i], res.GlobalConfigs[i],
				report.F(res.RankTau[i], 3), report.F(res.ChipAgreement[i]*100, 1)+"%")
		}
		return t.Render(w)
	case "decisions":
		dims := analysis.Dims{}
		if len(rest) >= 2 {
			var err error
			dims, err = parseDims(rest[1])
			if err != nil {
				return err
			}
		}
		s, err := loader()
		if err != nil {
			return err
		}
		printDecisions(w, s.Specialise(dims))
		return nil
	default:
		return fmt.Errorf("unknown command %q", rest[0])
	}
}

// emit chains renderer calls and plain writes, latching the first
// error so report assembly reads linearly. The report subcommand
// writes to a file, so write errors (disk full, closed pipe) must
// reach the exit status.
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

// writeFullReport emits the complete study plus the extension
// experiments as one markdown document.
func writeFullReport(w io.Writer, s *study.Study, seed uint64, pipeline *obs.Summary) error {
	e := &emit{w: w}
	e.ln("# gpuport study report")
	e.ln()
	e.f("Reproduction of \"One Size Doesn't Fit All\" (IISWC 2019); seed %d.\n\n", seed)
	e.do(printAll(w, s, pipeline))
	e.ln("\n## Extension: sampling sufficiency (Section IX future work)")
	e.ln()
	pts := s.SamplingCurve(analysis.Dims{Chip: true}, []float64{0.1, 0.2, 0.3, 0.5, 0.75, 1.0}, 5, seed)
	e.do(report.SamplingCurve(w, analysis.Dims{Chip: true}, pts))
	e.ln("\n## Extension: leave-one-out prediction (Section IX future work)")
	e.ln()
	for _, dim := range []analysis.LOODimension{analysis.LOOApp, analysis.LOOInput, analysis.LOOChip} {
		e.do(report.CrossValidation(w, dim.String(), s.CrossValidate(dim)))
		e.ln()
	}
	return e.err
}

func parseDims(name string) (analysis.Dims, error) {
	for _, d := range analysis.AllDims() {
		if d.Name() == name {
			return d, nil
		}
	}
	return analysis.Dims{}, fmt.Errorf("unknown specialisation %q (try global, chip, app, input, chip_app, ...)", name)
}

// progressSink is the -v measure.Options.Notify sink: one
// "<phase> <done>/<total>" line per event. Notify fires from worker
// goroutines, so the mutex keeps lines from interleaving.
func progressSink(w io.Writer) func(phase string, done, total int) {
	var mu sync.Mutex
	return func(phase string, done, total int) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(w, "%s %d/%d\n", phase, done, total)
	}
}

// loadOrCollect reads the dataset from inFile or collects it, saving it
// to outFile when set. A non-nil progress writer receives the
// collection's per-stage summary, read from opts.Obs.
func loadOrCollect(inFile, outFile string, opts measure.Options, progress io.Writer) (*study.Study, error) {
	if inFile != "" {
		f, err := os.Open(inFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		d, err := dataset.ReadCSV(f)
		if err != nil {
			return nil, err
		}
		return study.FromDataset(d), nil
	}
	s, err := study.New(opts)
	if err != nil {
		return nil, err
	}
	if progress != nil {
		// -v: stage wall-clock (trace vs sweep vs assemble) and cache
		// counters go to the progress stream, never the report proper.
		// Progress logging is advisory; a broken -v stream must not
		// abort the collection whose results are already in hand.
		_ = opts.Obs.Summary().Format(progress)
	}
	if outFile != "" {
		f, err := os.Create(outFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := s.Dataset().WriteCSV(f); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// printCampaign renders the collection accounting when there is
// anything to tell: fault injection, missing cells, resumed cells or
// checkpoint trouble. Clean non-resumed runs stay silent. pipeline
// summarises the collection's recorder (opts.Obs); the process ran one
// collection, so its cache counters are that collection's.
func printCampaign(w io.Writer, s *study.Study, pipeline *obs.Summary) error {
	// Trace-cache accounting renders whenever the cache saw traffic
	// (and nothing otherwise), independently of fault eventfulness.
	if err := report.TraceCacheSummary(w, pipeline); err != nil {
		return err
	}
	rep := s.Report()
	if rep == nil || !rep.Eventful() {
		return nil
	}
	e := &emit{w: w}
	e.do(report.Coverage(w, rep))
	e.do(report.FaultSummary(w, rep))
	e.do(report.PartialTuples(w, s.Dataset()))
	return e.err
}

func printAll(w io.Writer, s *study.Study, pipeline *obs.Summary) error {
	d := s.Dataset()
	e := &emit{w: w}
	e.do(report.TuplesSummary(w, d))
	e.do(printCampaign(w, s, pipeline))
	e.ln()
	e.do(report.Chips(w, chip.All()))
	e.ln()
	e.do(report.Extremes(w, s.Extremes()))
	e.f("max oracle geomean speedup over baseline: %.2fx\n\n", analysis.MaxOracleGeoMean(d))

	e.do(printTable3(w, s))
	e.ln()
	e.do(printTable4(w, s))
	e.ln()

	e.do(report.Strategies(w))
	e.ln()
	e.do(report.OptSummary(w))
	e.ln()
	e.do(report.Apps(w, apps.All()))
	e.ln()
	e.do(printInputs(w))
	e.ln()

	e.do(report.ChipRecommendations(w, s.PerChip()))
	e.ln()
	e.do(printTableX(w))
	e.ln()

	e.do(report.Heatmap(w, s.Heatmap()))
	e.ln()
	e.do(report.FlagFrequencies(w, analysis.TopSpeedupOpts(d)))
	e.ln()

	evals, excluded := s.Evaluations()
	e.do(report.StrategyOutcomes(w, evals, excluded))
	e.ln()
	e.do(report.StrategySlowdowns(w, evals))
	e.ln()
	e.do(printFigure5(w))
	return e.err
}

func globalConfig(s *study.Study) analysis.ConfigRank {
	cfg := s.Global().Strategy.Config(dataset.Tuple{})
	for _, r := range s.Ranks() {
		if r.Config == cfg {
			return r
		}
	}
	// The global recommendation can be the baseline; report rank -1.
	return analysis.ConfigRank{Rank: -1, Config: cfg}
}

func printTable3(w io.Writer, s *study.Study) error {
	return report.ConfigRanks(w, s.Ranks(), globalConfig(s), len(s.Dataset().Tuples()))
}

func printTable4(w io.Writer, s *study.Study) error {
	d := s.Dataset()
	maxGeo := analysis.MaxGeoMeanConfig(s.Ranks())
	ours := globalConfig(s)
	return report.ChipCounts(w,
		maxGeo.Config, analysis.PerChipCounts(d, maxGeo.Config),
		ours.Config, analysis.PerChipCounts(d, ours.Config))
}

func printTable(w io.Writer, n int, loader func() (*study.Study, error)) error {
	switch n {
	case 1:
		return report.Chips(w, chip.All())
	case 5:
		return report.Strategies(w)
	case 6:
		return report.OptSummary(w)
	case 7:
		return report.Apps(w, apps.All())
	case 8:
		return printInputs(w)
	case 10:
		return printTableX(w)
	}
	s, err := loader()
	if err != nil {
		return err
	}
	switch n {
	case 2:
		return report.Extremes(w, s.Extremes())
	case 3:
		return printTable3(w, s)
	case 4:
		return printTable4(w, s)
	case 9:
		return report.ChipRecommendations(w, s.PerChip())
	default:
		return fmt.Errorf("no table %d (valid: 1-10)", n)
	}
}

func printFigure(w io.Writer, n int, loader func() (*study.Study, error)) error {
	if n == 5 {
		return printFigure5(w)
	}
	s, err := loader()
	if err != nil {
		return err
	}
	switch n {
	case 1:
		return report.Heatmap(w, s.Heatmap())
	case 2:
		return report.FlagFrequencies(w, analysis.TopSpeedupOpts(s.Dataset()))
	case 3:
		evals, excluded := s.Evaluations()
		return report.StrategyOutcomes(w, evals, excluded)
	case 4:
		evals, _ := s.Evaluations()
		return report.StrategySlowdowns(w, evals)
	default:
		return fmt.Errorf("no figure %d (valid: 1-5)", n)
	}
}

func printDecisions(w io.Writer, spec *analysis.Specialisation) {
	for _, p := range spec.Partitions {
		fmt.Fprintf(w, "partition %s -> %s\n", p.Key, p.Config)
		for _, dec := range p.Decisions {
			fmt.Fprintf(w, "  %-8s enabled=%-5v confident=%-5v p=%.4f CL=%.2f median=%.3f comparisons=%d\n",
				dec.Flag, dec.Enabled, dec.Confident, dec.P, dec.CL, dec.MedianRatio, dec.Comparisons)
		}
	}
}

func printInputs(w io.Writer) error {
	var props []graph.Properties
	for _, g := range graph.StandardInputs() {
		props = append(props, graph.Analyze(g))
	}
	return report.Inputs(w, props)
}

func printTableX(w io.Writer) error {
	sgcmb, mdivg := microbench.TableX(chip.All())
	t := report.NewTable("Table X: microbenchmark speedups per chip", "Bench", "M4000", "GTX1080", "HD5500", "IRIS", "R9", "MALI").
		RightAlign(1, 2, 3, 4, 5, 6)
	row := func(name string, sp []microbench.Speedup) {
		cells := []any{name}
		for _, s := range sp {
			cells = append(cells, report.F(s.Factor, 2))
		}
		t.Row(cells...)
	}
	row("sg-cmb", sgcmb)
	row("m-divg", mdivg)
	return t.Render(w)
}

func printFigure5(w io.Writer) error {
	sweep := microbench.Figure5Sweep()
	t := report.NewTable("Figure 5: GPU utilisation vs kernel duration (10000 launches + copies)",
		"Kernel (us)", "M4000", "GTX1080", "HD5500", "IRIS", "R9", "MALI").
		RightAlign(0, 1, 2, 3, 4, 5, 6)
	chips := chip.All()
	series := make([][]microbench.UtilisationPoint, len(chips))
	for i, ch := range chips {
		series[i] = microbench.LaunchOverhead(ch, sweep)
	}
	for pi, t0 := range sweep {
		cells := []any{report.F(t0/1000, 0)}
		for ci := range chips {
			cells = append(cells, report.F(series[ci][pi].Utilisation*100, 0)+"%")
		}
		t.Row(cells...)
	}
	return t.Render(w)
}
