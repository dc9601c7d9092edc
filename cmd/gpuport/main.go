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
//	-resume file  persist completed cells to this checkpoint file as the
//	              sweep runs; an interrupted run (Ctrl-C) restarted with
//	              the same flags resumes bit-identically, and one with
//	              flags that change the dataset is refused
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
//	-v            progress, then each stage's wall-clock (timed by its
//	              span: -v turns span capture on), to stderr
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
	"gpuport/internal/dataset"
	"gpuport/internal/fault"
	"gpuport/internal/measure"
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
	resume := fs.String("resume", "", "checkpoint file: persist completed cells and resume interrupted sweeps")
	cacheDir := fs.String("trace-cache", "", "directory for the content-addressed trace cache (created if missing)")
	cacheMB := fs.Int("trace-cache-mb", 0, "trace cache size cap in MiB (default 256)")
	workers := fs.Int("workers", 0, "trace and collection workers (default GOMAXPROCS)")
	verbose := fs.Bool("v", false, "progress logging, then per-stage wall-clock and counters, on stderr")
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
	// stays off unless an export or -v (the stage spans) needs it.
	rec := obs.New()
	switch {
	case *obsTrace != "":
		rec.EnableSim()
	case *obsMetrics != "" || *verbose:
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
		return report.All(w, s, opts.Obs.Summary())
	case "dataset":
		s, err := loader()
		if err != nil {
			return err
		}
		if err := report.TuplesSummary(w, s.Dataset()); err != nil {
			return err
		}
		if err := report.Campaign(w, s, opts.Obs.Summary()); err != nil {
			return err
		}
		if outFile == "" {
			_, err = fmt.Fprintln(w, "hint: pass -out file.csv to persist the dataset")
		}
		return err
	case "table", "figure":
		render, last := report.PaperTable, 10
		if rest[0] == "figure" {
			render, last = report.PaperFigure, 5
		}
		if len(rest) < 2 {
			return fmt.Errorf("usage: gpuport %s <1..%d>", rest[0], last)
		}
		n, err := strconv.Atoi(rest[1])
		if err != nil {
			return fmt.Errorf("bad %s number %q", rest[0], rest[1])
		}
		return render(w, n, loader)
	case "micro":
		if err := report.PaperTable(w, 10, loader); err != nil {
			return err
		}
		return report.PaperFigure(w, 5, loader)
	case "inputs":
		return report.PaperTable(w, 8, loader)
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
		return report.Sampling(w, s, dims, seed)
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
		prevMD := report.Markdown
		report.Markdown = true
		defer func() { report.Markdown = prevMD }()
		err = report.Full(f, s, seed, opts.Obs.Summary())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "report written to %s\n", path)
		return err
	case "transfer":
		base := opts
		base.Checkpoint = "" // one checkpoint cannot serve two sweeps
		res, err := study.InputTransfer(base)
		if err != nil {
			return err
		}
		return report.Transfer(w, res)
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
		return report.Stability(w, res)
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
		return report.Decisions(w, s.Specialise(dims))
	default:
		return fmt.Errorf("unknown command %q", rest[0])
	}
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
// collection's per-stage summary, read from opts.Obs (whose stage lines
// need span capture).
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
