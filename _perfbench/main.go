// Command perfbench is the repository benchmark. It runs one workload
// in-process against the gpuport packages, checks every output against
// its reference, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics) as the last line of standard output:
//
//	perfbench -workload study|report|serve-mix -seed N -seconds S -trace 0|1
//	perfbench spread FILE...    quartile spread of saved result lines
//
// Run it through run.sh from the repository root, which builds it from
// the checkout's sources first. BENCHMARK.json at the root records the
// workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gpuport/internal/obs"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 3

// minOps is the fewest measured operations a run makes, whatever its
// time budget: a traced run alternates untraced and traced operations
// and needs one of each.
const minOps = 2

// workloads maps each workload name to its driver.
var workloads = map[string]func(*bench) error{
	"study":     runStudy,
	"report":    runReport,
	"serve-mix": runServeMix,
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run. An operation is one study, one full report or one
// campaign (POST plus the blocking result GET), depending on the
// workload. The time metrics are CPU time: on a shared host the wall
// clock of the same work swings by a third for minutes at a time, while
// CPU time, which leaves out time stolen by the hypervisor, holds within
// a few percent. Wall-clock latency goes to the machine block.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_cpu_ms", "ms"},
	{"peak_rss_mb", "MiB"},
	{"success_ratio", "ratio"},
}

// perLayer are the traced run's metrics, one group per layer. A layer
// the workload does not reach reads 0.
var perLayer = []metricDef{
	{"graph.generate_s", "s"},
	{"graph.fingerprint_s", "s"},
	{"irgl.trace_busy_s", "s"},
	{"irgl.trace_wall_s", "s"},
	{"irgl.trace_max_pair_s", "s"},
	{"irgl.trace_parallel_eff", "ratio"},
	{"irgl.launches", "count"},
	{"irgl.edge_work", "count"},
	{"tracecache.get_s", "s"},
	{"tracecache.put_s", "s"},
	{"tracecache.hits", "count"},
	{"tracecache.misses", "count"},
	{"tracecache.hit_ratio", "ratio"},
	{"columnar.build_s", "s"},
	{"measure.sweep_s", "s"},
	{"measure.cells", "count"},
	{"measure.assemble_s", "s"},
	{"dataset.write_csv_s", "s"},
	{"dataset.read_csv_s", "s"},
	{"dataset.csv_bytes", "bytes"},
	{"analysis.ranks_s", "s"},
	{"analysis.specialise_s", "s"},
	{"analysis.evaluate_s", "s"},
	{"analysis.crossval_s", "s"},
	{"analysis.sampling_s", "s"},
	{"analysis.tables_s", "s"},
	{"analysis.allocs", "count"},
	{"analysis.share", "ratio"},
	{"report.render_s", "s"},
	{"report.bytes", "bytes"},
	{"server.resolve_ms", "ms"},
	{"server.submit_ms_p50", "ms"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.run_ms_p50", "ms"},
	{"server.result_ms_p50", "ms"},
	{"server.dedupe_ratio", "ratio"},
	{"check.trace_stage_ratio", "ratio"},
	{"check.sweep_stage_ratio", "ratio"},
	{"check.assemble_stage_ratio", "ratio"},
	{"bench.trace_overhead", "ratio"},
	{"serve.lateness_p90_ms", "ms"},
	{"serve.backlog_end", "count"},
}

// bench is the state of one run.
type bench struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	// workers is the load's parallelism: at most one work goroutine
	// per CPU.
	workers int
	// dir is the run's scratch directory inside the checkout.
	dir string
	// rec records the benchmark's own spans; tracing is on only in a
	// traced run.
	rec   *obs.Recorder
	tally tally

	setup     []float64 // CPU seconds per set-up repetition
	setupWall []float64 // wall seconds per set-up repetition
	ops       []float64 // wall ms per untraced operation
	tracedOps []float64 // wall ms per traced operation (traced runs only)

	// rate is serve-mix's offered rate in campaigns per second.
	rate float64

	// t0 and cpu0 open the measured window; windowCPU is the CPU seconds
	// it consumed, child processes included, and windowRSS the peak
	// resident memory of the program under test within it.
	t0        time.Time
	cpu0      float64
	windowCPU float64
	windowRSS float64
	// childRSS is the largest peak RSS, in MiB, of a child program the
	// window ran; 0 when the program ran in-process.
	childRSS float64

	// cur accumulates the per-layer figures of the traced operation in
	// progress; flushOp moves them into layers.
	cur    map[string]float64
	layers map[string][]float64

	// info extends the machine block (offered rate, health figures).
	info map[string]any
	// invalid names the failed health check of a run whose figures
	// must not be used.
	invalid string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		if err := spreadMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: study, report or serve-mix")
	seed := fs.Uint64("seed", 42, "workload seed: measurement noise and the campaign mix derive from it")
	seconds := fs.Int("seconds", 30, "measured window in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	rate := fs.Float64("rate", offeredRate, "serve-mix offered rate in campaigns/s; other rates serve capacity measurements")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rate <= 0 {
		return fmt.Errorf("-rate must be positive, got %g", *rate)
	}
	drive, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (study, report or serve-mix)", *workload)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b := &bench{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		rate:     *rate,
		workers:  runtime.GOMAXPROCS(0),
		dir:      dir,
		rec:      obs.New(),
		cur:      map[string]float64{},
		layers:   map[string][]float64{},
		info:     map[string]any{},
	}
	if b.workers > runtime.NumCPU() {
		b.workers = runtime.NumCPU()
	}
	if b.traced {
		b.rec.EnableTracing()
	}
	if err := drive(b); err != nil {
		return err
	}
	if b.traced {
		if err := b.writeTrace(); err != nil {
			return err
		}
	}
	return b.print(w)
}

// span is one timed section. In a traced operation it is also recorded
// on the benchmark's recorder and feeds the per-layer figures; in an
// untraced one it only measures.
type span struct {
	b    *bench
	h    *obs.SpanHandle
	t0   time.Time
	live bool
}

// op opens the root span of operation i.
func (b *bench) op(name string, i int, traced bool) *span {
	s := &span{b: b, t0: time.Now(), live: traced}
	if traced {
		s.h = b.rec.StartSpan(name, 0, obs.Int("op", int64(i)))
	}
	return s
}

// probes opens the root span of the layer probes that follow traced
// operation number len(b.tracedOps).
func (b *bench) probes() *span {
	return &span{b: b, h: b.rec.StartSpan("probes", 0, obs.Int("op", int64(len(b.tracedOps)))), t0: time.Now(), live: true}
}

// child opens a span under s. Siblings sharing a name need attributes
// that tell them apart, since span identity derives from both.
func (s *span) child(name string, attrs ...obs.Attr) *span {
	return &span{b: s.b, h: s.h.StartSpan(name, 0, attrs...), t0: time.Now(), live: s.live}
}

// end closes the span and returns its duration in seconds.
func (s *span) end() float64 {
	s.h.End()
	return time.Since(s.t0).Seconds()
}

// endLayer closes the span and adds its duration to a per-layer figure.
func (s *span) endLayer(metric string) float64 {
	secs := s.end()
	s.note(metric, secs)
	return secs
}

// note adds v to a per-layer figure of the operation in progress.
func (s *span) note(metric string, v float64) {
	if s.live {
		s.b.cur[metric] += v
	}
}

// flushOp closes the per-layer figures of one traced operation.
func (b *bench) flushOp() {
	for name, v := range b.cur {
		b.layers[name] = append(b.layers[name], v)
	}
	b.cur = map[string]float64{}
}

// timeOp records one operation's latency in ms as traced or untraced.
func (b *bench) timeOp(ms float64, traced bool) {
	if traced {
		b.tracedOps = append(b.tracedOps, ms)
	} else {
		b.ops = append(b.ops, ms)
	}
}

// more reports whether a run that has made n operations in its window
// should start another.
func (b *bench) more(n int) bool {
	return n < minOps || time.Since(b.t0) < b.window
}

// setupRep times one repetition of a workload's set-up.
func (b *bench) setupRep(fn func() error) error {
	t0, cpu0 := time.Now(), cpuSeconds()
	if err := fn(); err != nil {
		return err
	}
	b.setup = append(b.setup, cpuSeconds()-cpu0)
	b.setupWall = append(b.setupWall, time.Since(t0).Seconds())
	return nil
}

// startWindow opens the measured window. It returns set-up's garbage to
// the OS and resets the process's peak RSS to its current RSS, so the
// peak read at endWindow is the window's, not set-up's.
func (b *bench) startWindow() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	_, err = f.WriteString("5")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	b.t0, b.cpu0 = time.Now(), cpuSeconds()
	return nil
}

// endWindow closes the window once its last operation has finished,
// before any verification or probe runs.
func (b *bench) endWindow() error {
	b.windowCPU = cpuSeconds() - b.cpu0
	if b.childRSS > 0 {
		b.windowRSS = b.childRSS
		return nil
	}
	rss, err := peakRSSMiB()
	b.windowRSS = rss
	return err
}

// cpuSeconds is the CPU time, user plus system, the process and its
// waited-for children have used.
func cpuSeconds() float64 {
	var secs float64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			return 0
		}
		secs += float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	return secs
}

// peakRSSMiB reads the process's peak resident set size since its last
// reset.
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the machine block, then the result line.
func (b *bench) print(w io.Writer) error {
	attempted, failed := b.tally.counts()
	res := result{
		Correct:   failed == 0 && b.invalid == "",
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	if b.traced {
		if len(b.ops) > 0 && len(b.tracedOps) > 0 {
			b.layers["bench.trace_overhead"] = []float64{median(b.tracedOps)/median(b.ops) - 1}
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{median(b.layers[m.name]), m.unit}
		}
	} else {
		values := map[string]float64{
			"setup_s":       median(b.setup),
			"op_cpu_ms":     ratio(b.windowCPU*1e3, float64(len(b.ops))),
			"peak_rss_mb":   b.windowRSS,
			"success_ratio": b.tally.successRatio(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
	}
	machine := map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goarch":     runtime.GOARCH,
		"goos":       runtime.GOOS,
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.window.Seconds(),
		"traced":     b.traced,
		"workers":    b.workers,
		"operations": len(b.ops) + len(b.tracedOps),
		// Wall-clock figures: what a user waits, on this host at this
		// time.
		"latency_p50_ms": percentile(b.ops, 50),
		"latency_p90_ms": percentile(b.ops, 90),
		"setup_wall_s":   median(b.setupWall),
	}
	for k, v := range b.info {
		machine[k] = v
	}
	if b.invalid != "" {
		machine["invalid"] = b.invalid
	}
	if failed > 0 {
		machine["failures"] = b.tally.summary()
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"machine": machine}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// writeTrace exports the traced run's spans as Chrome trace JSON, which
// `obsview summary` reads to compute per-span self time.
func (b *bench) writeTrace() error {
	path := filepath.Join(".bench_build", "trace-"+b.workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, b.rec.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spreadMain reads saved run outputs (any lines; result lines are the
// ones carrying "metrics") and prints, per metric, the sample count,
// median, quartiles and the interquartile range as a share of the
// median.
func spreadMain(files []string, w io.Writer) error {
	samples := map[string][]float64{}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(raw), "\n") {
			var res result
			if json.Unmarshal([]byte(line), &res) != nil || res.Metrics == nil {
				continue
			}
			for name, m := range res.Metrics {
				samples[name] = append(samples[name], m.Value)
			}
		}
	}
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		q1, q2, q3 := quartiles(samples[name])
		if _, err := fmt.Fprintf(w, "%-28s n=%-3d median=%-14.6g q1=%-14.6g q3=%-14.6g spread=%.4f\n",
			name, len(samples[name]), q2, q1, q3, relativeSpread(samples[name])); err != nil {
			return err
		}
	}
	return nil
}
