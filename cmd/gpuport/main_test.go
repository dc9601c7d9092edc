package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/graph"
	"gpuport/internal/measure"
	"gpuport/internal/obs"
)

// The dataset-generating commands share one CSV written once, so the
// test binary pays the full sweep a single time.
var (
	csvOnce sync.Once
	csvPath string
	csvErr  error
)

func sharedCSV(t *testing.T) string {
	t.Helper()
	csvOnce.Do(func() {
		dir, err := os.MkdirTemp("", "gpuport-test")
		if err != nil {
			csvErr = err
			return
		}
		csvPath = filepath.Join(dir, "study.csv")
		var buf bytes.Buffer
		csvErr = run([]string{"-out", csvPath, "dataset"}, &buf)
	})
	if csvErr != nil {
		t.Fatal(csvErr)
	}
	return csvPath
}

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

func TestStaticTables(t *testing.T) {
	cases := map[string]string{
		"1":  "Table I",
		"5":  "Table V",
		"6":  "Table VI",
		"7":  "Table VII",
		"8":  "Table VIII",
		"10": "Table X",
	}
	for n, want := range cases {
		out := runCLI(t, "table", n)
		if !strings.Contains(out, want) {
			t.Errorf("table %s output missing %q", n, want)
		}
	}
}

// TestStudyDatasetPinned holds the bytes of the seed-42 study dataset:
// the sha256 that _perfbench's study workload checks its CSV against.
func TestStudyDatasetPinned(t *testing.T) {
	raw, err := os.ReadFile(sharedCSV(t))
	if err != nil {
		t.Fatal(err)
	}
	const want = "f45bfaabfbc36df6b246ff02663cf24ec2e9852e20545b6fd779fc088eb74d4e"
	if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != want {
		t.Errorf("seed-42 dataset sha256 = %x, want %s", sum, want)
	}
}

func TestDataTablesFromCSV(t *testing.T) {
	csv := sharedCSV(t)
	for _, n := range []string{"2", "3", "4", "9"} {
		out := runCLI(t, "-in", csv, "table", n)
		if !strings.Contains(out, "Table") {
			t.Errorf("table %s produced no table", n)
		}
	}
}

func TestFiguresFromCSV(t *testing.T) {
	csv := sharedCSV(t)
	for _, n := range []string{"1", "2", "3", "4"} {
		out := runCLI(t, "-in", csv, "figure", n)
		if !strings.Contains(out, "Figure") {
			t.Errorf("figure %s produced no figure", n)
		}
	}
	out := runCLI(t, "figure", "5")
	if !strings.Contains(out, "Figure 5") {
		t.Error("figure 5 missing")
	}
}

func TestMicroAndInputs(t *testing.T) {
	out := runCLI(t, "micro")
	if !strings.Contains(out, "sg-cmb") || !strings.Contains(out, "m-divg") {
		t.Error("micro output incomplete")
	}
	out = runCLI(t, "inputs")
	if !strings.Contains(out, "usa.ny") || !strings.Contains(out, "soc-pokec") {
		t.Error("inputs output incomplete")
	}
}

func TestDecisionsCommand(t *testing.T) {
	csv := sharedCSV(t)
	out := runCLI(t, "-in", csv, "decisions", "chip")
	if !strings.Contains(out, "partition (M4000,*,*)") {
		t.Errorf("decisions output:\n%s", out[:min(300, len(out))])
	}
	if !strings.Contains(out, "median=") || !strings.Contains(out, "CL=") {
		t.Error("decisions output missing statistics")
	}
}

func TestSamplingCommand(t *testing.T) {
	csv := sharedCSV(t)
	out := runCLI(t, "-in", csv, "sampling", "global")
	if !strings.Contains(out, "Sampling sufficiency") || !strings.Contains(out, "100%") {
		t.Errorf("sampling output:\n%s", out)
	}
}

func TestPredictCommand(t *testing.T) {
	csv := sharedCSV(t)
	out := runCLI(t, "-in", csv, "predict", "input")
	if !strings.Contains(out, "Leave-one-input-out") || !strings.Contains(out, "usa.ny") {
		t.Errorf("predict output:\n%s", out)
	}
}

// TestReportCommand renders the full seed-42 report and requires it to
// be byte-identical to the committed REPORT.md golden.
func TestReportCommand(t *testing.T) {
	csv := sharedCSV(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "r.md")
	out := runCLI(t, "-in", csv, "-out", path, "report")
	if !strings.Contains(out, "report written") {
		t.Fatalf("output: %q", out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "REPORT.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rendered report (%d bytes) differs from REPORT.md (%d bytes) at line %d; "+
			"if the change is intended, regenerate it with `go run ./cmd/gpuport report`",
			len(got), len(want), firstDiffLine(got, want))
	}
}

// firstDiffLine returns the 1-based line on which a and b first differ.
func firstDiffLine(a, b []byte) int {
	line := 1
	for i := 0; i < len(a) && i < len(b) && a[i] == b[i]; i++ {
		if a[i] == '\n' {
			line++
		}
	}
	return line
}

// TestProgressSink drives a small collection through the -v progress
// sink: one whole "<phase> <done>/<total>" line per completed unit.
func TestProgressSink(t *testing.T) {
	var buf bytes.Buffer
	o := measure.Options{
		Chips:   chip.All()[:2],
		Apps:    apps.All()[:2],
		Inputs:  []*graph.Graph{graph.GenerateUniform("p-rand", 300, 4, 1)},
		Workers: 2,
		Notify:  progressSink(&buf),
	}
	if _, err := measure.Collect(o); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	sort.Strings(got)
	want := []string{"sweep 1/4", "sweep 2/4", "sweep 3/4", "sweep 4/4", "trace 1/2", "trace 2/2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("progress lines = %q, want %q in some order", got, want)
	}
}

// TestVerbosePipelineSummary runs `gpuport -v dataset` through the
// flag parsing: -v turns span capture on, so stderr holds the progress
// lines and then exactly one line per stage and per pipeline counter,
// and stdout equals a run without -v.
func TestVerbosePipelineSummary(t *testing.T) {
	dir := t.TempDir()
	plain := runCLI(t, "-out", filepath.Join(dir, "plain.csv"), "dataset")
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	defer func() { os.Stderr = saved }()
	if verbose := runCLI(t, "-v", "-out", filepath.Join(dir, "verbose.csv"), "dataset"); verbose != plain {
		t.Errorf("-v changed stdout:\n%s\n--- without -v:\n%s", verbose, plain)
	}
	raw, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		obs.StageTrace + " 51/51\n",
		"pipeline: stage " + obs.StageTrace + " ",
		"pipeline: stage " + obs.StageSweep + " ",
		"pipeline: stage " + obs.StageAssemble + " ",
		"pipeline: " + obs.CtrKernelLaunches + " ",
	} {
		if n := strings.Count(string(raw), want); n != 1 {
			t.Errorf("%d lines hold %q, want 1:\n%s", n, want, raw)
		}
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"table"},
		{"table", "zz"},
		{"table", "99"},
		{"figure"},
		{"figure", "0"},
		{"bogus"},
		{"decisions", "sideways"},
		{"sampling", "sideways"},
		{"predict", "sideways"},
		{"-in", "/nonexistent/file.csv", "table", "2"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestUnknownSectionRejectedBeforeLoading: a table or figure number
// the paper does not have is reported as such, before the dataset is
// loaded or collected.
func TestUnknownSectionRejectedBeforeLoading(t *testing.T) {
	for _, args := range [][]string{
		{"-in", "/nonexistent/file.csv", "table", "99"},
		{"-in", "/nonexistent/file.csv", "figure", "0"},
	} {
		want := "no " + args[2] + " " + args[3] + " "
		if err := run(args, io.Discard); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("run(%v) = %v, want an error starting %q", args, err, want)
		}
	}
}

// deadWriter fails every write, like stdout on a closed pipe.
type deadWriter struct{}

var errDeadWriter = errors.New("write on closed pipe")

func (deadWriter) Write([]byte) (int, error) { return 0, errDeadWriter }

// TestWriteErrorsReachExitStatus: every subcommand that prints returns
// the write error instead of exiting 0 with its output lost.
func TestWriteErrorsReachExitStatus(t *testing.T) {
	csv := sharedCSV(t)
	for _, args := range [][]string{
		{"all"}, {"dataset"}, {"table", "1"}, {"table", "3"}, {"figure", "4"},
		{"micro"}, {"inputs"}, {"decisions", "chip"}, {"sampling"}, {"predict"},
	} {
		err := run(append([]string{"-in", csv}, args...), deadWriter{})
		if !errors.Is(err, errDeadWriter) {
			t.Errorf("%v on a dead writer returned %v", args, err)
		}
	}
}

func TestDatasetCommandHint(t *testing.T) {
	csv := sharedCSV(t)
	out := runCLI(t, "-in", csv, "dataset")
	if !strings.Contains(out, "dataset: 6 chips x 17 apps x 3 inputs") {
		t.Errorf("dataset summary missing: %q", out)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestFaultsFlagAndResume(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.csv")
	out := runCLI(t, "-faults", "heavy,seed=3", "-resume", ck, "dataset")
	for _, want := range []string{"coverage:", "fault profile:", "partial"} {
		if !strings.Contains(out, want) {
			t.Errorf("faulted dataset output missing %q:\n%s", want, out)
		}
	}
	if st, err := os.Stat(ck); err != nil || st.Size() == 0 {
		t.Fatalf("checkpoint not written: %v", err)
	}
	// Re-running with the same checkpoint resumes every cell.
	out = runCLI(t, "-faults", "heavy,seed=3", "-resume", ck, "dataset")
	if !strings.Contains(out, "resumed from checkpoint") {
		t.Errorf("second run did not resume:\n%s", out)
	}
}

func TestTraceCacheFlag(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	coldCSV := filepath.Join(dir, "cold.csv")
	warmCSV := filepath.Join(dir, "warm.csv")

	cold := runCLI(t, "-trace-cache", cache, "-out", coldCSV, "dataset")
	if !strings.Contains(cold, "Trace cache") || !strings.Contains(cold, "misses (traced fresh)") {
		t.Errorf("cold run missing trace-cache accounting:\n%s", cold)
	}
	entries, err := filepath.Glob(filepath.Join(cache, "*.trace"))
	if err != nil || len(entries) != 51 {
		t.Fatalf("cache entries = %d (%v), want 51 (17 apps x 3 inputs)", len(entries), err)
	}

	warm := runCLI(t, "-trace-cache", cache, "-out", warmCSV, "dataset")
	if !strings.Contains(warm, "hit rate") || !strings.Contains(warm, "100.0%") {
		t.Errorf("warm run not fully cached:\n%s", warm)
	}
	a, err := os.ReadFile(coldCSV)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(warmCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("cold and warm cache runs produced different datasets")
	}
}

func TestTraceCacheFlagRejectsBadDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-trace-cache", file, "dataset"}, &buf); err == nil {
		t.Fatal("regular file accepted as trace cache directory")
	}
}

func TestBadFaultSpecRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-faults", "bogus=1", "dataset"}, &buf); err == nil {
		t.Fatal("bad -faults spec accepted")
	}
}

func TestObsFlags(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "obs-trace.json")
	metrics := filepath.Join(dir, "obs-metrics.prom")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	runCLI(t, "-obs-trace", trace, "-obs-metrics", metrics,
		"-cpuprofile", cpu, "-memprofile", mem,
		"-out", filepath.Join(dir, "study.csv"), "dataset")

	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"traceEvents"`, "harness (real)", "simulated kernel timeline",
		"trace-pair", "sweep-job", "timeline",
	} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("trace export missing %q", want)
		}
	}
	prom, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"gpuport_counter_total", "gpuport_hist_bucket", "gpuport_span_total",
	} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("metrics export missing %q", want)
		}
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s not written: %v", p, err)
		}
	}
}
