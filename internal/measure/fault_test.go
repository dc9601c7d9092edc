package measure

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"gpuport/internal/chip"
	"gpuport/internal/dataset"
	"gpuport/internal/fault"
	"gpuport/internal/opt"
)

// faultyOptions is smallOptions plus a fault profile exercising every
// failure mode.
func faultyOptions() Options {
	o := smallOptions()
	o.Faults = &fault.Profile{
		Seed:      13,
		Transient: 0.05,
		Hang:      0.02,
		Corrupt:   0.05,
		Dropout:   1,
	}
	return o
}

// datasetCSV marshals a dataset for bit-identical comparison.
func datasetCSV(t *testing.T, d *dataset.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameOutcomes compares the scheduling-independent fault-outcome fields
// of two reports (Resumed is provenance and may differ).
func sameOutcomes(t *testing.T, a, b *Report) {
	t.Helper()
	if a.Cells != b.Cells || a.Measured != b.Measured || a.Retried != b.Retried ||
		a.Attempts != b.Attempts || a.Quarantined != b.Quarantined || a.WaitNS != b.WaitNS {
		t.Errorf("report counters differ:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(a.Failures, b.Failures) {
		t.Errorf("failure lists differ:\n%v\n%v", a.Failures, b.Failures)
	}
	if !reflect.DeepEqual(a.FailuresByKind, b.FailuresByKind) {
		t.Errorf("failure kinds differ: %v vs %v", a.FailuresByKind, b.FailuresByKind)
	}
}

func TestZeroRateFaultsBitIdentical(t *testing.T) {
	plain, err := Collect(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := smallOptions()
	o.Faults = &fault.Profile{Seed: 99} // zero rates: layer active, nothing fires
	faulted, rep, err := CollectReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(datasetCSV(t, plain), datasetCSV(t, faulted)) {
		t.Fatal("zero-rate fault profile changed the dataset")
	}
	if !rep.Complete() || rep.Retried != 0 || rep.Quarantined != 0 {
		t.Errorf("zero-rate profile produced fault activity: %+v", rep)
	}
}

func TestFaultedCollectDeterministicAcrossWorkers(t *testing.T) {
	var ref []byte
	var refRep *Report
	for _, workers := range []int{1, 8, 3} {
		o := faultyOptions()
		o.Workers = workers
		d, rep, err := CollectReport(o)
		if err != nil {
			t.Fatal(err)
		}
		csv := datasetCSV(t, d)
		if ref == nil {
			ref, refRep = csv, rep
			if len(rep.Failures) == 0 {
				t.Fatal("fault profile with dropout=1 produced no failures; test is vacuous")
			}
			continue
		}
		if !bytes.Equal(ref, csv) {
			t.Errorf("workers=%d produced a different dataset", workers)
		}
		sameOutcomes(t, refRep, rep)
	}
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	ref, refRep, err := CollectReport(faultyOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Simulate an interrupted sweep: persist roughly half the measured
	// cells (what a killed process leaves behind), then resume.
	half := dataset.New()
	i := 0
	for _, tp := range ref.Tuples() {
		for _, cfg := range opt.All() {
			if s := ref.Samples(tp, cfg); s != nil && i%2 == 0 {
				half.Add(dataset.Record{Key: dataset.Key{Tuple: tp, Config: cfg}, Samples: s})
			}
			i++
		}
	}
	path := filepath.Join(t.TempDir(), "ck.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := half.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	o := faultyOptions()
	o.Checkpoint = path
	resumed, rep, err := CollectReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != half.Len() {
		t.Errorf("Resumed = %d, want %d", rep.Resumed, half.Len())
	}
	if !bytes.Equal(datasetCSV(t, ref), datasetCSV(t, resumed)) {
		t.Fatal("resumed dataset differs from uninterrupted run")
	}
	sameOutcomes(t, refRep, rep)

	// The finished checkpoint file is itself the complete dataset.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fromCk := loadCheckpointRows(raw)
	if fromCk == nil || fromCk.Len() != ref.Len() {
		t.Fatalf("checkpoint holds %v records, want %d", fromCk.Len(), ref.Len())
	}
}

func TestCancelMidSweepThenResume(t *testing.T) {
	ref, _, err := CollectReport(faultyOptions())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ck.csv")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel as soon as the first shards hit the disk; if the sweep
		// wins the race the first phase just completes in full.
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if st, err := os.Stat(path); err == nil && st.Size() > 64 {
				break
			}
		}
		cancel()
	}()
	o := faultyOptions()
	o.Ctx = ctx
	o.Checkpoint = path
	o.Workers = 1
	d, _, err := CollectReport(o)
	cancel()
	if err == nil {
		// The sweep outran the canceller; it must then be complete.
		if !bytes.Equal(datasetCSV(t, ref), datasetCSV(t, d)) {
			t.Fatal("uncancelled sweep differs from reference")
		}
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Resume from whatever the interrupted run persisted.
	o = faultyOptions()
	o.Checkpoint = path
	resumed, _, err := CollectReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(datasetCSV(t, ref), datasetCSV(t, resumed)) {
		t.Fatal("resume after cancellation differs from uninterrupted run")
	}
}

func TestContextCancelledBeforeSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := smallOptions()
	o.Ctx = ctx
	if _, err := Collect(o); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestChipDropoutGracefulDegradation(t *testing.T) {
	o := smallOptions()
	o.Faults = &fault.Profile{Seed: 4, Dropout: 1}
	d, rep, err := CollectReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DropoutChip == "" {
		t.Fatal("dropout=1 scheduled no dropout")
	}
	if rep.Complete() {
		t.Fatal("whole-chip dropout left the dataset complete")
	}
	if d.Len() == 0 {
		t.Fatal("dropout wiped the entire dataset")
	}
	if d.Len()+len(rep.Failures) != rep.Cells {
		t.Errorf("accounting broken: %d records + %d failures != %d cells",
			d.Len(), len(rep.Failures), rep.Cells)
	}
	for _, f := range rep.Failures {
		if f.Reason != fault.Dropout {
			t.Errorf("unexpected failure kind %v for %v", f.Reason, f.Key)
		}
		if f.Key.Chip != rep.DropoutChip {
			t.Errorf("failure on %s but dropout hit %s", f.Key.Chip, rep.DropoutChip)
		}
	}
	// The surviving chip is fully covered.
	for _, ch := range o.Chips {
		if ch.Name == rep.DropoutChip {
			continue
		}
		for _, tp := range d.Tuples() {
			if tp.Chip != ch.Name {
				continue
			}
			for _, cfg := range opt.All() {
				if d.Samples(tp, cfg) == nil {
					t.Fatalf("surviving chip %s missing cell %v/%v", ch.Name, tp, cfg)
				}
			}
		}
	}
}

func TestRetriesHealTransientFaults(t *testing.T) {
	o := smallOptions()
	o.Faults = &fault.Profile{Seed: 8, Transient: 0.2, Hang: 0.05}
	d, rep, err := CollectReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retried == 0 {
		t.Fatal("20% transient rate triggered no retries")
	}
	if rep.WaitNS <= 0 {
		t.Error("retries accumulated no virtual backoff time")
	}
	// With 4 retries at these rates virtually every cell heals.
	if rep.Coverage() < 0.99 {
		t.Errorf("coverage %.3f, want >= 0.99 (retries should heal transients)", rep.Coverage())
	}
	// Cells that healed on a retry carry retry-stream samples, so they
	// differ from the fault-free sweep - but cells that never faulted
	// must be bit-identical to it.
	clean, err := Collect(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for _, tp := range clean.Tuples() {
		for _, cfg := range opt.All() {
			a, b := clean.Samples(tp, cfg), d.Samples(tp, cfg)
			if a != nil && b != nil && reflect.DeepEqual(a, b) {
				same++
			}
		}
	}
	if same == 0 {
		t.Error("no cell survived fault injection untouched; noise streams are entangled")
	}
}

// TestCheckpointFlushesEveryJob: a completed job is on disk before the
// next one completes, so a hard kill loses at most the job being
// written.
func TestCheckpointFlushesEveryJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.csv")
	ck, _, err := openCheckpoint(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := dataset.Record{
		Key:     dataset.Key{Tuple: dataset.Tuple{Chip: "c", App: "a", Input: "i"}},
		Samples: []float64{1.5},
	}
	ck.appendJob([]dataset.Record{rec}, []cellState{{measured: true}})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := loadCheckpointRows(raw); got == nil || got.Len() != 1 {
		t.Errorf("checkpoint on disk after one job, before close:\n%s", raw)
	}
	if msg := ck.close(); msg != "" {
		t.Fatal(msg)
	}
}

// TestFinishedCheckpointIsTheDataset pins the claim that a finished
// checkpoint doubles as a saved dataset: with one worker, a fresh run's
// checkpoint file is byte-identical to WriteCSV of the dataset the run
// returned. With more workers only the row order may differ.
func TestFinishedCheckpointIsTheDataset(t *testing.T) {
	for _, workers := range []int{1, 4} {
		o := smallOptions()
		o.Workers = workers
		o.Checkpoint = filepath.Join(t.TempDir(), "ck.csv")
		d, err := Collect(o)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(o.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		got, want := string(raw), string(datasetCSV(t, d))
		if workers > 1 {
			got, want = sortedLines(got), sortedLines(want)
		}
		if got != want {
			t.Errorf("workers=%d: finished checkpoint differs from the dataset's CSV", workers)
		}
	}
}

// sortedLines returns s with its lines in sorted order.
func sortedLines(s string) string {
	lines := strings.SplitAfter(s, "\n")
	sort.Strings(lines)
	return strings.Join(lines, "")
}

func TestCheckpointHealsTruncatedRow(t *testing.T) {
	// A process killed mid-append leaves a truncated final line; the
	// loader must skip it and the appender must not corrupt the file.
	path := filepath.Join(t.TempDir(), "ck.csv")
	ref, err := Collect(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	tp := ref.Tuples()[0]
	good := dataset.New()
	good.Add(dataset.Record{
		Key:     dataset.Key{Tuple: tp, Config: opt.Config{}},
		Samples: ref.Samples(tp, opt.Config{}),
	})
	var buf bytes.Buffer
	if err := good.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(tp.Chip + "," + tp.App) // truncated row, no newline
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	o := smallOptions()
	o.Checkpoint = path
	d, rep, err := CollectReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 1 {
		t.Errorf("Resumed = %d, want 1 (the intact row)", rep.Resumed)
	}
	if rep.CheckpointError != "" {
		t.Errorf("checkpoint error: %s", rep.CheckpointError)
	}
	if !bytes.Equal(datasetCSV(t, ref), datasetCSV(t, d)) {
		t.Fatal("dataset differs after healing a truncated checkpoint")
	}
	// The healed file must now load cleanly and completely.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := loadCheckpointRows(raw); got == nil || got.Len() != ref.Len() {
		t.Fatalf("healed checkpoint holds %v records, want %d", got.Len(), ref.Len())
	}
}

func TestWorkersOptionRespected(t *testing.T) {
	// Workers beyond the job count must not deadlock or change results.
	o := smallOptions()
	o.Workers = 64
	a, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(datasetCSV(t, a), datasetCSV(t, b)) {
		t.Fatal("worker count changed the dataset")
	}
}

func TestCleanReportShape(t *testing.T) {
	_, rep, err := CollectReport(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 2 * 1 * len(opt.All())
	if rep.Cells != want || rep.Measured != want {
		t.Errorf("cells/measured = %d/%d, want %d", rep.Cells, rep.Measured, want)
	}
	if rep.Coverage() != 1 || !rep.Complete() || rep.Eventful() {
		t.Errorf("clean run misreported: %+v", rep)
	}
	if rep.Attempts != want {
		t.Errorf("attempts = %d, want %d", rep.Attempts, want)
	}
}

// TestDroppedChipStillListedInChips documents that a chip wiped from
// cell 0 simply never appears in the dataset dimensions - the report is
// the only place that knows the intended grid.
func TestDroppedChipStillListedInChips(t *testing.T) {
	o := smallOptions()
	// Find a seed whose dropout starts at cell 0 by scanning plans.
	names := []string{o.Chips[0].Name, o.Chips[1].Name}
	cells := 2 * len(opt.All())
	for seed := uint64(0); seed < 200; seed++ {
		in := fault.NewInjector(fault.Profile{Seed: seed, Dropout: 1}, names, cells)
		if _, from, ok := in.DropoutPlan(); ok && from == 0 {
			o.Faults = &fault.Profile{Seed: seed, Dropout: 1}
			break
		}
	}
	if o.Faults == nil {
		t.Skip("no seed under 200 drops a chip at cell 0; widen the scan if this trips (#27)")
	}
	d, rep, err := CollectReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DropoutFrom != 0 {
		t.Fatalf("expected cell-0 dropout, got from=%d", rep.DropoutFrom)
	}
	if len(d.Chips()) != 1 {
		t.Errorf("dataset chips = %v, want only the survivor", d.Chips())
	}
	if len(rep.Failures) != cells {
		t.Errorf("failures = %d, want %d (the whole chip)", len(rep.Failures), cells)
	}
	_ = chip.All // keep import shape stable if smallOptions changes
}
