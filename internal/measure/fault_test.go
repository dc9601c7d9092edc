package measure

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"gpuport/internal/chip"
	"gpuport/internal/dataset"
	"gpuport/internal/fault"
	"gpuport/internal/opt"
	"gpuport/internal/tracecache"
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

// writeCheckpoint writes what an interrupted sweep of o leaves behind:
// o's campaign entry, then recs as one job entry.
func writeCheckpoint(t *testing.T, path string, o Options, recs []dataset.Record) {
	t.Helper()
	ck, _, err := openCheckpoint(path, NewCampaign(o).Fingerprint(), o.Runs)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]cellState, len(recs))
	for i := range states {
		states[i].measured = true
	}
	ck.appendJob(recs, states)
	if msg := ck.close(); msg != "" {
		t.Fatal(msg)
	}
}

// readCheckpoint returns the cells a resume of o loads from path.
func readCheckpoint(t *testing.T, path string, o Options) *dataset.Dataset {
	t.Helper()
	ck, d, err := openCheckpoint(path, NewCampaign(o).Fingerprint(), o.Runs)
	if err != nil {
		t.Fatal(err)
	}
	if msg := ck.close(); msg != "" {
		t.Fatal(msg)
	}
	return d
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	ref, refRep, err := CollectReport(faultyOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Simulate an interrupted sweep: persist roughly half the measured
	// cells (what a killed process leaves behind), then resume.
	var half []dataset.Record
	i := 0
	for _, tp := range ref.Tuples() {
		for _, cfg := range opt.All() {
			if s := ref.Samples(tp, cfg); s != nil && i%2 == 0 {
				half = append(half, dataset.Record{Key: dataset.Key{Tuple: tp, Config: cfg}, Samples: s})
			}
			i++
		}
	}
	o := faultyOptions()
	o.Checkpoint = filepath.Join(t.TempDir(), "ck")
	writeCheckpoint(t, o.Checkpoint, o, half)

	resumed, rep, err := CollectReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != len(half) {
		t.Errorf("Resumed = %d, want %d", rep.Resumed, len(half))
	}
	if !bytes.Equal(datasetCSV(t, ref), datasetCSV(t, resumed)) {
		t.Fatal("resumed dataset differs from uninterrupted run")
	}
	sameOutcomes(t, refRep, rep)

	// The finished checkpoint holds every measured cell.
	if got := readCheckpoint(t, o.Checkpoint, o); got.Len() != ref.Len() {
		t.Fatalf("checkpoint holds %d records, want %d", got.Len(), ref.Len())
	}
}

func TestCancelMidSweepThenResume(t *testing.T) {
	ref, _, err := CollectReport(faultyOptions())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ck")
	campaignEntry := int64(len(tracecache.AppendEntry(nil, []byte(NewCampaign(faultyOptions()).Fingerprint()))))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel as soon as the first shards hit the disk; if the sweep
		// wins the race the first phase just completes in full.
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if st, err := os.Stat(path); err == nil && st.Size() > campaignEntry {
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
	path := filepath.Join(t.TempDir(), "ck")
	ck, _, err := openCheckpoint(path, "campaign", 1)
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
	head, rest, err := tracecache.CutEntry(raw)
	if err != nil || string(head) != "campaign" {
		t.Fatalf("campaign entry %q: %v", head, err)
	}
	if job, rest, err := tracecache.CutEntry(rest); err != nil || len(rest) != 0 ||
		!bytes.Equal(job, dataset.AppendRecord(nil, rec)) {
		t.Errorf("checkpoint on disk after one job, before close:\n%q", raw)
	}
	if msg := ck.close(); msg != "" {
		t.Fatal(msg)
	}
}

func TestCheckpointHealsTruncatedRow(t *testing.T) {
	// A process killed mid-append leaves a torn last entry; the loader
	// must skip it and the appender must not corrupt the file.
	ref, err := Collect(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	tp := ref.Tuples()[0]
	rec := func(cfg opt.Config) dataset.Record {
		return dataset.Record{Key: dataset.Key{Tuple: tp, Config: cfg}, Samples: ref.Samples(tp, cfg)}
	}
	o := smallOptions()
	o.Checkpoint = filepath.Join(t.TempDir(), "ck")
	writeCheckpoint(t, o.Checkpoint, o, []dataset.Record{rec(opt.Config{})})
	torn := tracecache.AppendEntry(nil, dataset.AppendRecord(nil, rec(opt.All()[1])))
	f, err := os.OpenFile(o.Checkpoint, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-5]); err != nil { // cut inside the last sample
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	d, rep, err := CollectReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 1 {
		t.Errorf("Resumed = %d, want 1 (the intact entry's row)", rep.Resumed)
	}
	if rep.CheckpointError != "" {
		t.Errorf("checkpoint error: %s", rep.CheckpointError)
	}
	if !bytes.Equal(datasetCSV(t, ref), datasetCSV(t, d)) {
		t.Fatal("dataset differs after healing a truncated checkpoint")
	}
	// The healed file must now load cleanly and completely.
	if got := readCheckpoint(t, o.Checkpoint, o); got.Len() != ref.Len() {
		t.Fatalf("healed checkpoint holds %d records, want %d", got.Len(), ref.Len())
	}
}

// TestCheckpointCrashTable cuts a checkpoint wherever a kill during a
// write can leave it: at every byte offset of the campaign entry and
// of the last job entry, under zero-filled tails (appended, and
// overwriting the last entry's end), and with a byte flipped inside the
// middle entry. Every resume, and a second resume from the file the
// first one left, must reproduce the uninterrupted dataset byte for
// byte, the first resuming exactly the cells of the entries before the
// first one that fails to verify. A damaged campaign entry leaves no
// verified entry, and the file starts over, as an all-zero file does.
// A file no crash leaves (a CSV, as older checkpoints were, or text)
// is refused, naming the file, and left as it was.
func TestCheckpointCrashTable(t *testing.T) {
	o := smallOptions()
	o.Apps = o.Apps[:1]
	o.Configs = opt.All()[:12] // 2 chips x 1 trace: two 12-cell job entries
	ref, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	want := datasetCSV(t, ref)

	dir := t.TempDir()
	o.Checkpoint = filepath.Join(dir, "full")
	if _, err := Collect(o); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(o.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	// Entry i ends at ends[i]; entry 0 is the campaign's.
	var ends []int
	for rest := full; len(rest) > 0; {
		if _, rest, err = tracecache.CutEntry(rest); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(full)-len(rest))
	}
	if len(ends) != 3 {
		t.Fatalf("checkpoint holds %d entries, want 3", len(ends))
	}
	jobCells := len(o.Configs)

	type tear struct {
		name  string
		data  []byte
		cells int // cells of the entries before the first that fails to verify
	}
	const refused = -1
	cut := func(n int) []byte { return append([]byte(nil), full[:n]...) }
	zeros := make([]byte, 7)
	var tears []tear
	for off := 0; off < ends[0]; off++ {
		tears = append(tears, tear{"campaign entry cut at byte " + strconv.Itoa(off), cut(off), 0})
	}
	for off := ends[1]; off < ends[2]; off++ {
		tears = append(tears, tear{"last entry cut at byte " + strconv.Itoa(off), cut(off), jobCells})
	}
	zeroed := cut(len(full))
	copy(zeroed[len(zeroed)-len(zeros):], zeros)
	flipped := cut(len(full))
	flipped[(ends[0]+ends[1])/2] ^= 1
	tears = append(tears,
		tear{"zero-filled tail after the last entry", append(cut(len(full)), zeros...), 2 * jobCells},
		tear{"zero-filled tail inside the last entry", append(cut((ends[1]+ends[2])/2), zeros...), jobCells},
		tear{"last entry's end zeroed", zeroed, jobCells},
		tear{"byte flipped inside the middle entry", flipped, 0},
		tear{"all-zero file", make([]byte, ends[0]), 0},
		tear{"dataset CSV cut short", want[:len(want)/2], refused},
		tear{"CSV checkpoint (a finished one was the dataset CSV)", want, refused},
		tear{"one-line text file", []byte("notes\n"), refused},
	)

	o.Checkpoint = filepath.Join(dir, "ck")
	for _, tc := range tears {
		if err := os.WriteFile(o.Checkpoint, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if tc.cells == refused {
			_, err := Collect(o)
			if got, _ := os.ReadFile(o.Checkpoint); err == nil || !strings.Contains(err.Error(), o.Checkpoint) || !bytes.Equal(got, tc.data) {
				t.Fatalf("%s: resume returned %v, want a refusal naming %s and the file unchanged", tc.name, err, o.Checkpoint)
			}
			continue
		}
		for pass, cells := range []int{tc.cells, 2 * jobCells} {
			d, rep, err := CollectReport(o)
			if err != nil {
				t.Fatalf("%s, resume %d: %v", tc.name, pass+1, err)
			}
			if !bytes.Equal(datasetCSV(t, d), want) {
				t.Fatalf("%s, resume %d: dataset differs from the uninterrupted run", tc.name, pass+1)
			}
			if rep.Resumed != cells || rep.CheckpointError != "" {
				t.Fatalf("%s, resume %d: resumed %d cells (checkpoint error %q), want %d",
					tc.name, pass+1, rep.Resumed, rep.CheckpointError, cells)
			}
		}
	}
}

// TestCheckpointRejectsOtherCampaign resumes a checkpoint into sweeps
// that differ from the one that wrote it in seed, fault profile or run
// count. Cell keys carry none of these, so only the campaign entry can
// tell: each resume must fail, name the file, and leave the file's
// bytes as they were. The writing campaign still resumes every cell.
func TestCheckpointRejectsOtherCampaign(t *testing.T) {
	o := smallOptions()
	o.Runs = 2
	o.Checkpoint = filepath.Join(t.TempDir(), "ck")
	if _, err := Collect(o); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(o.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		change func(*Options)
	}{
		{"seed", func(o *Options) { o.Seed++ }},
		{"faults", func(o *Options) { o.Faults = fault.Light() }},
		{"runs", func(o *Options) { o.Runs = 3 }},
	} {
		other := o
		tc.change(&other)
		if _, err := Collect(other); err == nil {
			t.Errorf("%s: a checkpoint of another campaign resumed", tc.name)
		} else if !strings.Contains(err.Error(), o.Checkpoint) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, o.Checkpoint)
		}
		after, err := os.ReadFile(o.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: the rejected resume changed the checkpoint's bytes", tc.name)
		}
	}
	_, rep, err := CollectReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != rep.Cells {
		t.Errorf("Resumed = %d, want all %d cells", rep.Resumed, rep.Cells)
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
