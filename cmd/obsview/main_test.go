package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpuport/internal/obs"
)

// writeTrace exports a recorder snapshot as a Chrome trace file and
// returns its path.
func writeTrace(t *testing.T, rec *obs.Recorder, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// sampleRecorder builds a recorder with nested real spans, a sim
// timeline, counters, and an instant event. The child span sits inside
// the stage span so summary must attribute its duration to the child's
// self time, not the parent's.
func sampleRecorder(extraRetries int64) *obs.Recorder {
	clock := time.Unix(0, 0)
	rec := obs.NewWithClock(func() time.Time {
		clock = clock.Add(time.Microsecond)
		return clock
	}).EnableSim()
	phase := rec.StartSpan(obs.StageSweep, 0)
	job := phase.StartSpan(obs.SpanSweepJob, 0, obs.String(obs.AttrApp, "bfs-wl"))
	job.Event(obs.EvRetry, obs.Int(obs.AttrAttempt, 1))
	job.End()
	phase.End()
	rec.Add(obs.CtrFaultRetries, 1+extraRetries)
	rec.Add(obs.CtrCacheHits, 2)
	rec.SimSpan(0, 0, obs.SpanSimTimeline, 0, 500,
		obs.String(obs.AttrApp, "bfs-wl"))
	return rec
}

func TestSummary(t *testing.T) {
	path := writeTrace(t, sampleRecorder(0), "trace.json")
	var out bytes.Buffer
	if err := run([]string{"summary", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"Top spans by self time",
		obs.StageSweep, obs.SpanSweepJob, obs.SpanSimTimeline,
		obs.CtrFaultRetries, obs.CtrCacheHits,
		obs.EvRetry,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary output missing %q:\n%s", want, got)
		}
	}
}

// TestSummarySelfTime checks that a parent span's self time excludes
// its child's duration. With the stepping clock every clock reading
// advances 1µs, so the sweep stage span strictly contains the job
// span; the job's duration must be subtracted from the stage's self.
func TestSummarySelfTime(t *testing.T) {
	td, err := loadTrace(writeTrace(t, sampleRecorder(0), "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stage, job *spanGroup
	for _, g := range td.groups {
		switch g.name {
		case obs.StageSweep:
			stage = g
		case obs.SpanSweepJob:
			job = g
		}
	}
	if stage == nil || job == nil {
		t.Fatalf("missing span groups: stage=%v job=%v", stage, job)
	}
	if stage.self >= stage.total {
		t.Errorf("stage self (%v) not reduced below total (%v) by child", stage.self, stage.total)
	}
	if got, want := stage.self, stage.total-job.total; got != want {
		t.Errorf("stage self = %v, want total-child = %v", got, want)
	}
}

func TestDiff(t *testing.T) {
	old := writeTrace(t, sampleRecorder(0), "old.json")
	niu := writeTrace(t, sampleRecorder(5), "new.json")
	var out bytes.Buffer
	if err := run([]string{"diff", old, niu}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"Counter deltas", obs.CtrFaultRetries, "+5",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("diff output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, obs.CtrCacheHits) {
		t.Errorf("unchanged counter %s rendered in diff:\n%s", obs.CtrCacheHits, got)
	}

	// Identical files: no deltas at all.
	out.Reset()
	if err := run([]string{"diff", old, old}, &out); err != nil {
		t.Fatal(err)
	}
	got = out.String()
	if !strings.Contains(got, "no counter differences") {
		t.Errorf("self-diff missing no-difference marker:\n%s", got)
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{},
		{"summary"},
		{"diff", "one.json"},
		{"bogus", "x"},
		{"summary", filepath.Join(t.TempDir(), "missing.json")},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// Not-a-trace input.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"summary", bad}, &out); err == nil {
		t.Error("summary of malformed file succeeded, want error")
	}
}

// foldSpan is one span of TestFoldAnyOrder's family.
type foldSpan struct {
	name, id, parent string
	dur              float64
}

// twoPassFold is the reference fold: a first pass sums each parent's
// child durations, a second subtracts them from every span's duration
// and floors the result at zero per span.
func twoPassFold(spans []foldSpan) map[string]spanGroup {
	childDur := map[string]float64{}
	for _, s := range spans {
		if s.parent != "" {
			childDur[s.parent] += s.dur
		}
	}
	groups := map[string]spanGroup{}
	for _, s := range spans {
		g := groups[s.name]
		g.name = s.name
		g.count++
		g.total += s.dur
		self := s.dur
		if s.id != "" {
			self -= childDur[s.id]
		}
		g.self += max(self, 0)
		groups[s.name] = g
	}
	return groups
}

// permute calls fn with every ordering of spans (Heap's algorithm).
func permute(spans []foldSpan, k int, fn func([]foldSpan)) {
	if k <= 1 {
		fn(spans)
		return
	}
	for i := 0; i < k; i++ {
		permute(spans, k-1, fn)
		j := 0
		if k%2 == 0 {
			j = i
		}
		spans[j], spans[k-1] = spans[k-1], spans[j]
	}
}

// TestFoldAnyOrder: spanTable.fold gives the two-pass result per
// group in every delivery order of a family with a sequential child, a
// grandchild, an async child that outlives its parent, a span with no
// ID and a child whose parent never arrives.
func TestFoldAnyOrder(t *testing.T) {
	family := []foldSpan{
		{"root", "r", "", 100},
		{"step", "c", "r", 40},
		{"leaf", "g", "c", 15},
		{"async", "a", "c", 60},
		{"step", "", "r", 10},
		{"orphan", "o", "gone", 7},
	}
	want := twoPassFold(family)
	// step c's children outlast it: the per-span floor keeps the
	// unnamed step's 10, where a per-group floor would read 0.
	if want["step"].self != 10 || want["root"].self != 50 {
		t.Fatalf("reference fold = %+v", want)
	}
	orders := 0
	permute(family, len(family), func(order []foldSpan) {
		orders++
		tb := newSpanTable()
		for _, s := range order {
			tb.fold("real", s.name, s.id, s.parent, s.dur)
		}
		if len(tb.groups) != len(want) {
			t.Fatalf("order %v: %d groups, want %d", order, len(tb.groups), len(want))
		}
		for name, w := range want {
			if g := tb.groups[[2]string{"real", name}]; g == nil || *g != w {
				t.Fatalf("order %v: %s = %+v, want %+v", order, name, g, w)
			}
		}
	})
	if orders != 720 {
		t.Errorf("folded %d orders, want 720", orders)
	}
}

// deadWriter fails every write, like stdout on a full disk.
type deadWriter struct{}

var errDeadWriter = errors.New("no space left on device")

func (deadWriter) Write([]byte) (int, error) { return 0, errDeadWriter }

// TestWriteErrorsReachExitStatus: every subcommand returns the write
// error instead of exiting 0 with its output lost.
func TestWriteErrorsReachExitStatus(t *testing.T) {
	trace := writeTrace(t, sampleRecorder(0), "trace.json")
	stream := sampleStream(t)
	for _, args := range [][]string{
		{"summary", trace},
		{"diff", trace, trace},
		{"tail", stream},
		{"tail", "-every", "1", stream},
		{"slo", stream},
	} {
		if err := run(args, deadWriter{}); !errors.Is(err, errDeadWriter) {
			t.Errorf("%v on a dead writer returned %v", args, err)
		}
	}
}
