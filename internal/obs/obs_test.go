package obs

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed step per reading, so stage durations are
// exact and the tests are immune to scheduler jitter.
func fakeClock(step time.Duration) func() time.Time {
	var mu sync.Mutex
	t := time.Unix(0, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(step)
		return t
	}
}

func TestStagesAndCounters(t *testing.T) {
	r := NewWithClock(fakeClock(time.Millisecond)).EnableTracing()
	r.StartSpan(StageSweep, 0).End()
	r.StartSpan(StageTrace, 0).End()
	r.StartSpan(StageTrace, 0).End()
	r.Add("hits", 2)
	r.Add("misses", 1)
	r.Add("hits", 3)

	s := r.Summary()
	if len(s.Stages) != 2 || s.Stages[0].Name != StageTrace || s.Stages[1].Name != StageSweep {
		t.Fatalf("stages = %+v, want trace then sweep (pipeline order)", s.Stages)
	}
	// Each span reads the clock at start and end -> 1ms per section.
	if d := s.StageDuration(StageTrace); d != 2*time.Millisecond {
		t.Errorf("trace duration = %v, want 2ms", d)
	}
	if s.Stages[0].Calls != 2 || s.Stages[1].Calls != 1 {
		t.Errorf("calls = %d/%d, want 2/1", s.Stages[0].Calls, s.Stages[1].Calls)
	}
	if s.Counter("hits") != 5 || s.Counter("misses") != 1 {
		t.Errorf("counters = %+v", s.Counters)
	}
	if s.Counter("absent") != 0 || s.StageDuration("absent") != 0 {
		t.Error("absent names should read as zero")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	r.Add("y", 1)
	if r.Summary() != nil {
		t.Error("nil recorder should summarise to nil")
	}
	var s *Summary
	if s.Counter("x") != 0 || s.StageDuration("x") != 0 {
		t.Error("nil summary should read as zero")
	}
	s.Format(nil) // must not panic
}

func TestSummaryIsSnapshot(t *testing.T) {
	r := NewWithClock(fakeClock(time.Millisecond))
	r.Add("n", 1)
	s1 := r.Summary()
	r.Add("n", 1)
	if s1.Counter("n") != 1 {
		t.Error("summary mutated after snapshot")
	}
	if r.Summary().Counter("n") != 2 {
		t.Error("recorder stopped accumulating after snapshot")
	}
}

func TestFormat(t *testing.T) {
	r := NewWithClock(fakeClock(time.Second)).EnableTracing()
	r.StartSpan(StageTrace, 0).End()
	r.Add("trace-cache-hits", 51)
	var b strings.Builder
	r.Summary().Format(&b)
	out := b.String()
	for _, want := range []string{"stage trace", "1s", "trace-cache-hits", "51"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New().EnableTracing()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.StartSpan(StageSweep, w).End()
				r.Add("count", 1)
			}
		}(w)
	}
	wg.Wait()
	s := r.Summary()
	if s.Counter("count") != 800 {
		t.Errorf("count = %d, want 800", s.Counter("count"))
	}
	if s.Stages[0].Calls != 800 {
		t.Errorf("calls = %d, want 800", s.Stages[0].Calls)
	}
}

// TestAdoptFoldsStageSpansOnce: adopted stage spans land in a traced
// adopter's totals exactly once, an untraced adopter takes none, and a
// simulated-track span named like a stage never counts.
func TestAdoptFoldsStageSpansOnce(t *testing.T) {
	donor := NewWithClock(fakeClock(time.Millisecond)).EnableSim()
	donor.StartSpan(StageTrace, 0).End()
	sweep := donor.StartSpan(StageSweep, 0)
	sweep.StartSpan(SpanSweepJob, 1).End()
	sweep.End()
	donor.SimSpan(0, 0, StageAssemble, 0, 5e6)
	snap := donor.Snapshot()
	want := []Stage{{StageTrace, time.Millisecond, 1}, {StageSweep, 3 * time.Millisecond, 1}}
	if got := snap.Summary.Stages; !reflect.DeepEqual(got, want) {
		t.Fatalf("donor stages = %+v, want %+v", got, want)
	}

	r := NewWithClock(fakeClock(time.Millisecond)).EnableTracing()
	r.StartSpan(StageTrace, 0).End()
	r.Adopt(snap, 7, 0)
	want[0] = Stage{StageTrace, 2 * time.Millisecond, 2}
	for i := 1; i <= 2; i++ {
		if got := r.Snapshot().Summary.Stages; !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot %d: adopter stages = %+v, want %+v", i, got, want)
		}
	}
	plain := New()
	plain.Adopt(snap, 7, 0)
	if got := plain.Summary().Stages; len(got) != 0 {
		t.Errorf("untraced adopter stages = %+v, want none", got)
	}
}
