package main

import (
	"testing"
	"time"

	"gpuport/internal/obs"
)

// TestPhaseClock checks that only a phase's last unit ends it and that
// the collection splits at the recorded phase ends.
func TestPhaseClock(t *testing.T) {
	c := &phaseClock{done: map[string]time.Time{}}
	c.notify(obs.StageTrace, 1, 2)
	if len(c.done) != 0 {
		t.Fatalf("a unit before the last ended its phase: %v", c.done)
	}
	start := time.Unix(100, 0)
	c.done[obs.StageTrace] = start.Add(300 * time.Millisecond)
	c.done[obs.StageSweep] = start.Add(350 * time.Millisecond)
	got := c.phases(start, start.Add(375*time.Millisecond))
	want := phaseTimes{trace: 0.3, sweep: 0.05, assemble: 0.025}
	const eps = 1e-9
	if d := got.trace - want.trace; d > eps || d < -eps {
		t.Errorf("trace = %g, want %g", got.trace, want.trace)
	}
	if d := got.sweep - want.sweep; d > eps || d < -eps {
		t.Errorf("sweep = %g, want %g", got.sweep, want.sweep)
	}
	if d := got.assemble - want.assemble; d > eps || d < -eps {
		t.Errorf("assemble = %g, want %g", got.assemble, want.assemble)
	}
	c.notify(obs.StageSweep, 3, 3)
	if !c.done[obs.StageSweep].After(start.Add(time.Second)) {
		t.Errorf("the last unit of the sweep did not end its phase")
	}
}
