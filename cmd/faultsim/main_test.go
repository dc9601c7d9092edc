package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runSim(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

// small shrinks the sweep so tests run in milliseconds.
func small(args ...string) []string {
	return append([]string{"-chips", "2", "-apps", "2", "-nodes", "120"}, args...)
}

func TestDefaultCampaign(t *testing.T) {
	out := runSim(t, small()...)
	for _, want := range []string{"dataset:", "coverage:", "fault profile:", "Fault-injection campaign"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHeavyCampaignReportsLoss(t *testing.T) {
	out := runSim(t, small("-faults", "heavy,seed=3")...)
	for _, want := range []string{"Missing cells by failure kind", "dropped out at cell", "Partially covered tuples"} {
		if !strings.Contains(out, want) {
			t.Errorf("heavy campaign output missing %q:\n%s", want, out)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	out := runSim(t, small("-faults", "light,seed=5", "-compare")...)
	if !strings.Contains(out, "Analysis drift under faults") {
		t.Fatalf("no drift table:\n%s", out)
	}
	if !strings.Contains(out, "ok") {
		t.Errorf("light faults should stay within the floors:\n%s", out)
	}
}

func TestCompareWithoutFaults(t *testing.T) {
	out := runSim(t, small("-faults", "none", "-compare")...)
	if !strings.Contains(out, "nothing to compare") {
		t.Errorf("fault-free compare should say so:\n%s", out)
	}
}

func TestResumeRoundTrip(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.csv")
	runSim(t, small("-faults", "light,seed=2", "-resume", ck)...)
	if st, err := os.Stat(ck); err != nil || st.Size() == 0 {
		t.Fatalf("checkpoint not written: %v", err)
	}
	out := runSim(t, small("-faults", "light,seed=2", "-resume", ck)...)
	if !strings.Contains(out, "resumed from checkpoint") {
		t.Errorf("second run did not resume:\n%s", out)
	}
}

func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-faults", "wat=1"},
		{"-chips", "0"},
		{"-apps", "99"},
		{"-nodes", "3"},
	} {
		var buf bytes.Buffer
		if err := run(context.Background(), args, &buf); err == nil {
			t.Errorf("run(%v) accepted bad flags", args)
		}
	}
}

// TestNegativeRunsRejected: -runs -1 is an error naming the count,
// returned before any tracing, not a panic in a sweep worker.
func TestNegativeRunsRejected(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), small("-runs", "-1"), &buf)
	if err == nil || !strings.Contains(err.Error(), "-1 timed runs per cell") {
		t.Fatalf("run(-runs -1) = %v, want the negative-runs error", err)
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	if err := run(ctx, small(), &buf); err == nil {
		t.Fatal("cancelled context not propagated")
	}
}
