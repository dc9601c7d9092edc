package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpuport/internal/irgl"
)

func TestDefaultRun(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-app", "bfs-wl", "-input", "rand-8k"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"validated", "per-kernel totals", "bfs_relax", "modelled runtime", "MALI"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestConfiguredSpeedupColumn(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-app", "sssp-wl", "-input", "rand-8k", "-config", "sg,fg8"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "[sg,fg8]") {
		t.Error("configured header missing")
	}
}

func TestJSONExport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	var buf bytes.Buffer
	if err := run([]string{"-app", "cc-wl", "-input", "rand-8k", "-json", path}, &buf); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := irgl.ReadTraceJSON(raw)
	if err != nil {
		t.Fatalf("exported trace unreadable: %v", err)
	}
	if tr.App != "cc-wl" || len(tr.Launches) == 0 {
		t.Errorf("trace content: app=%s launches=%d", tr.App, len(tr.Launches))
	}
}

func TestGraphFileInput(t *testing.T) {
	// Round-trip through graphgen's binary format.
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	var buf bytes.Buffer
	// Reuse the graph package through the graphgen-equivalent flow.
	if err := writeTestGraph(path); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-app", "tri-merge", "-graph", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tri-merge on custom-bin") {
		t.Errorf("output: %s", buf.String()[:80])
	}
}

func TestErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "nope"},
		{"-app", "bfs-wl", "-input", "nope"},
		{"-app", "bfs-wl", "-graph", "/nonexistent.bin"},
		{"-app", "bfs-wl", "-input", "rand-8k", "-config", "fg,fg8"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// deadWriter fails every write, like stdout on a full disk.
type deadWriter struct{}

var errDeadWriter = errors.New("no space left on device")

func (deadWriter) Write([]byte) (int, error) { return 0, errDeadWriter }

// TestWriteErrorsReachExitStatus: a report that cannot be written is
// an error, not a silent exit 0.
func TestWriteErrorsReachExitStatus(t *testing.T) {
	if err := run([]string{"-app", "bfs-wl", "-input", "rand-8k"}, deadWriter{}); !errors.Is(err, errDeadWriter) {
		t.Errorf("run on a dead writer returned %v", err)
	}
}
