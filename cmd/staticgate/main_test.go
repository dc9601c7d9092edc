package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fixtureRoot = "../../internal/staticlint/testdata/src/fixture"

func TestList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 16 {
		t.Fatalf("-list printed %d analyzers, want 16:\n%s", len(lines), out.String())
	}
	for _, name := range []string{"ctxprop", "detpure", "errcheck", "floatcmp", "globalrand", "goleak", "lockguard", "lockorder", "maprange", "mutexlock", "nounsafe", "obsliteral", "obsnames", "skipref", "strayfile", "walltime"} {
		if !strings.Contains(out.String(), name+" ") {
			t.Errorf("-list missing analyzer %s", name)
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-only", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown analyzer "nope"`) {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestLoadFailure(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{t.TempDir()}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "go.mod") {
		t.Errorf("stderr = %q", errb.String())
	}
}

// TestRepoClean is the gate's reason to exist: the repository itself
// analyses clean, every exception an explained //lint:allow.
func TestRepoClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"../.."}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.HasSuffix(out.String(), "staticgate: 0 finding(s), 2 suppressed\n") {
		t.Errorf("summary line drifted:\n%s", out.String())
	}
}

func TestFixtureFindingsFail(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-only", "errcheck", fixtureRoot}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.HasSuffix(out.String(), "staticgate: 3 finding(s), 1 suppressed\n") {
		t.Errorf("stdout = %q", out.String())
	}
}

// TestLockGraphArtifact: -lockgraph writes a JSON and a DOT rendering
// of the lock-acquisition graph, byte-identical across runs.
func TestLockGraphArtifact(t *testing.T) {
	readPair := func(base string) (string, string) {
		t.Helper()
		var out, errb bytes.Buffer
		// The fixture has findings (exit 1); the artifact is written anyway.
		if code := run([]string{"-only", "lockorder", "-lockgraph", base, fixtureRoot}, &out, &errb); code != 1 {
			t.Fatalf("exit %d, want 1; stderr %s", code, errb.String())
		}
		j, err := os.ReadFile(base + ".json")
		if err != nil {
			t.Fatal(err)
		}
		d, err := os.ReadFile(base + ".dot")
		if err != nil {
			t.Fatal(err)
		}
		return string(j), string(d)
	}
	dir := t.TempDir()
	j1, d1 := readPair(filepath.Join(dir, "one"))
	j2, d2 := readPair(filepath.Join(dir, "two"))
	if j1 != j2 {
		t.Error("lock-graph JSON is not byte-stable across runs")
	}
	if d1 != d2 {
		t.Error("lock-graph DOT is not byte-stable across runs")
	}
	for _, want := range []string{`"version": 1`, "lockord.a", "lockord.b", "lockord.c"} {
		if !strings.Contains(j1, want) {
			t.Errorf("JSON artifact missing %q:\n%s", want, j1)
		}
	}
	if !strings.HasPrefix(d1, "digraph lockorder {") {
		t.Errorf("DOT artifact does not open a digraph:\n%.80s", d1)
	}
	if !strings.Contains(d1, "->") {
		t.Errorf("DOT artifact has no edges:\n%s", d1)
	}
}

// TestLockGraphWriteFailure: an unwritable base path is a load-class
// error (exit 2), not a silent skip.
func TestLockGraphWriteFailure(t *testing.T) {
	var out, errb bytes.Buffer
	base := filepath.Join(t.TempDir(), "no", "such", "dir", "lockgraph")
	if code := run([]string{"-only", "lockorder", "-lockgraph", base, fixtureRoot}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2; stderr %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "lockgraph:") {
		t.Errorf("stderr = %q", errb.String())
	}
}

// TestJSONStable: two -json runs over the same tree are byte-identical.
func TestJSONStable(t *testing.T) {
	args := []string{"-only", "errcheck", "-json", fixtureRoot}
	var out1, out2, errb bytes.Buffer
	if code := run(args, &out1, &errb); code != 1 {
		t.Fatalf("exit %d, want 1 (findings present); stderr %s", code, errb.String())
	}
	if code := run(args, &out2, &errb); code != 1 {
		t.Fatalf("second run exit %d", code)
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Error("-json output is not byte-stable across runs")
	}
	if !strings.HasPrefix(out1.String(), "{\n  \"version\": 1,") {
		t.Errorf("JSON must lead with its version, got %.40q", out1.String())
	}
}
