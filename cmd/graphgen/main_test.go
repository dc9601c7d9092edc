package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpuport/internal/graph"
)

func TestGenerateAllKinds(t *testing.T) {
	for _, kind := range []string{"road", "social", "random"} {
		var buf bytes.Buffer
		args := []string{"-kind", kind, "-seed", "3"}
		switch kind {
		case "road":
			args = append(args, "-side", "20")
		case "social":
			args = append(args, "-scale", "8")
		case "random":
			args = append(args, "-nodes", "500")
		}
		if err := run(args, &buf); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !strings.Contains(buf.String(), "Table VIII") {
			t.Errorf("%s: properties not printed", kind)
		}
	}
}

func TestWriteFormats(t *testing.T) {
	dir := t.TempDir()
	binPath := filepath.Join(dir, "g.bin")
	var buf bytes.Buffer
	if err := run([]string{"-kind", "random", "-nodes", "200", "-degree", "3",
		"-format", "binary", "-out", binPath}, &buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(binPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := graph.ReadBinary(f)
	if err != nil {
		t.Fatalf("written binary unreadable: %v", err)
	}
	if g.NumNodes() != 200 {
		t.Errorf("nodes = %d", g.NumNodes())
	}

	txtPath := filepath.Join(dir, "g.txt")
	if err := run([]string{"-kind", "road", "-side", "10", "-out", txtPath}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "# road road") {
		t.Errorf("edge list header: %q", string(data[:30]))
	}
}

// TestCheckSizeBounds pins the int32 bounds at their edges through the
// check alone, so no generator ever runs at these sizes.
func TestCheckSizeBounds(t *testing.T) {
	for _, c := range []struct {
		kind                                   string
		side, scale, edgeFactor, nodes, degree int
		ok                                     bool
	}{
		{kind: "road", side: 23165, ok: true},
		{kind: "road", side: 23166},
		{kind: "road", side: math.MaxInt},
		{kind: "social", scale: 30, ok: true},
		{kind: "social", scale: 31},
		{kind: "social", scale: 20, edgeFactor: 2047, ok: true},
		{kind: "social", scale: 20, edgeFactor: 2048},
		{kind: "social", scale: 1, edgeFactor: math.MaxInt},
		{kind: "random", nodes: math.MaxInt32, ok: true},
		{kind: "random", nodes: math.MaxInt32 + 1},
		{kind: "random", nodes: 1024, degree: 1048575, ok: true},
		{kind: "random", nodes: 1024, degree: 1048576},
		{kind: "random", nodes: 2, degree: math.MaxInt},
	} {
		err := checkSize(c.kind, c.side, c.scale, c.edgeFactor, c.nodes, c.degree)
		if (err == nil) != c.ok {
			t.Errorf("%+v: checkSize = %v", c, err)
		}
	}
}

func TestErrors(t *testing.T) {
	badFormatOut := filepath.Join(t.TempDir(), "x")
	for _, args := range [][]string{
		{"-kind", "torus"},
		{"-kind", "road", "-side", "5", "-out", "/nonexistent-dir/x", "-format", "edgelist"},
		{"-kind", "road", "-side", "5", "-out", badFormatOut, "-format", "yaml"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
	// Sizes a generator cannot build are errors, not generator panics or
	// silently empty graphs.
	for _, args := range [][]string{
		{"-kind", "random", "-nodes", "-5"},
		{"-kind", "random", "-nodes", "10", "-degree", "-1"},
		{"-kind", "social", "-scale", "4", "-edgefactor", "-2"},
		{"-kind", "road", "-side", "-3"},
		{"-kind", "social", "-scale", "64"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil || buf.Len() > 0 {
			t.Errorf("run(%v) = %v after printing %q, want an error and no output", args, err, buf.String())
		}
	}
	// An unknown format must be rejected before the output file is
	// created; leaving an empty stray behind is how cmd/graphgen/x
	// once ended up committed.
	if _, err := os.Stat(badFormatOut); !os.IsNotExist(err) {
		t.Errorf("bad-format run left %s behind (stat err = %v)", badFormatOut, err)
	}
}
