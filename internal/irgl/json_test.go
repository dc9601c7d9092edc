package irgl

import (
	"bytes"
	"strings"
	"testing"

	"gpuport/internal/graph"
)

func TestTraceJSONRoundTrip(t *testing.T) {
	g := graph.GenerateUniform("json-g", 300, 5, 7)
	rt := NewRuntime("json-app", g)
	wl := NewWorklist(300)
	wl.SeedHost(0)
	rt.Iterate("loop", func(iter int) bool {
		k := rt.Launch("kernel")
		k.ForAll(wl.Items(), func(it *Item, u int32) {
			dst, _ := it.Edges(u)
			for _, v := range dst {
				it.Push(wl, v)
			}
		})
		k.End()
		wl.Swap()
		return iter < 2
	})
	tr := rt.Trace()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != tr.App || got.Input != tr.Input {
		t.Errorf("identity %s/%s", got.App, got.Input)
	}
	if len(got.Launches) != len(tr.Launches) || len(got.Loops) != len(tr.Loops) {
		t.Fatalf("shape mismatch")
	}
	for i := range tr.Launches {
		if got.Launches[i] != tr.Launches[i] {
			t.Errorf("launch %d mismatch", i)
		}
	}
	for i := range tr.Loops {
		if got.Loops[i] != tr.Loops[i] {
			t.Errorf("loop %d mismatch", i)
		}
	}
}

func TestTraceJSONCompactRoundTrip(t *testing.T) {
	g := graph.GenerateUniform("json-g", 200, 4, 11)
	rt := NewRuntime("compact-app", g)
	k := rt.Launch("kernel")
	k.ForAllNodes(func(it *Item, u int32) {
		it.Edges(u)
	})
	k.End()
	tr := rt.Trace()

	raw, err := tr.AppendJSONCompact(nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsRune(raw, '\n') {
		t.Error("compact encoding should be a single line")
	}
	got, err := ReadTraceJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.App != tr.App || got.Input != tr.Input || len(got.Launches) != len(tr.Launches) {
		t.Fatalf("compact round-trip mismatch: %s/%s, %d launches", got.App, got.Input, len(got.Launches))
	}
	for i := range tr.Launches {
		if got.Launches[i] != tr.Launches[i] {
			t.Errorf("launch %d mismatch", i)
		}
	}
}

func TestReadTraceJSONErrors(t *testing.T) {
	if _, err := ReadTraceJSON(strings.NewReader("{nope")); err == nil {
		t.Error("bad JSON should error")
	}
	if _, err := ReadTraceJSON(strings.NewReader(`{"app":"a","input":"i","launches":[{"Items":-5}]}`)); err == nil {
		t.Error("negative counters should be rejected")
	}
}
