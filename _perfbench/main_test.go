package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatches keeps the root BENCHMARK.json and the
// metrics this program prints in step: same workloads, and the same
// metric names and units in the same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var declared, driven []string
	for _, w := range doc.Workloads {
		declared = append(declared, w.Name)
	}
	for name := range workloads {
		driven = append(driven, name)
	}
	sort.Strings(declared)
	sort.Strings(driven)
	if len(declared) != len(driven) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the program drives %v", declared, driven)
	}
	for i := range declared {
		if declared[i] != driven[i] {
			t.Fatalf("BENCHMARK.json declares workloads %v, the program drives %v", declared, driven)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
