package main

import (
	"reflect"
	"testing"
	"time"
)

var (
	testChips  = []string{"M4000", "GTX1080", "HD5500", "IRIS", "R9", "MALI"}
	testApps   = []string{"bfs-wl", "bfs-topo", "sssp-wl", "cc-sv", "pr-topo", "tri-bs"}
	testInputs = []string{"usa.ny", "soc-pokec", "rand-8k"}
)

func TestGenMixDeterministic(t *testing.T) {
	a := genMix(7, 120, 200*time.Millisecond, testChips, testApps, testInputs)
	b := genMix(7, 120, 200*time.Millisecond, testChips, testApps, testInputs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced two different mixes")
	}
	c := genMix(8, 120, 200*time.Millisecond, testChips, testApps, testInputs)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same mix")
	}
}

func TestGenMixShape(t *testing.T) {
	const n = 200
	mix := genMix(3, n, 250*time.Millisecond, testChips, testApps, testInputs)
	if len(mix) != n {
		t.Fatalf("got %d campaigns, want %d", len(mix), n)
	}
	kinds := map[string]int{}
	seen := map[string]bool{}
	for i, c := range mix {
		kinds[c.kind]++
		if want := time.Duration(i) * 250 * time.Millisecond; c.due != want {
			t.Fatalf("campaign %d due at %v, want %v", i, c.due, want)
		}
		key := specKey(c.spec)
		switch c.kind {
		case kindResubmit:
			if !seen[key] {
				t.Errorf("campaign %d resubmits a spec never sent before", i)
			}
		case kindFresh:
			if n := len(c.spec.Chips); n < 1 || n > 2 {
				t.Errorf("fresh campaign %d has %d chips", i, n)
			}
			if n := len(c.spec.Apps); n < 1 || n > 3 {
				t.Errorf("fresh campaign %d has %d apps", i, n)
			}
			if len(c.spec.Inputs) != 1 {
				t.Errorf("fresh campaign %d has %d inputs", i, len(c.spec.Inputs))
			}
			fallthrough
		case kindFullRow:
			if seen[key] {
				t.Errorf("campaign %d (%s) repeats an earlier spec", i, c.kind)
			}
		}
		if c.kind == kindFullRow && (len(c.spec.Chips) != 1 || c.spec.Apps != nil || c.spec.Inputs != nil) {
			t.Errorf("full-row campaign %d is not one chip over every app and input: %+v", i, c.spec)
		}
		seen[key] = true
	}
	// Every block of ten holds 7 fresh, 2 resubmits and 1 full row; only
	// a resubmit dealt before anything was sent turns fresh.
	if kinds[kindFullRow] != n/10 {
		t.Errorf("%d full-row campaigns, want %d", kinds[kindFullRow], n/10)
	}
	if kinds[kindFresh]+kinds[kindResubmit] != n*9/10 || kinds[kindResubmit] < n*2/10-1 {
		t.Errorf("kinds = %v, want 70%% fresh, 20%% resubmit", kinds)
	}
}
