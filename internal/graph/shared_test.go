package graph_test

import (
	"sync"
	"testing"

	"gpuport/internal/apps"
	"gpuport/internal/graph"
	"gpuport/internal/irglc"
)

// namedInputFPs pins the content fingerprint of every named input, in
// StandardInputs then ExtendedInputs order. Trace-cache keys, campaign
// fingerprints and job IDs are all derived from these.
var namedInputFPs = []struct{ name, fp string }{
	{"usa.ny", "gfp2-24b3ad2fb0f0291e016d586b82b05341"},
	{"soc-pokec", "gfp2-89fc0173e8469997c0effd33b84f307f"},
	{"rand-8k", "gfp2-b96c8a25a0d2ee96d962819649a14ce3"},
	{"usa.bay", "gfp2-accd52df45b7011b3d8568350567d6ab"},
	{"soc-lj", "gfp2-9bdd660463794690240e31a8531eceb9"},
	{"rand-16k", "gfp2-6916af25efb80835e5d5eeec6ace4cff"},
}

// TestSharedInputsSurviveConcurrentUse runs every application
// (validated against its reference) and every irglc sample program
// concurrently on every shared input, each from a fresh goroutine that
// looks its input up by name. Run under -race it proves that nothing
// writes to a shared graph. Afterwards each graph's recomputed content
// fingerprint must still equal its memo and its pinned value, which
// freshly generated inputs must match too; InputByName must return one
// graph per name, and StandardInputs a new one on every call.
func TestSharedInputsSurviveConcurrentUse(t *testing.T) {
	var progs []*irglc.Executable
	for name, src := range irglc.Samples() {
		exe, err := irglc.Compile(src)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		progs = append(progs, exe)
	}
	var wg sync.WaitGroup
	for _, in := range namedInputFPs {
		for _, app := range apps.All() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g, err := graph.InputByName(in.name)
				if err != nil {
					t.Error(err)
					return
				}
				_, out := app.Run(g)
				if err := app.Check(g, out); err != nil {
					t.Errorf("%s on %s: %v", app.Name, in.name, err)
				}
			}()
		}
		for _, exe := range progs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g, err := graph.InputByName(in.name)
				if err != nil {
					t.Error(err)
					return
				}
				if _, _, err := exe.Run(g); err != nil {
					t.Errorf("%s on %s: %v", exe.Program().Name, in.name, err)
				}
			}()
		}
	}
	wg.Wait()

	fresh := append(graph.StandardInputs(), graph.ExtendedInputs()...)
	again := graph.StandardInputs()
	shared := graph.SharedStandardInputs()
	if len(fresh) != len(namedInputFPs) {
		t.Fatalf("%d named inputs, %d pinned", len(fresh), len(namedInputFPs))
	}
	for i, in := range namedInputFPs {
		g, err := graph.InputByName(in.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := graph.RecomputeFingerprint(g); got != g.Fingerprint() {
			t.Errorf("%s: content fingerprint %s, memo %s: a shared graph was modified", in.name, got, g.Fingerprint())
		}
		if g.Fingerprint() != in.fp {
			t.Errorf("%s: fingerprint %s, pinned %s", in.name, g.Fingerprint(), in.fp)
		}
		if fresh[i].Name != in.name || fresh[i].Fingerprint() != in.fp {
			t.Errorf("fresh input %d: %s %s, pinned %s %s", i, fresh[i].Name, fresh[i].Fingerprint(), in.name, in.fp)
		}
		if g2, _ := graph.InputByName(in.name); g2 != g {
			t.Errorf("InputByName(%s) returned two different graphs", in.name)
		}
		if fresh[i] == g {
			t.Errorf("a freshly generated %s is the shared graph", in.name)
		}
		if i < len(shared) && (shared[i] != g || again[i] == fresh[i]) {
			t.Errorf("%s: SharedStandardInputs must return the shared graph and StandardInputs a new one", in.name)
		}
	}
}
