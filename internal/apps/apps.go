// Package apps implements the study's 17 graph applications over the
// IrGL-like operator IR (Table VII of the paper): seven high-level
// problems - BFS, CC, MIS, MST, PR, SSSP and TRI - each with one or more
// implementation strategies (topology-driven, data-driven worklist,
// direction-optimising, two-phase, residual, ...).
//
// Every application is functionally real: it computes the correct answer
// on its input, validated against a sequential reference implementation
// in reference.go. Running an application produces an irgl.Trace that
// the performance model consumes.
package apps

import (
	"fmt"

	"gpuport/internal/graph"
	"gpuport/internal/irgl"
)

// App describes one application of the study.
type App struct {
	// Name is the study-wide identifier, e.g. "bfs-wl".
	Name string
	// Problem is the high-level problem, e.g. "BFS".
	Problem string
	// Variant distinguishes implementation strategies, e.g. "wl".
	Variant string
	// Fastest marks the variant implementing the fastest known
	// algorithm for the problem (the (*) rows of Table VII).
	Fastest bool
	// Version is the implementation's trace-compatibility token. A
	// trace depends only on (application, input); the trace cache keys
	// on (Name, Version, input fingerprint), so any change to an
	// application that can alter its trace or output MUST bump its
	// version here, or stale cached traces would be served.
	Version string
	// Run executes the application on g and returns the instrumented
	// trace plus the application-specific output (distances, labels,
	// counts, ...).
	Run func(g *graph.Graph) (*irgl.Trace, any)
	// Check validates an output produced by Run against a sequential
	// reference computation on the same graph.
	Check func(g *graph.Graph, out any) error
}

// All returns the 17 applications in their canonical order. The slice
// is freshly allocated; callers may reorder it.
func All() []App {
	return []App{
		{Name: "bfs-wl", Problem: "BFS", Variant: "worklist", Fastest: false, Version: "1", Run: runBFSWL, Check: checkBFS},
		{Name: "bfs-topo", Problem: "BFS", Variant: "topology", Fastest: false, Version: "1", Run: runBFSTopo, Check: checkBFS},
		{Name: "bfs-hybrid", Problem: "BFS", Variant: "direction-opt", Fastest: true, Version: "1", Run: runBFSHybrid, Check: checkBFS},
		{Name: "bfs-tp", Problem: "BFS", Variant: "two-phase", Fastest: false, Version: "1", Run: runBFSTP, Check: checkBFS},
		{Name: "cc-sv", Problem: "CC", Variant: "shiloach-vishkin", Fastest: true, Version: "1", Run: runCCSV, Check: checkCC},
		{Name: "cc-wl", Problem: "CC", Variant: "label-prop", Fastest: false, Version: "1", Run: runCCWL, Check: checkCC},
		{Name: "mis-wl", Problem: "MIS", Variant: "worklist", Fastest: true, Version: "1", Run: runMISWL, Check: checkMIS},
		{Name: "mis-topo", Problem: "MIS", Variant: "topology", Fastest: false, Version: "1", Run: runMISTopo, Check: checkMIS},
		{Name: "mst-boruvka", Problem: "MST", Variant: "", Fastest: true, Version: "1", Run: runMSTBoruvka, Check: checkMST},
		{Name: "pr-topo", Problem: "PR", Variant: "pull", Fastest: false, Version: "1", Run: runPRTopo, Check: checkPR},
		{Name: "pr-residual", Problem: "PR", Variant: "push-residual", Fastest: true, Version: "1", Run: runPRResidual, Check: checkPR},
		{Name: "sssp-wl", Problem: "SSSP", Variant: "worklist", Fastest: false, Version: "1", Run: runSSSPWL, Check: checkSSSP},
		{Name: "sssp-topo", Problem: "SSSP", Variant: "topology", Fastest: false, Version: "1", Run: runSSSPTopo, Check: checkSSSP},
		{Name: "sssp-nf", Problem: "SSSP", Variant: "near-far", Fastest: true, Version: "1", Run: runSSSPNF, Check: checkSSSP},
		{Name: "tri-bs", Problem: "TRI", Variant: "binary-search", Fastest: false, Version: "1", Run: runTRIBS, Check: checkTRI},
		{Name: "tri-merge", Problem: "TRI", Variant: "merge", Fastest: true, Version: "1", Run: runTRIMerge, Check: checkTRI},
		{Name: "tri-hash", Problem: "TRI", Variant: "hash", Fastest: false, Version: "1", Run: runTRIHash, Check: checkTRI},
	}
}

// ByName returns the application with the given name.
func ByName(name string) (App, error) {
	for _, a := range All() {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("apps: unknown application %q", name)
}

// Infinity is the "unreached" distance marker for BFS and SSSP.
const Infinity int32 = 1<<30 - 1

// SourceNode returns the traversal source for g: the highest-degree
// node. On social networks this is the hub (the conventional choice for
// GPU BFS studies); on road grids it is an ordinary intersection.
// Callers must handle the empty graph themselves (there is no valid
// source to return); the traversal applications short-circuit before
// asking for one.
func SourceNode(g *graph.Graph) int32 {
	best, bestDeg := int32(0), -1
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		if d := g.Degree(u); d > bestDeg {
			best, bestDeg = u, d
		}
	}
	return best
}

// initDist allocates a distance array set to Infinity except src = 0.
func initDist(n int, src int32) []int32 {
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = Infinity
	}
	if n > 0 {
		dist[src] = 0
	}
	return dist
}
