package apps

import (
	"gpuport/internal/graph"
	"gpuport/internal/irgl"
	"gpuport/internal/stats"
)

// MIS node states.
const (
	misUndecided int32 = iota
	misIn
	misOut
)

// misPriorities returns deterministic pseudo-random priorities, the
// symmetry-breaking device of Luby's algorithm. Ties are broken by node
// ID in the comparison, so distinct priorities are not required.
func misPriorities(n int) []int32 {
	p := make([]int32, n)
	r := stats.NewRNG(771144)
	for i := range p {
		p[i] = int32(r.Uint64() & 0x7fffffff)
	}
	return p
}

// misBeats reports whether node a (priority pa) beats node b (pb) in
// the symmetry-breaking order.
func misBeats(pa int32, a int32, pb int32, b int32) bool {
	if pa != pb {
		return pa > pb
	}
	return a > b
}

// runMISWL is Luby's maximal independent set with a worklist of
// undecided nodes: local maxima join the set and knock out their
// neighbours; survivors are re-queued.
func runMISWL(g *graph.Graph) (*irgl.Trace, any) {
	rt := irgl.NewRuntime("mis-wl", g)
	n := g.NumNodes()
	prio := misPriorities(n)
	status := make([]int32, n)
	wl := irgl.NewWorklist(n)
	for i := 0; i < n; i++ {
		wl.SeedHost(int32(i))
	}

	// prev snapshots the statuses the select kernel reads: in the GPU
	// original select reads the previous round's array, so a node that
	// joins mid-kernel must not hide itself from later comparisons.
	prev := make([]int32, n)

	rt.Iterate("mis", func(iter int) bool {
		copy(prev, status)
		// Select kernel: local maxima among undecided neighbours join.
		sel := rt.Launch("mis_select")
		sel.ForAll(wl.Items(), func(it *irgl.Item, u int32) {
			if prev[u] != misUndecided {
				return
			}
			isMax := true
			dst, _ := it.Edges(u)
			for _, v := range dst {
				if prev[v] == misUndecided && misBeats(prio[v], v, prio[u], u) {
					isMax = false
				}
			}
			if isMax {
				status[u] = misIn
			}
		})
		sel.End()

		// Knockout + requeue kernel.
		ko := rt.Launch("mis_knockout")
		ko.ForAll(wl.Items(), func(it *irgl.Item, u int32) {
			switch status[u] {
			case misIn:
				dst, _ := it.Edges(u)
				for _, v := range dst {
					if status[v] == misUndecided {
						it.AtomicCAS(status, v, misUndecided, misOut)
					}
				}
			case misUndecided:
				it.Work(1)
				it.Push(wl, u)
			}
		})
		ko.End()
		return wl.Swap() > 0
	})
	return rt.Trace(), status
}

// runMISTopo is the topology-driven variant: every round scans all
// nodes rather than tracking the undecided set.
func runMISTopo(g *graph.Graph) (*irgl.Trace, any) {
	rt := irgl.NewRuntime("mis-topo", g)
	n := g.NumNodes()
	prio := misPriorities(n)
	status := make([]int32, n)

	prev := make([]int32, n)

	rt.Iterate("mis", func(iter int) bool {
		copy(prev, status)
		sel := rt.Launch("mis_select")
		sel.ForAllNodes(func(it *irgl.Item, u int32) {
			if prev[u] != misUndecided {
				return
			}
			isMax := true
			dst, _ := it.Edges(u)
			for _, v := range dst {
				if prev[v] == misUndecided && misBeats(prio[v], v, prio[u], u) {
					isMax = false
				}
			}
			if isMax {
				status[u] = misIn
			}
		})
		sel.End()

		remaining := false
		ko := rt.Launch("mis_knockout")
		ko.ForAllNodes(func(it *irgl.Item, u int32) {
			switch status[u] {
			case misIn:
				dst, _ := it.Edges(u)
				for _, v := range dst {
					if status[v] == misUndecided {
						it.AtomicCAS(status, v, misUndecided, misOut)
					}
				}
			case misUndecided:
				it.Work(1)
				remaining = true
			}
		})
		ko.End()
		return remaining
	})
	return rt.Trace(), status
}

// checkMIS verifies independence (no two set members adjacent) and
// maximality (every non-member has a member neighbour).
func checkMIS(g *graph.Graph, out any) error {
	status, err := asInt32Slice(g, out)
	if err != nil {
		return err
	}
	return verifyMIS(g, status)
}
