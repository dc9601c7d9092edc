package apps

import (
	"gpuport/internal/graph"
	"gpuport/internal/irgl"
)

// runSSSPWL is data-driven Bellman-Ford: a worklist of nodes whose
// distance improved, each relaxing its out-edges with atomic min.
func runSSSPWL(g *graph.Graph) (*irgl.Trace, any) {
	rt := irgl.NewRuntime("sssp-wl", g)
	if g.NumNodes() == 0 {
		return rt.Trace(), []int32{}
	}
	src := SourceNode(g)
	dist := initDist(g.NumNodes(), src)
	wl := irgl.NewWorklist(g.NumNodes())
	wl.SeedHost(src)

	rt.Iterate("sssp", func(iter int) bool {
		k := rt.Launch("sssp_relax")
		k.ForAll(wl.Items(), func(it *irgl.Item, u int32) {
			du := dist[u]
			dst, ws := it.Edges(u)
			for i, v := range dst {
				if it.AtomicMin(dist, v, du+ws[i]) {
					it.Push(wl, v)
				}
			}
		})
		k.End()
		return wl.Swap() > 0
	})
	return rt.Trace(), dist
}

// runSSSPTopo is topology-driven Bellman-Ford: every iteration relaxes
// every edge until a fixpoint. Heavy redundant work but no worklist.
func runSSSPTopo(g *graph.Graph) (*irgl.Trace, any) {
	rt := irgl.NewRuntime("sssp-topo", g)
	src := SourceNode(g)
	dist := initDist(g.NumNodes(), src)

	rt.Iterate("sssp", func(iter int) bool {
		changed := false
		k := rt.Launch("sssp_all")
		k.ForAllNodes(func(it *irgl.Item, u int32) {
			du := dist[u]
			if du == Infinity {
				return
			}
			dst, ws := it.Edges(u)
			for i, v := range dst {
				if it.AtomicMin(dist, v, du+ws[i]) {
					changed = true
				}
			}
		})
		k.End()
		return changed
	})
	return rt.Trace(), dist
}

// runSSSPNF is near-far (delta-stepping-like) SSSP: relaxations whose
// tentative distance stays below the current threshold go to the near
// worklist and are processed this phase; the rest wait in the far list.
// The fastest strategy on road networks.
func runSSSPNF(g *graph.Graph) (*irgl.Trace, any) {
	rt := irgl.NewRuntime("sssp-nf", g)
	n := g.NumNodes()
	if n == 0 {
		return rt.Trace(), []int32{}
	}
	src := SourceNode(g)
	dist := initDist(n, src)

	// Delta: mean edge weight (the usual heuristic).
	var wsum int64
	for _, w := range g.Weight {
		wsum += int64(w)
	}
	delta := int32(1)
	if g.NumEdges() > 0 {
		delta = int32(wsum/int64(g.NumEdges())) + 1
	}

	near := irgl.NewWorklist(n)
	far := irgl.NewWorklist(n)
	near.SeedHost(src)
	threshold := delta

	rt.Iterate("sssp_phases", func(phase int) bool {
		// Drain the near worklist for the current threshold.
		rt.Iterate("sssp_near", func(iter int) bool {
			k := rt.Launch("sssp_nf_relax")
			k.ForAll(near.Items(), func(it *irgl.Item, u int32) {
				du := dist[u]
				if du >= threshold {
					// Stale entry belonging to a later bucket.
					it.Push(far, u)
					return
				}
				dst, ws := it.Edges(u)
				for i, v := range dst {
					if nd := du + ws[i]; it.AtomicMin(dist, v, nd) {
						if nd < threshold {
							it.Push(near, v)
						} else {
							it.Push(far, v)
						}
					}
				}
			})
			k.End()
			return near.Swap() > 0
		})
		// Promote the far list (its entries sit in the next buffer until
		// swapped in); duplicates are filtered by the stale check above.
		far.Swap()
		kf := rt.Launch("sssp_nf_promote")
		kf.ForAll(far.Items(), func(it *irgl.Item, u int32) {
			it.Work(1)
			it.Push(near, u)
		})
		kf.End()
		threshold += delta
		return near.Swap() > 0
	})
	return rt.Trace(), dist
}

// checkSSSP validates distances against sequential Dijkstra.
func checkSSSP(g *graph.Graph, out any) error {
	dist, err := asInt32Slice(g, out)
	if err != nil {
		return err
	}
	return compareDist("sssp", refDijkstra(g, SourceNode(g)), dist)
}
