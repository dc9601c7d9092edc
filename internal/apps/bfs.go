package apps

import (
	"gpuport/internal/graph"
	"gpuport/internal/irgl"
)

// runBFSWL is data-driven BFS: a worklist of frontier nodes, each
// relaxing its neighbours with an atomic distance update and pushing
// improved nodes. One kernel launch per BFS level.
func runBFSWL(g *graph.Graph) (*irgl.Trace, any) {
	rt := irgl.NewRuntime("bfs-wl", g)
	if g.NumNodes() == 0 {
		return rt.Trace(), []int32{}
	}
	src := SourceNode(g)
	dist := initDist(g.NumNodes(), src)
	wl := irgl.NewWorklist(g.NumNodes())
	wl.SeedHost(src)

	rt.Iterate("bfs", func(iter int) bool {
		k := rt.Launch("bfs_relax")
		k.ForAll(wl.Items(), func(it *irgl.Item, u int32) {
			du := dist[u]
			dst, _ := it.Edges(u)
			for _, v := range dst {
				if it.AtomicMin(dist, v, du+1) {
					it.Push(wl, v)
				}
			}
		})
		k.End()
		return wl.Swap() > 0
	})
	return rt.Trace(), dist
}

// runBFSTopo is topology-driven level-synchronous BFS: every iteration
// scans all nodes and processes those on the current level. Simple, no
// worklist atomics, but launches |V| items per level - wasteful on
// high-diameter road networks.
func runBFSTopo(g *graph.Graph) (*irgl.Trace, any) {
	rt := irgl.NewRuntime("bfs-topo", g)
	src := SourceNode(g)
	dist := initDist(g.NumNodes(), src)

	rt.Iterate("bfs", func(iter int) bool {
		level := int32(iter)
		changed := false
		k := rt.Launch("bfs_level")
		k.ForAllNodes(func(it *irgl.Item, u int32) {
			if dist[u] != level {
				return
			}
			dst, _ := it.Edges(u)
			for _, v := range dst {
				// Benign race in the GPU original: plain write of
				// level+1; all writers write the same value.
				if dist[v] > level+1 {
					dist[v] = level + 1
					it.RandomAccess(1)
					changed = true
				}
			}
		})
		k.End()
		return changed
	})
	return rt.Trace(), dist
}

// runBFSHybrid is direction-optimising BFS: push (worklist) while the
// frontier is small, switching to pull (scan unvisited nodes for a
// visited parent) when the frontier covers a large fraction of edges.
// This is the fastest BFS on social networks.
func runBFSHybrid(g *graph.Graph) (*irgl.Trace, any) {
	rt := irgl.NewRuntime("bfs-hybrid", g)
	n := g.NumNodes()
	if n == 0 {
		return rt.Trace(), []int32{}
	}
	src := SourceNode(g)
	dist := initDist(n, src)
	wl := irgl.NewWorklist(n)
	wl.SeedHost(src)

	// Switch to pull when frontier edges exceed this fraction of all
	// edges (Beamer's alpha heuristic, simplified).
	const pullThreshold = 0.05
	totalEdges := g.NumEdges()

	rt.Iterate("bfs", func(iter int) bool {
		level := int32(iter)
		frontierEdges := 0
		for _, u := range wl.Items() {
			frontierEdges += g.Degree(u)
		}
		if float64(frontierEdges) < pullThreshold*float64(totalEdges) {
			// Push phase.
			k := rt.Launch("bfs_push")
			k.ForAll(wl.Items(), func(it *irgl.Item, u int32) {
				du := dist[u]
				dst, _ := it.Edges(u)
				for _, v := range dst {
					if it.AtomicMin(dist, v, du+1) {
						it.Push(wl, v)
					}
				}
			})
			k.End()
			return wl.Swap() > 0
		}
		// Pull phase: each unvisited node scans its neighbours for one
		// on the current level. The early exit on the first hit is the
		// source of the pull direction's advantage.
		changed := false
		k := rt.Launch("bfs_pull")
		k.ForAllNodes(func(it *irgl.Item, u int32) {
			if dist[u] != Infinity {
				return
			}
			nbrs := g.Neighbors(u)
			scanned := int64(0)
			for _, v := range nbrs {
				scanned++
				if dist[v] == level {
					dist[u] = level + 1
					it.Push(wl, u)
					changed = true
					break
				}
			}
			it.Work(scanned)
			it.RandomAccess(scanned)
		})
		k.End()
		wl.Swap()
		return changed
	})
	return rt.Trace(), dist
}

// runBFSTP is two-phase BFS: an expand kernel pushes every neighbour of
// the frontier (no filtering, one atomic push per edge), then a filter
// kernel claims unvisited nodes with a CAS. Maximum pressure on the
// worklist atomics, which is exactly what coop-cv targets.
func runBFSTP(g *graph.Graph) (*irgl.Trace, any) {
	rt := irgl.NewRuntime("bfs-tp", g)
	n := g.NumNodes()
	if n == 0 {
		return rt.Trace(), []int32{}
	}
	src := SourceNode(g)
	dist := initDist(n, src)
	expand := irgl.NewWorklist(n)
	frontier := irgl.NewWorklist(n)
	frontier.SeedHost(src)

	rt.Iterate("bfs", func(iter int) bool {
		level := int32(iter)
		ke := rt.Launch("bfs_expand")
		ke.ForAll(frontier.Items(), func(it *irgl.Item, u int32) {
			dst, _ := it.Edges(u)
			for _, v := range dst {
				it.Push(expand, v)
			}
		})
		ke.End()
		expand.Swap()

		kf := rt.Launch("bfs_filter")
		kf.ForAll(expand.Items(), func(it *irgl.Item, v int32) {
			it.Work(1)
			if it.AtomicCAS(dist, v, Infinity, level+1) {
				it.Push(frontier, v)
			}
		})
		kf.End()
		return frontier.Swap() > 0
	})
	return rt.Trace(), dist
}

// checkBFS validates distances against the sequential reference.
func checkBFS(g *graph.Graph, out any) error {
	dist, err := asInt32Slice(g, out)
	if err != nil {
		return err
	}
	return compareDist("bfs", refBFS(g, SourceNode(g)), dist)
}
