package apps

import (
	"gpuport/internal/graph"
	"gpuport/internal/irgl"
)

// orientByDegree builds the degree-oriented adjacency: edge (u, v) is
// kept as u -> v iff (deg(u), u) < (deg(v), v). Every triangle then has
// exactly one "apex" orientation, and the heaviest hubs keep the
// shortest lists - the standard O(m^1.5) preparation all three triangle
// kernels share (done once on the host, as GPU frameworks do).
//
// Each row is u's adjacency list filtered in order, so it is strictly
// increasing like the graph's own rows (Build and Validate guarantee
// those), which the kernels' searches and merges need. The rows are
// capped subslices of one slab. A symmetric graph, as every study input
// is, keeps exactly half its edges; on any other graph append may move
// the slab, which leaves the rows already cut intact.
func orientByDegree(g *graph.Graph) [][]int32 {
	n := g.NumNodes()
	out := make([][]int32, n)
	slab := make([]int32, 0, g.NumEdges()/2)
	for u := int32(0); int(u) < n; u++ {
		du, start := g.Degree(u), len(slab)
		for _, v := range g.Neighbors(u) {
			if dv := g.Degree(v); du < dv || (du == dv && u < v) {
				slab = append(slab, v)
			}
		}
		out[u] = slab[start:len(slab):len(slab)]
	}
	return out
}

// runTRIBS counts triangles with per-edge binary search: for each
// oriented edge (u, v), each w in N+(u) is searched in N+(v).
func runTRIBS(g *graph.Graph) (*irgl.Trace, any) {
	rt := irgl.NewRuntime("tri-bs", g)
	adj := orientByDegree(g)
	var count int64

	k := rt.Launch("tri_bs")
	k.ForAllNodes(func(it *irgl.Item, u int32) {
		au := adj[u]
		// Every search step is one work unit and one irregular access;
		// they are charged once per item.
		steps := int64(0)
		for _, v := range au {
			av := adj[v]
			for _, w := range au {
				if w == v {
					continue
				}
				// Binary search w in av.
				steps++
				lo, hi := 0, len(av)
				for lo < hi {
					steps++
					mid := (lo + hi) / 2
					if av[mid] < w {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				if lo < len(av) && av[lo] == w {
					count++
				}
			}
		}
		it.Work(steps)
		it.RandomAccess(steps)
	})
	k.End()
	// Each triangle {a,b,c} with orientation a->b, a->c, b->c is found
	// twice from apex a (searching c in N+(b) and b in N+(c)? no - only
	// w in N+(a) searched within N+(v) for each v in N+(a); the pair
	// (v=b, w=c) hits iff c in N+(b); the pair (v=c, w=b) misses since
	// b < c in orientation implies b not in N+(c)). Count is exact.
	return rt.Trace(), count
}

// runTRIMerge counts triangles by merging sorted oriented lists.
func runTRIMerge(g *graph.Graph) (*irgl.Trace, any) {
	rt := irgl.NewRuntime("tri-merge", g)
	adj := orientByDegree(g)
	var count int64

	k := rt.Launch("tri_merge")
	k.ForAllNodes(func(it *irgl.Item, u int32) {
		au := adj[u]
		for _, v := range au {
			av := adj[v]
			i, j := 0, 0
			steps := int64(0)
			for i < len(au) && j < len(av) {
				steps++
				switch {
				case au[i] < av[j]:
					i++
				case au[i] > av[j]:
					j++
				default:
					count++
					i++
					j++
				}
			}
			it.Work(steps + 1)
			it.RandomAccess(steps + 1)
		}
	})
	k.End()
	return rt.Trace(), count
}

// runTRIHash counts triangles with a per-node marker array: mark N+(u),
// then probe every w in N+(v) for each v in N+(u). Probes are O(1) but
// fully irregular.
func runTRIHash(g *graph.Graph) (*irgl.Trace, any) {
	rt := irgl.NewRuntime("tri-hash", g)
	n := g.NumNodes()
	adj := orientByDegree(g)
	mark := make([]bool, n)
	var count int64

	k := rt.Launch("tri_hash")
	k.ForAllNodes(func(it *irgl.Item, u int32) {
		au := adj[u]
		if len(au) == 0 {
			return
		}
		for _, w := range au {
			mark[w] = true
		}
		it.Work(int64(len(au)))
		it.RandomAccess(int64(len(au)))
		for _, v := range au {
			av := adj[v]
			it.Work(int64(len(av)))
			it.RandomAccess(int64(len(av)))
			for _, w := range av {
				if mark[w] {
					count++
				}
			}
		}
		for _, w := range au {
			mark[w] = false
		}
		it.Work(int64(len(au)))
	})
	k.End()
	return rt.Trace(), count
}

// checkTRI validates the triangle count against the reference.
func checkTRI(g *graph.Graph, out any) error {
	c, ok := out.(int64)
	if !ok {
		return errTypeMismatch("tri", "int64", out)
	}
	return compareTriangles(g, c)
}
