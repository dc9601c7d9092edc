package apps

import (
	"gpuport/internal/graph"
	"gpuport/internal/irgl"
)

// mstInf is the "no outgoing edge" marker for the per-component best
// edge reduction.
const mstInf = int64(1) << 62

// encEdge packs (weight, u, v) into an int64 ordered primarily by
// weight. Node IDs fit in 20 bits for all study inputs; Builder weights
// fit comfortably in the high field.
func encEdge(w, u, v int32) int64 {
	return int64(w)<<40 | int64(u)<<20 | int64(v)
}

func decEdge(e int64) (w, u, v int32) {
	return int32(e >> 40), int32((e >> 20) & 0xfffff), int32(e & 0xfffff)
}

// runMSTBoruvka computes the minimum spanning forest weight with
// Boruvka's algorithm: each round every component finds its minimum
// outgoing edge via an atomic packed-min reduction, the chosen edges are
// contracted, and labels are compressed by pointer jumping. The output
// is the total MSF weight (unique even when the forest is not).
func runMSTBoruvka(g *graph.Graph) (*irgl.Trace, any) {
	rt := irgl.NewRuntime("mst-boruvka", g)
	n := g.NumNodes()
	if n >= 1<<20 {
		panic("mst-boruvka: node count exceeds edge encoding capacity")
	}
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = int32(i)
	}
	best := make([]int64, n)
	var msfWeight int64

	rt.Iterate("boruvka", func(round int) bool {
		// Reset per-component best edges.
		reset := rt.Launch("mst_reset")
		reset.ForAllNodes(func(it *irgl.Item, u int32) {
			it.Work(1)
			best[u] = mstInf
		})
		reset.End()

		// Find minimum outgoing edge per component.
		findMin := rt.Launch("mst_findmin")
		findMin.ForAllNodes(func(it *irgl.Item, u int32) {
			cu := comp[u]
			dst, ws := it.Edges(u)
			for i, v := range dst {
				cv := comp[v]
				if cu != cv {
					it.AtomicMin64(best, cu, encEdge(ws[i], u, v))
				}
			}
		})
		findMin.End()

		// Merge components along chosen edges. Executed as a kernel;
		// root walks are counted as irregular accesses. The sequential
		// runtime makes the unions race-free; the GPU original uses a
		// CAS loop with the same net effect.
		merged := false
		find := func(it *irgl.Item, x int32) int32 {
			for comp[x] != x {
				it.Work(1)
				it.RandomAccess(1)
				x = comp[x]
			}
			return x
		}
		merge := rt.Launch("mst_merge")
		merge.ForAllNodes(func(it *irgl.Item, c int32) {
			if comp[c] != c || best[c] == mstInf {
				return
			}
			w, u, v := decEdge(best[c])
			ru, rv := find(it, u), find(it, v)
			if ru == rv {
				return // the other side already merged us this round
			}
			if ru > rv {
				ru, rv = rv, ru
			}
			comp[rv] = ru
			msfWeight += int64(w)
			merged = true
		})
		merge.End()

		// Compress labels by pointer jumping.
		rt.Iterate("mst_compress", func(j int) bool {
			jumped := false
			sc := rt.Launch("mst_shortcut")
			sc.ForAllNodes(func(it *irgl.Item, u int32) {
				c := comp[u]
				cc := comp[c]
				it.Work(1)
				it.RandomAccess(2)
				if cc != c {
					comp[u] = cc
					jumped = true
				}
			})
			sc.End()
			return jumped
		})
		return merged
	})
	return rt.Trace(), msfWeight
}

// checkMST validates the forest weight against Kruskal's algorithm.
func checkMST(g *graph.Graph, out any) error {
	w, ok := out.(int64)
	if !ok {
		return errTypeMismatch("mst", "int64", out)
	}
	return compareMSTWeight(g, w)
}
