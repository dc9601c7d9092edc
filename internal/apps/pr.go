package apps

import (
	"math"

	"gpuport/internal/graph"
	"gpuport/internal/irgl"
)

// PageRank parameters shared by both variants and the reference.
const (
	prDamping  = 0.85
	prTolL1    = 1e-7 // pull variant: stop when L1 delta falls below this
	prMaxIters = 120
)

// runPRTopo is pull-style topology-driven PageRank: every iteration
// each node gathers contributions from its (in-)neighbours. Study
// inputs are symmetric, so the in-neighbour list is the adjacency list.
func runPRTopo(g *graph.Graph) (*irgl.Trace, any) {
	rt := irgl.NewRuntime("pr-topo", g)
	n := g.NumNodes()
	pr := make([]float64, n)
	next := make([]float64, n)
	for i := range pr {
		pr[i] = 1.0 / float64(n)
	}
	base := (1 - prDamping) / float64(n)

	rt.Iterate("pr", func(iter int) bool {
		var diff float64
		k := rt.Launch("pr_pull")
		k.ForAllNodes(func(it *irgl.Item, u int32) {
			sum := 0.0
			dst, _ := it.Edges(u)
			for _, v := range dst {
				if d := g.Degree(v); d > 0 {
					sum += pr[v] / float64(d)
				}
			}
			nv := base + prDamping*sum
			next[u] = nv
			diff += math.Abs(nv - pr[u])
		})
		k.End()
		pr, next = next, pr
		return diff > prTolL1 && iter < prMaxIters-1
	})
	return rt.Trace(), pr
}

// runPRResidual is push-style residual PageRank: nodes with residual
// above threshold commit it to their rank and push damped shares to
// their neighbours' residuals, activating them when they cross the
// threshold. Data-driven - the fastest strategy when ranks converge
// unevenly (road networks).
func runPRResidual(g *graph.Graph) (*irgl.Trace, any) {
	rt := irgl.NewRuntime("pr-residual", g)
	n := g.NumNodes()
	pr := make([]float64, n)
	res := make([]float64, n)
	inWL := make([]int32, n)
	base := (1 - prDamping) / float64(n)
	// Per-node activation threshold; total error is bounded by
	// n * eps / (1 - damping), well inside the checker's tolerance.
	eps := 1e-11

	wl := irgl.NewWorklist(n)
	for i := 0; i < n; i++ {
		res[i] = base
		inWL[i] = 1
		wl.SeedHost(int32(i))
	}

	rt.Iterate("pr", func(iter int) bool {
		k := rt.Launch("pr_push")
		k.ForAll(wl.Items(), func(it *irgl.Item, u int32) {
			inWL[u] = 0
			r := res[u]
			res[u] = 0
			if r <= eps {
				return
			}
			pr[u] += r
			d := g.Degree(u)
			if d == 0 {
				return
			}
			share := prDamping * r / float64(d)
			dst, _ := it.Edges(u)
			for _, v := range dst {
				old := it.AtomicAddF(res, v, share)
				if old+share > eps && it.AtomicCAS(inWL, v, 0, 1) {
					it.Push(wl, v)
				}
			}
		})
		k.End()
		return wl.Swap() > 0
	})
	return rt.Trace(), pr
}

// checkPR validates ranks against the sequential power iteration.
func checkPR(g *graph.Graph, out any) error {
	pr, ok := out.([]float64)
	if !ok {
		return errTypeMismatch("pr", "[]float64", out)
	}
	return comparePageRank(g, pr)
}
