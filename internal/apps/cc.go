package apps

import (
	"gpuport/internal/graph"
	"gpuport/internal/irgl"
)

// runCCSV is Shiloach-Vishkin style connected components: alternating
// hook (lower label captures higher label along edges) and pointer-
// jumping shortcut kernels until a fixpoint.
func runCCSV(g *graph.Graph) (*irgl.Trace, any) {
	rt := irgl.NewRuntime("cc-sv", g)
	n := g.NumNodes()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = int32(i)
	}

	rt.Iterate("cc", func(iter int) bool {
		changed := false
		hook := rt.Launch("cc_hook")
		hook.ForAllNodes(func(it *irgl.Item, u int32) {
			cu := comp[u]
			dst, _ := it.Edges(u)
			for _, v := range dst {
				cv := comp[v]
				if cu < cv {
					if it.AtomicMin(comp, cv, cu) {
						changed = true
					}
				}
			}
		})
		hook.End()

		// Shortcut: pointer jumping until every label is a root.
		rt.Iterate("cc_compress", func(j int) bool {
			jumped := false
			sc := rt.Launch("cc_shortcut")
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
		return changed
	})
	return rt.Trace(), comp
}

// runCCWL is worklist label propagation: nodes whose label dropped push
// their neighbours for re-examination.
func runCCWL(g *graph.Graph) (*irgl.Trace, any) {
	rt := irgl.NewRuntime("cc-wl", g)
	n := g.NumNodes()
	comp := make([]int32, n)
	wl := irgl.NewWorklist(n)
	for i := range comp {
		comp[i] = int32(i)
		wl.SeedHost(int32(i))
	}

	rt.Iterate("cc", func(iter int) bool {
		k := rt.Launch("cc_prop")
		k.ForAll(wl.Items(), func(it *irgl.Item, u int32) {
			cu := comp[u]
			dst, _ := it.Edges(u)
			for _, v := range dst {
				if it.AtomicMin(comp, v, cu) {
					it.Push(wl, v)
				}
			}
		})
		k.End()
		return wl.Swap() > 0
	})
	return rt.Trace(), comp
}

// checkCC validates a component labelling: labels must be identical
// within a reference component and distinct across components.
func checkCC(g *graph.Graph, out any) error {
	comp, err := asInt32Slice(g, out)
	if err != nil {
		return err
	}
	return compareComponents(g, comp)
}
