package irgl

import (
	"slices"
	"testing"
	"testing/quick"

	"gpuport/internal/graph"
)

func lineGraph(n int) *graph.Graph {
	b := graph.NewBuilder("line", graph.ClassRoad, n)
	for i := 0; i < n-1; i++ {
		b.AddUndirected(int32(i), int32(i+1), 1)
	}
	return b.Build()
}

func starGraph(leaves int) *graph.Graph {
	b := graph.NewBuilder("star", graph.ClassSocial, leaves+1)
	for i := 1; i <= leaves; i++ {
		b.AddUndirected(0, int32(i), 1)
	}
	return b.Build()
}

func TestForAllNodesCountsItems(t *testing.T) {
	g := lineGraph(10)
	rt := NewRuntime("test", g)
	k := rt.Launch("k")
	k.ForAllNodes(func(it *Item, u int32) {
		it.Edges(u)
	})
	k.End()
	tr := rt.Trace()
	if len(tr.Launches) != 1 {
		t.Fatalf("launches = %d", len(tr.Launches))
	}
	s := tr.Launches[0]
	if s.Items != 10 {
		t.Errorf("items = %d, want 10", s.Items)
	}
	if s.TotalWork != int64(g.NumEdges()) {
		t.Errorf("work = %d, want %d", s.TotalWork, g.NumEdges())
	}
	if s.RandomAccesses != int64(g.NumEdges()) {
		t.Errorf("random accesses = %d, want %d", s.RandomAccesses, g.NumEdges())
	}
	if s.MaxWork != 2 {
		t.Errorf("max work = %d, want 2 (interior line node)", s.MaxWork)
	}
	if s.LoopID != -1 {
		t.Errorf("top-level launch LoopID = %d, want -1", s.LoopID)
	}
}

// TestEdgesReturnsCappedRows checks that Edges hands out exactly u's
// row, weights parallel, with no capacity past it, so an append in a
// kernel cannot overwrite the next node's edges.
func TestEdgesReturnsCappedRows(t *testing.T) {
	g := graph.GenerateUniform("edges", 50, 4, 3)
	rt := NewRuntime("test", g)
	k := rt.Launch("k")
	k.ForAllNodes(func(it *Item, u int32) {
		dst, w := it.Edges(u)
		if !slices.Equal(dst, g.Neighbors(u)) || !slices.Equal(w, g.EdgeWeights(u)) {
			t.Errorf("node %d: Edges = %v %v, want %v %v", u, dst, w, g.Neighbors(u), g.EdgeWeights(u))
		}
		if cap(dst) != len(dst) || cap(w) != len(w) {
			t.Errorf("node %d: capacities %d and %d past a row of %d", u, cap(dst), cap(w), len(dst))
		}
	})
	k.End()
}

func TestIterateTagsLaunches(t *testing.T) {
	g := lineGraph(5)
	rt := NewRuntime("test", g)
	iters := 0
	rt.Iterate("loop", func(iter int) bool {
		k := rt.Launch("body")
		k.ForAllNodes(func(it *Item, u int32) {})
		k.End()
		iters++
		return iters < 4
	})
	tr := rt.Trace()
	if len(tr.Loops) != 1 {
		t.Fatalf("loops = %d", len(tr.Loops))
	}
	if tr.Loops[0].Iterations != 4 {
		t.Errorf("iterations = %d, want 4", tr.Loops[0].Iterations)
	}
	if tr.Loops[0].Launches != 4 {
		t.Errorf("loop launches = %d, want 4", tr.Loops[0].Launches)
	}
	for _, l := range tr.Launches {
		if l.LoopID != tr.Loops[0].ID {
			t.Errorf("launch LoopID = %d, want %d", l.LoopID, tr.Loops[0].ID)
		}
	}
}

func TestNestedIterate(t *testing.T) {
	g := lineGraph(3)
	rt := NewRuntime("test", g)
	rt.Iterate("outer", func(i int) bool {
		rt.Iterate("inner", func(j int) bool {
			k := rt.Launch("inner_k")
			k.End()
			return j < 1
		})
		k := rt.Launch("outer_k")
		k.End()
		return i < 0 // single outer iteration
	})
	tr := rt.Trace()
	if len(tr.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(tr.Loops))
	}
	// Inner loop completes first; its launches carry its ID.
	inner, outer := tr.Loops[0], tr.Loops[1]
	if inner.Name != "inner" || outer.Name != "outer" {
		t.Fatalf("loop order: %q, %q", inner.Name, outer.Name)
	}
	if tr.Launches[0].LoopID != inner.ID || tr.Launches[1].LoopID != inner.ID {
		t.Error("inner launches mis-tagged")
	}
	if tr.Launches[2].LoopID != outer.ID {
		t.Error("outer launch mis-tagged")
	}
}

func TestAtomicsCountAndWork(t *testing.T) {
	g := starGraph(4)
	rt := NewRuntime("test", g)
	arr := []int32{10, 10, 10, 10, 10}
	wl := NewWorklist(5)
	k := rt.Launch("k")
	k.ForAll([]int32{0}, func(it *Item, u int32) {
		dst, _ := it.Edges(u)
		for _, v := range dst {
			if it.AtomicMin(arr, v, 3) {
				it.Push(wl, v)
			}
		}
	})
	k.End()
	s := rt.Trace().Launches[0]
	if s.AtomicRMWs != 4 {
		t.Errorf("RMWs = %d, want 4", s.AtomicRMWs)
	}
	if s.AtomicPushes != 4 {
		t.Errorf("pushes = %d, want 4", s.AtomicPushes)
	}
	if len(wl.next) != 4 {
		t.Errorf("pending = %d, want 4", len(wl.next))
	}
	for i := 1; i <= 4; i++ {
		if arr[i] != 3 {
			t.Errorf("arr[%d] = %d, want 3", i, arr[i])
		}
	}
}

func TestAtomicSemantics(t *testing.T) {
	g := lineGraph(2)
	rt := NewRuntime("t", g)
	k := rt.Launch("k")
	arr := []int32{5}
	k.ForAll([]int32{0}, func(it *Item, u int32) {
		if it.AtomicMin(arr, 0, 7) {
			t.Error("AtomicMin(7) over 5 should not improve")
		}
		if !it.AtomicMax(arr, 0, 9) {
			t.Error("AtomicMax(9) over 5 should improve")
		}
		if old := it.AtomicAdd(arr, 0, 1); old != 9 {
			t.Errorf("AtomicAdd old = %d, want 9", old)
		}
		if !it.AtomicCAS(arr, 0, 10, 20) {
			t.Error("CAS(10->20) should succeed")
		}
		if it.AtomicCAS(arr, 0, 10, 30) {
			t.Error("CAS on stale value should fail")
		}
		it.Atomics(3)
	})
	k.End()
	if arr[0] != 20 {
		t.Errorf("final value %d, want 20", arr[0])
	}
	// Five atomic calls plus Atomics(3), one irregular access each.
	if s := rt.Trace().Launches[0]; s.AtomicRMWs != 8 || s.RandomAccesses != 8 {
		t.Errorf("AtomicRMWs, RandomAccesses = %d, %d, want 8, 8", s.AtomicRMWs, s.RandomAccesses)
	}
}

func TestWorklistSwap(t *testing.T) {
	wl := NewWorklist(8)
	wl.SeedHost(3)
	if len(wl.cur) != 1 {
		t.Fatalf("len = %d", len(wl.cur))
	}
	g := lineGraph(4)
	rt := NewRuntime("t", g)
	k := rt.Launch("k")
	k.ForAll(wl.Items(), func(it *Item, v int32) {
		it.Push(wl, v+1)
		it.Push(wl, v+2)
	})
	k.End()
	if n := wl.Swap(); n != 2 {
		t.Fatalf("after swap len = %d, want 2", n)
	}
	if len(wl.next) != 0 {
		t.Error("swap should clear next buffer")
	}
	if wl.Items()[0] != 4 || wl.Items()[1] != 5 {
		t.Errorf("items = %v", wl.Items())
	}
}

func TestZeroWorkItems(t *testing.T) {
	g := starGraph(6)
	rt := NewRuntime("t", g)
	k := rt.Launch("k")
	k.ForAllNodes(func(it *Item, u int32) {
		if u == 0 {
			it.Edges(u)
		}
		// leaves do nothing
	})
	k.End()
	s := rt.Trace().Launches[0]
	if s.ZeroWorkItems != 6 {
		t.Errorf("zero-work items = %d, want 6", s.ZeroWorkItems)
	}
	if s.TotalWork != 6 {
		t.Errorf("total work = %d, want 6", s.TotalWork)
	}
}

func TestEndTwicePanics(t *testing.T) {
	rt := NewRuntime("t", lineGraph(2))
	k := rt.Launch("k")
	k.End()
	defer func() {
		if recover() == nil {
			t.Error("second End should panic")
		}
	}()
	k.End()
}

func TestImbalanceFactorUniform(t *testing.T) {
	// All items have identical work: imbalance must be ~1 at any width.
	var s KernelStats
	s.Items = 1000
	for i := 0; i < 1000; i++ {
		s.TotalWork += 8
		s.WorkHist[3]++ // work 8 -> bucket 3
		s.WorkHistSum[3] += 8
	}
	s.MaxWork = 8
	for _, k := range []int{2, 8, 32, 64} {
		f := s.ImbalanceFactor(k)
		if f < 1 || f > 1.05 {
			t.Errorf("uniform imbalance at k=%d: %v, want ~1", k, f)
		}
	}
}

func TestImbalanceFactorSkewed(t *testing.T) {
	// 1% of items carry 1000x the work: imbalance grows with width.
	var s KernelStats
	s.Items = 1000
	for i := 0; i < 990; i++ {
		s.TotalWork += 2
		s.WorkHist[1]++
		s.WorkHistSum[1] += 2
	}
	for i := 0; i < 10; i++ {
		s.TotalWork += 2048
		s.WorkHist[11]++
		s.WorkHistSum[11] += 2048
	}
	s.MaxWork = 2048
	f8 := s.ImbalanceFactor(8)
	f64 := s.ImbalanceFactor(64)
	if f64 <= f8 {
		t.Errorf("imbalance should grow with width: f8=%v f64=%v", f8, f64)
	}
	if f64 < 3 {
		t.Errorf("heavy skew at k=64 should show large imbalance, got %v", f64)
	}
}

func TestImbalanceFactorEdgeCases(t *testing.T) {
	var s KernelStats
	if f := s.ImbalanceFactor(32); f != 1 {
		t.Errorf("empty stats imbalance = %v, want 1", f)
	}
	s.Items = 10
	s.TotalWork = 100
	s.WorkHist[3] = 10
	s.WorkHistSum[3] = 100
	if f := s.ImbalanceFactor(1); f != 1 {
		t.Errorf("width-1 imbalance = %v, want 1", f)
	}
}

func TestImbalanceFactorAtLeastOne(t *testing.T) {
	f := func(seed uint64) bool {
		var s KernelStats
		x := seed
		for b := 0; b < 12; b++ {
			x = x*6364136223846793005 + 1442695040888963407
			c := int64(x % 50)
			s.WorkHist[b] += c
			s.WorkHistSum[b] += c * int64(uint(1)<<uint(b))
			s.Items += c
			s.TotalWork += c * int64(uint(1)<<uint(b))
		}
		for _, k := range []int{2, 16, 128} {
			if s.ImbalanceFactor(k) < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTraceAggregates(t *testing.T) {
	rt := NewRuntime("agg", lineGraph(6))
	for i := 0; i < 3; i++ {
		k := rt.Launch("k")
		k.ForAllNodes(func(it *Item, u int32) {
			it.Work(1)
		})
		k.End()
	}
	tr := rt.Trace()
	if tr.TotalLaunches() != 3 {
		t.Errorf("launches = %d", tr.TotalLaunches())
	}
	if tr.TotalEdgeWork() != 18 {
		t.Errorf("total work = %d, want 18", tr.TotalEdgeWork())
	}
}

func TestWorkAndRandomAccess(t *testing.T) {
	rt := NewRuntime("t", starGraph(5))
	k := rt.Launch("k")
	k.ForAll([]int32{0}, func(it *Item, u int32) {
		it.Work(3)
		it.RandomAccess(7)
	})
	k.End()
	s := rt.Trace().Launches[0]
	if s.TotalWork != 3 || s.RandomAccesses != 7 {
		t.Errorf("work %d / RA %d", s.TotalWork, s.RandomAccesses)
	}
}

func TestAtomicMin64(t *testing.T) {
	rt := NewRuntime("t", lineGraph(2))
	k := rt.Launch("k")
	arr := []int64{100}
	k.ForAll([]int32{0}, func(it *Item, u int32) {
		if !it.AtomicMin64(arr, 0, 50) {
			t.Error("50 should improve 100")
		}
		if it.AtomicMin64(arr, 0, 60) {
			t.Error("60 should not improve 50")
		}
	})
	k.End()
	if arr[0] != 50 {
		t.Errorf("final = %d", arr[0])
	}
	if rt.Trace().Launches[0].AtomicRMWs != 2 {
		t.Errorf("RMWs = %d", rt.Trace().Launches[0].AtomicRMWs)
	}
}
