package graph

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"gpuport/internal/stats"
)

func smallTriangle() *Graph {
	b := NewBuilder("tri", ClassRandom, 3)
	b.AddUndirected(0, 1, 1)
	b.AddUndirected(1, 2, 2)
	b.AddUndirected(0, 2, 3)
	return b.Build()
}

func TestBuilderBasic(t *testing.T) {
	g := smallTriangle()
	if g.NumNodes() != 3 {
		t.Fatalf("nodes = %d, want 3", g.NumNodes())
	}
	if g.NumEdges() != 6 {
		t.Fatalf("edges = %d, want 6", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < 3; u++ {
		if g.Degree(u) != 2 {
			t.Errorf("degree(%d) = %d, want 2", u, g.Degree(u))
		}
	}
}

func TestBuilderDropsSelfLoopsAndDuplicates(t *testing.T) {
	b := NewBuilder("dups", ClassRandom, 4)
	b.AddEdge(0, 0, 1) // self loop
	b.AddEdge(0, 1, 5)
	b.AddEdge(0, 1, 3) // duplicate, smaller weight should be kept
	b.AddEdge(0, 2, 7)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	if w := g.EdgeWeights(0)[0]; w != 3 {
		t.Errorf("dedup kept weight %d, want smallest 3", w)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPanicsOnBadEdge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range edge")
		}
	}()
	NewBuilder("bad", ClassRandom, 2).AddEdge(0, 5, 1)
}

func TestHasEdge(t *testing.T) {
	g := smallTriangle()
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 0) {
		t.Error("expected edges missing")
	}
	if g.HasEdge(0, 0) {
		t.Error("unexpected self edge")
	}
}

func TestReverse(t *testing.T) {
	b := NewBuilder("dir", ClassRandom, 3)
	b.AddEdge(0, 1, 10)
	b.AddEdge(0, 2, 20)
	b.AddEdge(1, 2, 30)
	g := b.Build()
	r := g.Reverse()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if !r.HasEdge(1, 0) || !r.HasEdge(2, 0) || !r.HasEdge(2, 1) {
		t.Error("reverse missing flipped edges")
	}
	if r.HasEdge(0, 1) {
		t.Error("reverse kept original direction")
	}
	if r.NumEdges() != g.NumEdges() {
		t.Errorf("reverse edges = %d, want %d", r.NumEdges(), g.NumEdges())
	}
	// Weight follows the edge.
	if w := r.EdgeWeights(2)[0]; w != 20 && w != 30 {
		t.Errorf("unexpected reversed weight %d", w)
	}
}

func TestReverseInvolution(t *testing.T) {
	g := GenerateUniform("inv", 200, 4, 99)
	rr := g.Reverse().Reverse()
	if rr.NumEdges() != g.NumEdges() || rr.NumNodes() != g.NumNodes() {
		t.Fatalf("double reverse changed size")
	}
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		a, b := g.Neighbors(u), rr.Neighbors(u)
		if len(a) != len(b) {
			t.Fatalf("node %d degree changed", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d adjacency changed", u)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := smallTriangle()
	g.Dst[0] = 99
	if err := g.Validate(); err == nil {
		t.Error("expected validation failure for bad destination")
	}
	g = smallTriangle()
	g.RowPtr[1] = 100
	if err := g.Validate(); err == nil {
		t.Error("expected validation failure for bad rowptr")
	}
	g = smallTriangle()
	g.Weight = g.Weight[:1]
	if err := g.Validate(); err == nil {
		t.Error("expected validation failure for weight length")
	}
}

func TestBuilderProducesValidGraphs(t *testing.T) {
	// Property: arbitrary random edge soups build into valid CSR.
	f := func(seed uint64, nn, ne uint8) bool {
		rng := stats.NewRNG(seed)
		n := int(nn%50) + 2
		b := NewBuilder("prop", ClassRandom, n)
		for i := 0; i < int(ne); i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(100)))
		}
		g := b.Build()
		return g.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refBuild is the builder Build replaced, kept as its reference: one
// sort.Slice of every edge by (src, dst, weight), then a scan dropping
// self-loops and all but the first of each run of parallel edges.
func refBuild(b *Builder) *Graph {
	edges := slices.Clone(b.edges)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		if edges[i].Dst != edges[j].Dst {
			return edges[i].Dst < edges[j].Dst
		}
		return edges[i].Weight < edges[j].Weight
	})
	g := &Graph{Name: b.name, Class: b.class, RowPtr: make([]int32, b.numNodes+1)}
	var prev Edge
	first := true
	for _, e := range edges {
		if e.Src == e.Dst {
			continue
		}
		if !first && e.Src == prev.Src && e.Dst == prev.Dst {
			continue
		}
		g.Dst = append(g.Dst, e.Dst)
		g.Weight = append(g.Weight, e.Weight)
		g.RowPtr[e.Src+1]++
		prev, first = e, false
	}
	for i := 1; i <= b.numNodes; i++ {
		g.RowPtr[i] += g.RowPtr[i-1]
	}
	return g
}

// TestBuildMatchesReference: on random edge soups - 0- and 1-node
// graphs, isolated nodes, self-loops, parallel edges with different
// weights (extremes and negatives included) - Build's RowPtr, Dst and
// Weight equal the sort.Slice reference's.
func TestBuildMatchesReference(t *testing.T) {
	r := stats.NewRNG(8)
	weights := []int32{math.MinInt32, -7, -1, 0, 1, 2, 3, 100, math.MaxInt32}
	for trial := 0; trial < 500; trial++ {
		n := trial
		if n > 1 {
			n = r.Intn(60)
		}
		b := NewBuilder("soup", ClassRandom, n)
		// Sources come from a random prefix of the nodes, so the
		// rest are isolated.
		srcs := 1 + r.Intn(n+1)
		for m := r.Intn(6*n + 1); n > 0 && m > 0; m-- {
			src, dst := int32(r.Intn(min(srcs, n))), int32(r.Intn(n))
			if r.Intn(8) == 0 {
				dst = src
			}
			for copies := 1 + r.Intn(3); copies > 0; copies-- {
				b.AddEdge(src, dst, weights[r.Intn(len(weights))])
			}
		}
		want, got := refBuild(b), b.Build()
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Dst, want.Dst) || !slices.Equal(got.Weight, want.Weight) {
			t.Fatalf("trial %d (%d nodes, %d edges): got RowPtr %v Dst %v Weight %v, reference %v %v %v",
				trial, n, len(b.edges), got.RowPtr, got.Dst, got.Weight, want.RowPtr, want.Dst, want.Weight)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestUndirectedSymmetry(t *testing.T) {
	g := GenerateRMAT("sym", 8, 8, 5)
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if !g.HasEdge(v, u) {
				t.Fatalf("undirected graph missing back edge (%d,%d)", v, u)
			}
		}
	}
}

func TestClassString(t *testing.T) {
	if ClassRoad.String() != "road" || ClassSocial.String() != "social" || ClassRandom.String() != "random" {
		t.Error("class names wrong")
	}
	if Class(42).String() == "" {
		t.Error("unknown class should still render")
	}
}
