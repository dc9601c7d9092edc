// Package graph provides the graph substrate for the study: a compact
// CSR (compressed sparse row) representation, synthetic generators for
// the three input classes the paper evaluates (road network, social
// network, uniform random), structural property analysis, and a simple
// binary/text serialisation.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is a directed graph in CSR form. Node IDs are dense integers in
// [0, NumNodes). For node u, its outgoing edges are
// Dst[RowPtr[u]:RowPtr[u+1]] with matching weights in Weight.
//
// Undirected graphs are represented by storing each edge in both
// directions (the usual convention for GPU graph frameworks, including
// IrGL, whose applications this study reproduces).
type Graph struct {
	// Name identifies the input (e.g. "usa.ny") in datasets and reports.
	Name string
	// Class records which input class the graph belongs to.
	Class Class
	// RowPtr has length NumNodes+1; RowPtr[0] == 0.
	RowPtr []int32
	// Dst holds destination node IDs, grouped by source node.
	Dst []int32
	// Weight holds per-edge weights, parallel to Dst. Unweighted
	// applications ignore it; generators always populate it so every
	// application can run on every input.
	Weight []int32

	// fp memoises Fingerprint. Only the process-shared inputs set it,
	// once, when they are generated (they are never modified after);
	// it is empty on every other graph.
	fp string
}

// Class is the structural family of an input graph. The paper's three
// classes stress different bottlenecks: road networks have huge diameter
// and uniform low degree; social networks have tiny diameter and
// power-law degree; random graphs sit in between.
type Class uint8

const (
	// ClassRoad marks planar, large-diameter, low-degree graphs.
	ClassRoad Class = iota
	// ClassSocial marks power-law, small-diameter graphs.
	ClassSocial
	// ClassRandom marks uniform-degree Erdos-Renyi style graphs.
	ClassRandom
)

// String returns the class name used in tables.
func (c Class) String() string {
	switch c {
	case ClassRoad:
		return "road"
	case ClassSocial:
		return "social"
	case ClassRandom:
		return "random"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.RowPtr) - 1 }

// NumEdges returns the number of stored (directed) edges.
func (g *Graph) NumEdges() int { return len(g.Dst) }

// Degree returns the out-degree of node u.
func (g *Graph) Degree(u int32) int {
	return int(g.RowPtr[u+1] - g.RowPtr[u])
}

// Neighbors returns the slice of destinations for node u. The slice
// aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(u int32) []int32 {
	return g.Dst[g.RowPtr[u]:g.RowPtr[u+1]]
}

// EdgeWeights returns the weights parallel to Neighbors(u).
func (g *Graph) EdgeWeights(u int32) []int32 {
	return g.Weight[g.RowPtr[u]:g.RowPtr[u+1]]
}

// Edge is a single weighted directed edge, used by builders.
type Edge struct {
	Src, Dst int32
	Weight   int32
}

// Builder accumulates edges and produces a CSR Graph. It deduplicates
// parallel edges (keeping the smallest weight) and drops self-loops,
// matching the preprocessing graph frameworks apply to real inputs.
type Builder struct {
	name     string
	class    Class
	numNodes int
	edges    []Edge
}

// NewBuilder returns a builder for a graph with numNodes nodes.
func NewBuilder(name string, class Class, numNodes int) *Builder {
	return &Builder{name: name, class: class, numNodes: numNodes}
}

// AddEdge records a directed edge. Out-of-range endpoints panic: inputs
// are generated internally, so a bad ID is a programming error.
func (b *Builder) AddEdge(src, dst, weight int32) {
	if src < 0 || int(src) >= b.numNodes || dst < 0 || int(dst) >= b.numNodes {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", src, dst, b.numNodes))
	}
	b.edges = append(b.edges, Edge{src, dst, weight})
}

// AddUndirected records the edge in both directions with equal weight.
func (b *Builder) AddUndirected(u, v, weight int32) {
	b.AddEdge(u, v, weight)
	b.AddEdge(v, u, weight)
}

// Build produces the CSR graph. Edges are sorted by (src, dst); within a
// node's adjacency list destinations are strictly increasing, which the
// triangle-counting applications rely on.
//
// The sort is a counting sort by source into one uint64 key per edge
// (dst, then weight with its sign bit flipped so keys order like the
// signed weights), then a sort of each row's keys. The first key of a
// run of equal destinations carries the smallest weight, so dropping
// the rest of the run keeps it.
func (b *Builder) Build() *Graph {
	n := b.numNodes
	g := &Graph{
		Name:   b.name,
		Class:  b.class,
		RowPtr: make([]int32, n+1),
	}
	for _, e := range b.edges {
		g.RowPtr[e.Src+1]++
	}
	for i := 1; i <= n; i++ {
		g.RowPtr[i] += g.RowPtr[i-1]
	}
	next := slices.Clone(g.RowPtr[:n])
	keys := make([]uint64, len(b.edges))
	for _, e := range b.edges {
		keys[next[e.Src]] = uint64(e.Dst)<<32 | uint64(uint32(e.Weight)^1<<31)
		next[e.Src]++
	}

	// Sort each row and compact it in place; RowPtr[u] turns from the
	// row's start in keys into its start in the graph.
	w := int32(0)
	for u, lo := 0, int32(0); u < n; u++ {
		hi := g.RowPtr[u+1]
		row := keys[lo:hi]
		slices.Sort(row)
		g.RowPtr[u] = w
		prev := uint64(1) << 32 // above every dst
		for _, k := range row {
			if dst := k >> 32; dst != prev && dst != uint64(u) {
				keys[w] = k
				w++
				prev = dst
			}
		}
		lo = hi
	}
	g.RowPtr[n] = w
	if w > 0 {
		g.Dst, g.Weight = make([]int32, w), make([]int32, w)
		for i, k := range keys[:w] {
			g.Dst[i] = int32(k >> 32)
			g.Weight[i] = int32(uint32(k) ^ 1<<31)
		}
	}
	return g
}

// Validate checks CSR structural invariants and returns a descriptive
// error on the first violation. It is used by tests and by the loader.
func (g *Graph) Validate() error {
	if len(g.RowPtr) == 0 {
		return fmt.Errorf("graph %q: empty RowPtr", g.Name)
	}
	if g.RowPtr[0] != 0 {
		return fmt.Errorf("graph %q: RowPtr[0] = %d, want 0", g.Name, g.RowPtr[0])
	}
	n := g.NumNodes()
	for i := 0; i < n; i++ {
		if g.RowPtr[i+1] < g.RowPtr[i] {
			return fmt.Errorf("graph %q: RowPtr not monotone at node %d", g.Name, i)
		}
	}
	if int(g.RowPtr[n]) != len(g.Dst) {
		return fmt.Errorf("graph %q: RowPtr[n]=%d but %d edges", g.Name, g.RowPtr[n], len(g.Dst))
	}
	if len(g.Weight) != len(g.Dst) {
		return fmt.Errorf("graph %q: %d weights for %d edges", g.Name, len(g.Weight), len(g.Dst))
	}
	for i, d := range g.Dst {
		if d < 0 || int(d) >= n {
			return fmt.Errorf("graph %q: edge %d destination %d out of range", g.Name, i, d)
		}
	}
	for u := int32(0); int(u) < n; u++ {
		nbrs := g.Neighbors(u)
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i] <= nbrs[i-1] {
				return fmt.Errorf("graph %q: adjacency of node %d not strictly increasing", g.Name, u)
			}
		}
	}
	return nil
}

// HasEdge reports whether edge (u, v) exists, via binary search over the
// sorted adjacency list of u.
func (g *Graph) HasEdge(u, v int32) bool {
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
}

// Reverse returns the transpose graph (every edge flipped), preserving
// weights. Pull-style applications (e.g. PageRank pull) use it.
func (g *Graph) Reverse() *Graph {
	n := g.NumNodes()
	b := NewBuilder(g.Name+".rev", g.Class, n)
	for u := int32(0); int(u) < n; u++ {
		ws := g.EdgeWeights(u)
		for i, v := range g.Neighbors(u) {
			b.AddEdge(v, u, ws[i])
		}
	}
	return b.Build()
}
