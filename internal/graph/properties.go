package graph

import "math"

// Properties summarises the structural features of an input that drive
// optimisation behaviour in the study (Table VIII): size, degree
// distribution shape (load imbalance potential) and approximate diameter
// (iteration count / launch overhead exposure).
type Properties struct {
	Name       string
	Class      Class
	Nodes      int
	Edges      int
	MaxDegree  int
	MeanDegree float64
	DegreeCV   float64 // coefficient of variation: stddev/mean
	ApproxDiam int     // BFS eccentricity from a pseudo-peripheral node
}

// Analyze computes Properties for g. The diameter is approximated by the
// standard double-sweep BFS lower bound, which is exact on trees and
// very tight on road networks.
func Analyze(g *Graph) Properties {
	n := g.NumNodes()
	p := Properties{
		Name:  g.Name,
		Class: g.Class,
		Nodes: n,
		Edges: g.NumEdges(),
	}
	if n == 0 {
		return p
	}

	// Degrees are integers, so both sums are exact in any order.
	sum, sumsq := 0.0, 0.0
	for u := 0; u < n; u++ {
		d := g.Degree(int32(u))
		p.MaxDegree = max(p.MaxDegree, d)
		sum += float64(d)
		sumsq += float64(d) * float64(d)
	}
	p.MeanDegree = sum / float64(n)
	if p.MeanDegree > 0 {
		variance := sumsq/float64(n) - p.MeanDegree*p.MeanDegree
		if variance < 0 {
			variance = 0
		}
		p.DegreeCV = math.Sqrt(variance) / p.MeanDegree
	}

	// Largest component + double-sweep diameter approximation.
	comp, largest := components(g)
	_, far1 := bfsFarthest(g, largest.root, comp, largest.id)
	p.ApproxDiam, _ = bfsFarthest(g, far1, comp, largest.id)
	return p
}

type ccInfo struct {
	id   int32
	root int32
	size int
}

// components labels connected components (treating edges as undirected,
// which they are for all generated inputs) and returns the label array
// plus info about the largest component.
func components(g *Graph) ([]int32, ccInfo) {
	n := g.NumNodes()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var best ccInfo
	best.id = -1
	var queue []int32
	next := int32(0)
	for s := int32(0); int(s) < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := next
		next++
		comp[s] = id
		size := 1
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.Neighbors(u) {
				if comp[v] < 0 {
					comp[v] = id
					size++
					queue = append(queue, v)
				}
			}
		}
		if size > best.size {
			best = ccInfo{id: id, root: s, size: size}
		}
	}
	return comp, best
}

// bfsFarthest runs BFS from src restricted to component compID and
// returns the eccentricity found and one farthest node.
func bfsFarthest(g *Graph, src int32, comp []int32, compID int32) (int, int32) {
	n := g.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	cur := []int32{src}
	depth := 0
	farNode := src
	for len(cur) > 0 {
		var nxt []int32
		for _, u := range cur {
			for _, v := range g.Neighbors(u) {
				if comp[v] == compID && dist[v] < 0 {
					dist[v] = dist[u] + 1
					nxt = append(nxt, v)
					farNode = v
				}
			}
		}
		if len(nxt) > 0 {
			depth++
		}
		cur = nxt
	}
	return depth, farNode
}
