package graph

import (
	"fmt"
	"sync"

	"gpuport/internal/stats"
)

// The three standard study inputs. Sizes are chosen so the full 17-app x
// 3-input sweep runs in seconds while preserving the structural contrast
// the paper leans on: usa.ny has ~300x the diameter of the social input.
const (
	// RoadGridSide is the side length of the generated road network grid.
	RoadGridSide = 110
	// SocialScale is the log2 node count of the RMAT social graph.
	SocialScale = 13
	// SocialEdgeFactor is average directed edges per node for RMAT.
	SocialEdgeFactor = 16
	// RandomNodes is the node count of the uniform random graph.
	RandomNodes = 8192
	// RandomDegree is the uniform out-degree of the random graph.
	RandomDegree = 8
)

// namedInput is one row of the input table: an input's name and how to
// generate it.
type namedInput struct {
	name     string
	generate func(name string) *Graph
}

// inputTable lists every named input: the study's three standard
// inputs (Table VIII), then the three extended ones. Each row's
// generator, size and seed are written down only here.
var inputTable = [...]namedInput{
	{"usa.ny", func(n string) *Graph { return GenerateRoad(n, RoadGridSide, 1001) }},
	{"soc-pokec", func(n string) *Graph { return GenerateRMAT(n, SocialScale, SocialEdgeFactor, 2002) }},
	{"rand-8k", func(n string) *Graph { return GenerateUniform(n, RandomNodes, RandomDegree, 3003) }},
	{"usa.bay", func(n string) *Graph { return GenerateRoad(n, 150, 4004) }},
	{"soc-lj", func(n string) *Graph { return GenerateRMAT(n, SocialScale, 12, 5005) }},
	{"rand-16k", func(n string) *Graph { return GenerateUniform(n, 16384, 6, 6006) }},
}

// numStandard is how many leading inputTable rows are standard inputs.
const numStandard = 3

// sharedInputs holds, per inputTable row, the process-shared instance
// InputByName returns: generated on first use, fingerprinted once, and
// never modified afterwards.
var sharedInputs = func() (s [len(inputTable)]func() *Graph) {
	for i, in := range inputTable {
		s[i] = sync.OnceValue(func() *Graph {
			g := in.generate(in.name)
			g.fp = g.fingerprint()
			return g
		})
	}
	return s
}()

// generateInputs builds a fresh graph for each row.
func generateInputs(rows []namedInput) []*Graph {
	gs := make([]*Graph, len(rows))
	for i, in := range rows {
		gs[i] = in.generate(in.name)
	}
	return gs
}

// StandardInputs generates the study's three inputs with fixed seeds:
// a usa.ny-like road network, an RMAT social network, and a uniform
// random graph. Deterministic: repeated calls return identical graphs.
// Every call builds new graphs, which the caller owns;
// SharedStandardInputs returns the process-shared instances instead.
func StandardInputs() []*Graph { return generateInputs(inputTable[:numStandard]) }

// ExtendedInputs generates a second instance of each input class with
// different sizes and seeds. They are not part of the paper's study;
// the robustness tooling uses them to test whether recommendations
// derived on the standard inputs transfer to fresh inputs of the same
// classes (a domain-shift experiment). Like StandardInputs, every call
// builds new graphs.
func ExtendedInputs() []*Graph { return generateInputs(inputTable[numStandard:]) }

// SharedStandardInputs returns the process-shared instances of the
// three standard inputs, in StandardInputs order: the graphs
// InputByName returns for their names. The slice is new on every call;
// the graphs are not, and must not be modified.
func SharedStandardInputs() []*Graph {
	gs := make([]*Graph, numStandard)
	for i := range gs {
		gs[i] = sharedInputs[i]()
	}
	return gs
}

// InputByName returns the process-shared instance of a standard or
// extended input: generated and fingerprinted on the first request for
// its name, then the same graph on every call. Callers share it, so it
// must not be modified; StandardInputs and ExtendedInputs build
// private graphs.
func InputByName(name string) (*Graph, error) {
	for i := range inputTable {
		if inputTable[i].name == name {
			return sharedInputs[i](), nil
		}
	}
	return nil, fmt.Errorf("graph: unknown input %q", name)
}

// GenerateRoad builds a road-network-like graph: an n x n grid of
// intersections with 4-neighbour connectivity, a small fraction of
// removed streets (dead ends and irregular blocks), and a few long-range
// "highway" shortcuts. The result is connected, planar-ish, has uniform
// low degree (<= 4 + rare highways) and diameter O(n) - the properties
// that make BFS/SSSP on usa.ny iteration-bound in the paper.
func GenerateRoad(name string, side int, seed uint64) *Graph {
	rng := stats.NewRNG(seed)
	n := side * side
	b := NewBuilder(name, ClassRoad, n)
	id := func(r, c int) int32 { return int32(r*side + c) }

	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			// Edge weights model street lengths: 1..10.
			if c+1 < side {
				// Remove ~7% of east-west streets, but never disconnect
				// the first row (keeps the graph connected).
				if r == 0 || rng.Float64() >= 0.07 {
					b.AddUndirected(id(r, c), id(r, c+1), int32(1+rng.Intn(10)))
				}
			}
			if r+1 < side {
				if c == 0 || rng.Float64() >= 0.07 {
					b.AddUndirected(id(r, c), id(r+1, c), int32(1+rng.Intn(10)))
				}
			}
		}
	}
	// Highways: sparse long shortcuts, ~0.1% of nodes get one.
	highways := n / 1000
	for i := 0; i < highways; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u != v {
			b.AddUndirected(u, v, int32(20+rng.Intn(30)))
		}
	}
	return b.Build()
}

// GenerateRMAT builds a power-law social-network-like graph using the
// RMAT recursive quadrant model with the canonical Graph500 parameters
// (a, b, c) = (0.57, 0.19, 0.19). Edges are made undirected so every
// application (including the symmetric ones) can consume the input, as
// the study's framework does.
func GenerateRMAT(name string, scale, edgeFactor int, seed uint64) *Graph {
	rng := stats.NewRNG(seed)
	n := 1 << scale
	m := n * edgeFactor / 2 // undirected edge pairs
	b := NewBuilder(name, ClassSocial, n)
	const a, bb, c = 0.57, 0.19, 0.19
	for i := 0; i < m; i++ {
		var u, v int
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+bb:
				v |= 1 << bit
			case r < a+bb+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u != v {
			b.AddUndirected(int32(u), int32(v), int32(1+rng.Intn(100)))
		}
		u, v = 0, 0
	}
	return b.Build()
}

// GenerateUniform builds an Erdos-Renyi style graph where every node
// draws `degree` random neighbours. Degrees are near-uniform, so the
// nested-parallelism optimisations have little imbalance to exploit -
// the paper's "if there is very little load imbalance ... these schemes
// simply add overhead" case.
func GenerateUniform(name string, nodes, degree int, seed uint64) *Graph {
	rng := stats.NewRNG(seed)
	b := NewBuilder(name, ClassRandom, nodes)
	for u := 0; u < nodes; u++ {
		for d := 0; d < degree; d++ {
			v := rng.Intn(nodes)
			if v != u {
				b.AddUndirected(int32(u), int32(v), int32(1+rng.Intn(50)))
			}
		}
	}
	return b.Build()
}
