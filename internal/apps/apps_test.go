package apps

import (
	"fmt"
	"testing"

	"gpuport/internal/graph"
)

// testGraphs returns small but structurally diverse graphs used across
// the application tests.
func testGraphs() []*graph.Graph {
	return []*graph.Graph{
		graph.GenerateRoad("t-road", 18, 11),
		graph.GenerateRMAT("t-rmat", 9, 8, 22),
		graph.GenerateUniform("t-rand", 400, 6, 33),
		pathGraph(25),
		completeGraph(12),
		disconnectedGraph(),
	}
}

func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder("t-path", graph.ClassRoad, n)
	for i := 0; i < n-1; i++ {
		b.AddUndirected(int32(i), int32(i+1), int32(1+i%5))
	}
	return b.Build()
}

func completeGraph(n int) *graph.Graph {
	b := graph.NewBuilder("t-complete", graph.ClassSocial, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddUndirected(int32(i), int32(j), int32(1+(i+j)%7))
		}
	}
	return b.Build()
}

func disconnectedGraph() *graph.Graph {
	b := graph.NewBuilder("t-disc", graph.ClassRandom, 10)
	// Two components: 0-4 cycle, 5-9 star; node 9 isolated? No: star
	// center 5 with leaves 6..9.
	for i := 0; i < 4; i++ {
		b.AddUndirected(int32(i), int32(i+1), 2)
	}
	b.AddUndirected(4, 0, 2)
	for i := 6; i <= 9; i++ {
		b.AddUndirected(5, int32(i), 3)
	}
	return b.Build()
}

// TestAllAppsCorrectOnAllGraphs is the central correctness gate: every
// application must produce a reference-validated answer on every test
// graph.
func TestAllAppsCorrectOnAllGraphs(t *testing.T) {
	for _, app := range All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			for _, g := range testGraphs() {
				trace, out := app.Run(g)
				if err := app.Check(g, out); err != nil {
					t.Errorf("%s on %s: %v", app.Name, g.Name, err)
				}
				if trace == nil || len(trace.Launches) == 0 {
					t.Errorf("%s on %s: empty trace", app.Name, g.Name)
				}
				if trace.App != app.Name {
					t.Errorf("trace app = %q, want %q", trace.App, app.Name)
				}
				if trace.Input != g.Name {
					t.Errorf("trace input = %q, want %q", trace.Input, g.Name)
				}
			}
		})
	}
}

func TestRegistryShape(t *testing.T) {
	apps := All()
	if len(apps) != 17 {
		t.Fatalf("application count = %d, want 17 (Table VII)", len(apps))
	}
	var problems []string // distinct App.Problem values, in registry order
	seen := map[string]bool{}
	fastestPerProblem := map[string]int{}
	for _, a := range apps {
		if _, ok := fastestPerProblem[a.Problem]; !ok {
			problems = append(problems, a.Problem)
			fastestPerProblem[a.Problem] = 0
		}
		if seen[a.Name] {
			t.Errorf("duplicate app name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Run == nil || a.Check == nil {
			t.Errorf("%s: missing Run/Check", a.Name)
		}
		if a.Version == "" {
			t.Errorf("%s: missing Version (the trace cache cannot key an unversioned app)", a.Name)
		}
		if a.Fastest {
			fastestPerProblem[a.Problem]++
		}
	}
	if len(problems) != 7 {
		t.Fatalf("problem count = %d, want 7", len(problems))
	}
	for _, p := range problems {
		if fastestPerProblem[p] != 1 {
			t.Errorf("problem %s has %d fastest variants, want exactly 1", p, fastestPerProblem[p])
		}
	}
}

func TestByName(t *testing.T) {
	a, err := ByName("bfs-wl")
	if err != nil || a.Name != "bfs-wl" {
		t.Fatalf("ByName(bfs-wl) = %v, %v", a.Name, err)
	}
	if _, err := ByName("nonsense"); err == nil {
		t.Error("expected error for unknown app")
	}
}

func TestSourceNodeIsMaxDegree(t *testing.T) {
	g := disconnectedGraph()
	if s := SourceNode(g); s != 5 {
		t.Errorf("source = %d, want 5 (the star centre)", s)
	}
}

func TestBFSVariantsAgree(t *testing.T) {
	g := graph.GenerateRMAT("agree", 8, 8, 9)
	ref := refBFS(g, SourceNode(g))
	for _, name := range []string{"bfs-wl", "bfs-topo", "bfs-hybrid", "bfs-tp"} {
		app, _ := ByName(name)
		_, out := app.Run(g)
		if err := compareDist(name, ref, out.([]int32)); err != nil {
			t.Errorf("%v", err)
		}
	}
}

func TestSSSPVariantsAgree(t *testing.T) {
	g := graph.GenerateRoad("agree-road", 15, 3)
	ref := refDijkstra(g, SourceNode(g))
	for _, name := range []string{"sssp-wl", "sssp-topo", "sssp-nf"} {
		app, _ := ByName(name)
		_, out := app.Run(g)
		if err := compareDist(name, ref, out.([]int32)); err != nil {
			t.Errorf("%v", err)
		}
	}
}

func TestTriangleVariantsAgree(t *testing.T) {
	g := completeGraph(10)
	want := int64(10 * 9 * 8 / 6) // C(10,3)
	for _, name := range []string{"tri-bs", "tri-merge", "tri-hash"} {
		app, _ := ByName(name)
		_, out := app.Run(g)
		if got := out.(int64); got != want {
			t.Errorf("%s on K10 = %d, want %d", name, got, want)
		}
	}
}

// TestOrientByDegreeOnDirectedGraph: a directed 4-cycle keeps three of
// its four edges, more than the half its slab is sized for, and every
// row must survive the slab moving.
func TestOrientByDegreeOnDirectedGraph(t *testing.T) {
	b := graph.NewBuilder("t-dcycle", graph.ClassRandom, 4)
	for u := int32(0); u < 4; u++ {
		b.AddEdge(u, (u+1)%4, 1)
	}
	want := [][]int32{{1}, {2}, {3}, {}}
	if got := orientByDegree(b.Build()); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("orientByDegree = %v, want %v", got, want)
	}
}

func TestMSTOnPath(t *testing.T) {
	g := pathGraph(10)
	app, _ := ByName("mst-boruvka")
	_, out := app.Run(g)
	var want int64
	for i := 0; i < 9; i++ {
		want += int64(1 + i%5)
	}
	if got := out.(int64); got != want {
		t.Errorf("mst on path = %d, want %d", got, want)
	}
}

func TestMSTDisconnected(t *testing.T) {
	g := disconnectedGraph()
	app, _ := ByName("mst-boruvka")
	_, out := app.Run(g)
	// Cycle of 5 weight-2 edges needs 4; star needs all 4 weight-3 edges.
	want := int64(4*2 + 4*3)
	if got := out.(int64); got != want {
		t.Errorf("msf weight = %d, want %d", got, want)
	}
}

func TestTraceShapesDiffer(t *testing.T) {
	// The premise of the study: different strategies produce different
	// execution signatures on the same input.
	g := graph.GenerateRoad("shape", 30, 5)
	wlApp, _ := ByName("bfs-wl")
	topoApp, _ := ByName("bfs-topo")
	wlTrace, _ := wlApp.Run(g)
	topoTrace, _ := topoApp.Run(g)
	// Topology-driven BFS launches |V| items per level; worklist only
	// the frontier. Total items must differ hugely on a road network.
	var wlItems, topoItems int64
	for _, l := range wlTrace.Launches {
		wlItems += l.Items
	}
	for _, l := range topoTrace.Launches {
		topoItems += l.Items
	}
	if topoItems < 5*wlItems {
		t.Errorf("topo items %d vs wl items %d: expected topo to launch far more", topoItems, wlItems)
	}
}

func TestWorklistAppsPushAtomics(t *testing.T) {
	g := graph.GenerateRMAT("atomics", 8, 8, 13)
	app, _ := ByName("bfs-tp")
	trace, _ := app.Run(g)
	var pushes int64
	for _, l := range trace.Launches {
		pushes += l.AtomicPushes
	}
	if pushes == 0 {
		t.Error("two-phase BFS should record worklist pushes")
	}
}

func TestDeterministicTraces(t *testing.T) {
	g := graph.GenerateRMAT("det", 8, 8, 17)
	for _, name := range []string{"bfs-wl", "mis-wl", "pr-residual"} {
		app, _ := ByName(name)
		t1, _ := app.Run(g)
		t2, _ := app.Run(g)
		if len(t1.Launches) != len(t2.Launches) {
			t.Errorf("%s: launch count varies across runs", name)
			continue
		}
		for i := range t1.Launches {
			a, b := t1.Launches[i], t2.Launches[i]
			if a != b {
				t.Errorf("%s: launch %d differs across runs", name, i)
				break
			}
		}
	}
}
