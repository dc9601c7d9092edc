package graph

import (
	"slices"
	"testing"
)

func TestStandardInputsDeterministic(t *testing.T) {
	a := StandardInputs()
	b := StandardInputs()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("expected 3 standard inputs, got %d", len(a))
	}
	for i := range a {
		if a[i].NumNodes() != b[i].NumNodes() || a[i].NumEdges() != b[i].NumEdges() {
			t.Fatalf("input %s not deterministic in size", a[i].Name)
		}
		for j := range a[i].Dst {
			if a[i].Dst[j] != b[i].Dst[j] {
				t.Fatalf("input %s not deterministic at edge %d", a[i].Name, j)
			}
		}
	}
}

func TestStandardInputsValid(t *testing.T) {
	for _, g := range StandardInputs() {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestInputByName(t *testing.T) {
	g, err := InputByName("usa.ny")
	if err != nil || g.Name != "usa.ny" {
		t.Fatalf("InputByName(usa.ny) = %v, %v", g, err)
	}
	if _, err := InputByName("nope"); err == nil {
		t.Error("expected error for unknown input")
	}
}

func TestRoadProperties(t *testing.T) {
	g := GenerateRoad("road-test", 40, 7)
	p := Analyze(g)
	if p.MaxDegree > 8 {
		t.Errorf("road max degree = %d, expected low uniform degree", p.MaxDegree)
	}
	if p.ApproxDiam < 40 {
		t.Errorf("road diameter = %d, expected at least side length", p.ApproxDiam)
	}
	if _, largest := components(g); largest.size != g.NumNodes() {
		t.Errorf("road should be connected, largest component holds %d of %d nodes", largest.size, g.NumNodes())
	}
	if p.DegreeCV > 0.5 {
		t.Errorf("road degree CV = %v, expected near-uniform degrees", p.DegreeCV)
	}
}

func TestRMATProperties(t *testing.T) {
	g := GenerateRMAT("rmat-test", 11, 16, 7)
	p := Analyze(g)
	// Power-law: hub degree far above median; small diameter.
	degs := make([]int, g.NumNodes())
	for u := range degs {
		degs[u] = g.Degree(int32(u))
	}
	slices.Sort(degs)
	median := float64(degs[(len(degs)-1)/2]+degs[len(degs)/2]) / 2
	if float64(p.MaxDegree) < 10*median {
		t.Errorf("rmat max degree %d vs median %v: not heavy-tailed", p.MaxDegree, median)
	}
	if p.DegreeCV < 1.0 {
		t.Errorf("rmat degree CV = %v, expected > 1 (power law)", p.DegreeCV)
	}
	if p.ApproxDiam > 20 {
		t.Errorf("rmat diameter = %d, expected small world", p.ApproxDiam)
	}
}

func TestUniformProperties(t *testing.T) {
	g := GenerateUniform("uni-test", 4096, 8, 7)
	p := Analyze(g)
	if p.DegreeCV > 0.4 {
		t.Errorf("uniform degree CV = %v, expected < 0.4", p.DegreeCV)
	}
	if p.ApproxDiam > 15 {
		t.Errorf("uniform diameter = %d, expected small", p.ApproxDiam)
	}
}

func TestStructuralContrast(t *testing.T) {
	// The core premise of input sensitivity: road diameter dwarfs the
	// social diameter; social imbalance dwarfs road imbalance.
	inputs := StandardInputs()
	var road, social Properties
	for _, g := range inputs {
		switch g.Class {
		case ClassRoad:
			road = Analyze(g)
		case ClassSocial:
			social = Analyze(g)
		}
	}
	if road.ApproxDiam < 10*social.ApproxDiam {
		t.Errorf("road diam %d vs social diam %d: contrast too weak",
			road.ApproxDiam, social.ApproxDiam)
	}
	if social.DegreeCV < 3*road.DegreeCV {
		t.Errorf("social CV %v vs road CV %v: imbalance contrast too weak",
			social.DegreeCV, road.DegreeCV)
	}
}

func TestAnalyzeEmptyGraph(t *testing.T) {
	g := NewBuilder("empty", ClassRandom, 0).Build()
	p := Analyze(g)
	if p.Nodes != 0 || p.Edges != 0 {
		t.Errorf("empty graph props = %+v", p)
	}
}

func TestDifferentSeedsGiveDifferentGraphs(t *testing.T) {
	a := GenerateUniform("a", 500, 4, 1)
	b := GenerateUniform("b", 500, 4, 2)
	same := a.NumEdges() == b.NumEdges()
	if same {
		diff := false
		for i := range a.Dst {
			if a.Dst[i] != b.Dst[i] {
				diff = true
				break
			}
		}
		if !diff {
			t.Error("different seeds produced identical graphs")
		}
	}
}

func TestExtendedInputs(t *testing.T) {
	ext := ExtendedInputs()
	if len(ext) != 3 {
		t.Fatalf("extended inputs = %d, want 3", len(ext))
	}
	std := StandardInputs()
	classes := map[Class]int{}
	for _, g := range ext {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
		classes[g.Class]++
		for _, s := range std {
			if s.Name == g.Name {
				t.Errorf("extended input %s collides with a standard input", g.Name)
			}
		}
	}
	if classes[ClassRoad] != 1 || classes[ClassSocial] != 1 || classes[ClassRandom] != 1 {
		t.Errorf("extended inputs should cover each class once: %v", classes)
	}
	// Both sets resolvable by name.
	for _, g := range append(std, ext...) {
		got, err := InputByName(g.Name)
		if err != nil || got.Name != g.Name {
			t.Errorf("InputByName(%s): %v", g.Name, err)
		}
	}
}
