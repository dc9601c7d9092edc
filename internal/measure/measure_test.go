package measure

import (
	"fmt"
	"strings"
	"testing"

	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/cost"
	"gpuport/internal/dataset"
	"gpuport/internal/fault"
	"gpuport/internal/graph"
	"gpuport/internal/irgl"
	"gpuport/internal/opt"
)

// smallOptions restricts the sweep so tests run in milliseconds.
func smallOptions() Options {
	bfs, _ := apps.ByName("bfs-wl")
	pr, _ := apps.ByName("pr-residual")
	chips := chip.All()[:2]
	return Options{
		Seed:   7,
		Runs:   3,
		Chips:  chips,
		Apps:   []apps.App{bfs, pr},
		Inputs: []*graph.Graph{graph.GenerateUniform("m-rand", 600, 5, 9)},
	}
}

func TestCollectShape(t *testing.T) {
	d, err := Collect(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantRecords := 2 * 2 * 1 * len(opt.All())
	if d.Len() != wantRecords {
		t.Errorf("records = %d, want %d", d.Len(), wantRecords)
	}
	if len(d.Tuples()) != 4 {
		t.Errorf("tuples = %d, want 4", len(d.Tuples()))
	}
	for _, tp := range d.Tuples() {
		for _, cfg := range opt.All() {
			s := d.Samples(tp, cfg)
			if len(s) != 3 {
				t.Fatalf("%v/%v: %d samples", tp, cfg, len(s))
			}
			for _, v := range s {
				if v <= 0 {
					t.Fatalf("%v/%v: non-positive sample", tp, cfg)
				}
			}
		}
	}
}

func TestCollectDeterministic(t *testing.T) {
	a, err := Collect(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range a.Tuples() {
		for _, cfg := range opt.All() {
			sa, sb := a.Samples(tp, cfg), b.Samples(tp, cfg)
			for i := range sa {
				if sa[i] != sb[i] {
					t.Fatalf("%v/%v sample %d differs: %v vs %v", tp, cfg, i, sa[i], sb[i])
				}
			}
		}
	}
}

// TestCollectMatchesReferenceEstimate pins the sweep to the reference
// cost model: every sample the columnar engine produces equals
// cost.Estimate times the cell's noise factor, bit for bit.
func TestCollectMatchesReferenceEstimate(t *testing.T) {
	o := smallOptions()
	d, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := Traces(o)
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, ch := range o.Chips {
		for _, tr := range traces {
			tp := cost.NewTraceProfile(tr)
			tuple := dataset.Tuple{Chip: ch.Name, App: tp.App, Input: tp.Input}
			for _, cfg := range opt.All() {
				base := cost.Estimate(ch, cfg, tp)
				factors := fault.NoiseFactors(cellKeyPrefix(o.Seed, ch.Name, tp.App, tp.Input)+cfg.String(), 0, o.Runs, ch.NoiseSigma)
				got := d.Samples(tuple, cfg)
				if len(got) != len(factors) {
					t.Fatalf("%v/%v: %d samples, want %d", tuple, cfg, len(got), len(factors))
				}
				for i, f := range factors {
					if want := base * f; got[i] != want {
						t.Fatalf("%v/%v sample %d: columnar %x != reference %x", tuple, cfg, i, got[i], want)
					}
				}
				cells++
			}
		}
	}
	if cells != d.Len() {
		t.Fatalf("checked %d cells, dataset holds %d", cells, d.Len())
	}
}

// TestCellKeyMatchesFormat holds a job's key prefix plus a config's
// name to the frozen cell-key format, for every config at two seeds.
func TestCellKeyMatchesFormat(t *testing.T) {
	ch, app, in := chip.All()[0].Name, "bfs-wl", "usa.ny"
	for _, seed := range []uint64{7, 1<<63 + 5} {
		prefix := cellKeyPrefix(seed, ch, app, in)
		for _, cfg := range opt.All() {
			want := fmt.Sprintf("%d|%s|%s|%s|%s", seed, ch, app, in, cfg.String())
			if got := prefix + cfg.String(); got != want {
				t.Errorf("cell key %q, want %q", got, want)
			}
		}
	}
}

func TestSeedChangesNoiseNotScale(t *testing.T) {
	o1 := smallOptions()
	o2 := smallOptions()
	o2.Seed = 99
	a, _ := Collect(o1)
	b, _ := Collect(o2)
	same, diff := 0, 0
	for _, tp := range a.Tuples() {
		for _, cfg := range opt.All() {
			sa, sb := a.Samples(tp, cfg), b.Samples(tp, cfg)
			ma, mb := (sa[0]+sa[1]+sa[2])/3, (sb[0]+sb[1]+sb[2])/3
			if sa[0] == sb[0] {
				same++
			} else {
				diff++
			}
			// Means stay within the noise envelope of each other.
			if ma/mb > 1.3 || mb/ma > 1.3 {
				t.Fatalf("%v/%v: seeds changed scale %v vs %v", tp, cfg, ma, mb)
			}
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical samples")
	}
	if same > diff/10 {
		t.Errorf("suspiciously many identical samples across seeds: %d vs %d", same, diff)
	}
}

// TestCollectRejectsConfigsOutsideSpace: a config with no opt ID (an
// FG value past FG8) is refused before any work, naming the value; its
// CSV row would collide with its FG-off twin.
func TestCollectRejectsConfigsOutsideSpace(t *testing.T) {
	for _, tc := range []struct {
		cfg  opt.Config
		want string
	}{
		{opt.Config{FG: 3}, "FG=3"},
		{opt.Config{SG: true, FG: 255}, "sg with FG=255"},
	} {
		o := smallOptions()
		o.Configs = []opt.Config{{}, tc.cfg}
		_, _, err := CollectReport(o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want one naming %s", tc.cfg, err, tc.want)
		}
	}
}

func TestValidateOption(t *testing.T) {
	o := smallOptions()
	o.Validate = true
	if _, err := Collect(o); err != nil {
		t.Fatalf("validation should pass for correct apps: %v", err)
	}
}

func TestTracesOnly(t *testing.T) {
	o := smallOptions()
	traces, err := Traces(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(traces))
	}
	for _, tr := range traces {
		if len(tr.Launches) == 0 {
			t.Errorf("%s: empty trace", tr.App)
		}
	}
}

func TestDefaultsFill(t *testing.T) {
	var o Options
	o.fill()
	if o.Runs != 3 || len(o.Chips) != 6 || len(o.Apps) != 17 || len(o.Inputs) != 3 {
		t.Errorf("defaults = runs %d, %d chips, %d apps, %d inputs",
			o.Runs, len(o.Chips), len(o.Apps), len(o.Inputs))
	}
}

// TestValidateCatchesBrokenApp injects an application that computes a
// wrong answer and checks the harness refuses to time it.
func TestValidateCatchesBrokenApp(t *testing.T) {
	broken := apps.App{
		Name:    "bfs-broken",
		Problem: "BFS",
		Run: func(g *graph.Graph) (*irgl.Trace, any) {
			rt := irgl.NewRuntime("bfs-broken", g)
			k := rt.Launch("noop")
			k.ForAllNodes(func(it *irgl.Item, u int32) {})
			k.End()
			// All-zero distances: wrong for any graph with >1 node.
			return rt.Trace(), make([]int32, g.NumNodes())
		},
	}
	real, _ := apps.ByName("bfs-wl")
	broken.Check = real.Check

	o := smallOptions()
	o.Apps = []apps.App{broken}
	o.Validate = true
	if _, err := Collect(o); err == nil {
		t.Fatal("harness accepted a wrong answer")
	}
	// Without validation the harness times whatever it is given.
	o.Validate = false
	if _, err := Collect(o); err != nil {
		t.Fatalf("unvalidated collection should proceed: %v", err)
	}
}
