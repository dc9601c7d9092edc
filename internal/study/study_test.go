package study

import (
	"reflect"
	"sync"
	"testing"

	"gpuport/internal/analysis"
	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/dataset"
	"gpuport/internal/graph"
	"gpuport/internal/measure"
	"gpuport/internal/opt"
)

// smallStudy builds a fast, restricted study for API tests that should
// not pay for the full sweep.
func smallStudy(t *testing.T) *Study {
	t.Helper()
	bfs, _ := apps.ByName("bfs-wl")
	sssp, _ := apps.ByName("sssp-nf")
	s, err := New(measure.Options{
		Seed:   5,
		Runs:   3,
		Chips:  chip.All()[:3],
		Apps:   []apps.App{bfs, sssp},
		Inputs: []*graph.Graph{graph.GenerateRoad("st-road", 30, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStrategiesList(t *testing.T) {
	s := smallStudy(t)
	strategies := s.Strategies()
	if len(strategies) != 10 {
		t.Fatalf("strategies = %d, want 10", len(strategies))
	}
	if strategies[0].Name != "baseline" || strategies[9].Name != "oracle" {
		t.Errorf("strategy order: %s ... %s", strategies[0].Name, strategies[9].Name)
	}
}

func TestFromDatasetSharesData(t *testing.T) {
	s := smallStudy(t)
	clone := FromDataset(s.Dataset())
	if clone.Dataset() != s.Dataset() {
		t.Error("FromDataset should wrap the same dataset")
	}
	// Independent caches: both can analyse without interfering.
	a := s.PerChip().Strategy
	b := clone.PerChip().Strategy
	for _, tp := range s.Dataset().Tuples()[:3] {
		if a.Config(tp) != b.Config(tp) {
			t.Errorf("same data, different recommendations on %v", tp)
		}
	}
}

func TestSamplingCurveAPI(t *testing.T) {
	s := smallStudy(t)
	pts := s.SamplingCurve(analysis.Dims{}, []float64{0.5, 1.0}, 2, 9)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].MeanAgreement < 0.999 {
		t.Errorf("full sample agreement = %v", pts[1].MeanAgreement)
	}
}

func TestCrossValidateAPI(t *testing.T) {
	s := smallStudy(t)
	results := s.CrossValidate(analysis.LOOApp)
	if len(results) != 2 {
		t.Fatalf("folds = %d, want 2 apps", len(results))
	}
}

// effectDataset is a synthetic 2-chip x 3-app x 2-input dataset in
// which every flag changes every tuple's runtime by a tuple-dependent
// factor of at least 10%, far outside the samples' spread. So every
// flag has significant comparisons in every partition at every degree
// of specialisation, and no analysis result holds a NaN, which
// reflect.DeepEqual never equates.
func effectDataset() *dataset.Dataset {
	factors := []float64{0.6, 0.75, 0.9, 1.1, 1.3, 1.6}
	d := dataset.New()
	for ci, ch := range []string{"c1", "c2"} {
		for ai, app := range []string{"a1", "a2", "a3"} {
			for ii, in := range []string{"i1", "i2"} {
				for cid, cfg := range opt.All() {
					v := 100 * (1 + 0.003*float64(cid%7))
					for _, f := range cfg.EnabledFlags() {
						v *= factors[(ci+2*ai+3*ii+int(f))%len(factors)]
					}
					d.Add(dataset.Record{
						Key:     dataset.Key{Tuple: dataset.Tuple{Chip: ch, App: app, Input: in}, Config: cfg},
						Samples: []float64{v * 0.999, v, v * 1.001},
					})
				}
			}
		}
	}
	return d
}

// TestConcurrentAnalysesMatchSerial runs Algorithm 1's entry points on
// one Study from 8 goroutines at once - Specialise at all eight
// degrees, CrossValidate along the three dimensions and a SamplingCurve
// - so they build and read the study's one index together (the race
// detector watches that under make race), and requires every result to
// equal a serial run on a fresh Study over the same dataset.
func TestConcurrentAnalysesMatchSerial(t *testing.T) {
	shared := FromDataset(effectDataset())
	var jobs []func(*Study) any
	for _, dims := range analysis.AllDims() {
		jobs = append(jobs, func(s *Study) any {
			sp := s.Specialise(dims)
			var picks []string
			for _, tp := range s.Dataset().Tuples() {
				picks = append(picks, sp.Strategy.Config(tp).String())
			}
			return []any{sp.Dims, sp.Partitions, picks}
		})
	}
	for _, dim := range []analysis.LOODimension{analysis.LOOApp, analysis.LOOInput, analysis.LOOChip} {
		jobs = append(jobs, func(s *Study) any { return s.CrossValidate(dim) })
	}
	jobs = append(jobs, func(s *Study) any {
		return s.SamplingCurve(analysis.Dims{Chip: true}, []float64{0.3, 0.6, 1.0}, 4, 3)
	})

	got := make([]any, len(jobs))
	next := make(chan int, len(jobs))
	for i := range jobs {
		next <- i
	}
	close(next)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := range next {
				got[i] = jobs[i](shared)
			}
		}()
	}
	close(start)
	wg.Wait()

	serial := FromDataset(shared.Dataset())
	for _, p := range serial.Specialise(analysis.Dims{Chip: true, App: true, Input: true}).Partitions {
		for _, dec := range p.Decisions {
			if dec.Comparisons == 0 {
				t.Fatalf("partition %s: flag %v has no comparisons", p.Key, dec.Flag)
			}
		}
	}
	for i, job := range jobs {
		if want := job(serial); !reflect.DeepEqual(got[i], want) {
			t.Errorf("job %d: concurrent result %+v, serial %+v", i, got[i], want)
		}
	}
}

func TestInputTransfer(t *testing.T) {
	bfs, _ := apps.ByName("bfs-wl")
	pr, _ := apps.ByName("pr-residual")
	base := measure.Options{
		Seed:  4,
		Runs:  3,
		Chips: chip.All()[:2],
		Apps:  []apps.App{bfs, pr},
	}
	res, err := InputTransfer(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.GlobalA == "" || res.GlobalB == "" {
		t.Errorf("missing global picks: %+v", res)
	}
	if res.ChipAgreement < 0.5 {
		t.Errorf("cross-domain agreement = %v, want >= 0.5 for same input classes", res.ChipAgreement)
	}
	if res.RankTau < 0.4 {
		t.Errorf("cross-domain rank tau = %v, want >= 0.4", res.RankTau)
	}
}

func TestSeedStability(t *testing.T) {
	bfs, _ := apps.ByName("bfs-wl")
	base := measure.Options{
		Runs:   3,
		Chips:  chip.All()[:2],
		Apps:   []apps.App{bfs},
		Inputs: []*graph.Graph{graph.GenerateUniform("st-rand", 800, 5, 3)},
	}
	res, err := SeedStability(base, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 3 || len(res.RankTau) != 3 || len(res.ChipAgreement) != 3 {
		t.Fatalf("result shape %+v", res)
	}
	if res.RankTau[0] != 1 || res.ChipAgreement[0] != 1 {
		t.Errorf("reference seed should self-agree: %+v", res)
	}
	for i := 1; i < 3; i++ {
		// Rankings built from the same model under different noise must
		// stay strongly correlated.
		if res.RankTau[i] < 0.6 {
			t.Errorf("seed %d rank tau = %v, want >= 0.6", res.Seeds[i], res.RankTau[i])
		}
		if res.ChipAgreement[i] < 0.6 {
			t.Errorf("seed %d chip agreement = %v, want >= 0.6", res.Seeds[i], res.ChipAgreement[i])
		}
	}
}
