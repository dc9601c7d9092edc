package study

// This file is the reproduction gate: it runs the full study once and
// asserts the qualitative findings of the paper (the calibration
// targets listed in DESIGN.md section 4). If the chip models or the
// cost model drift, these tests say exactly which paper result broke.

import (
	"sync"
	"testing"

	"gpuport/internal/analysis"
	"gpuport/internal/chip"
	"gpuport/internal/dataset"
	"gpuport/internal/opt"
)

var (
	studyOnce sync.Once
	theStudy  *Study
	studyErr  error
)

func fullStudy(t *testing.T) *Study {
	t.Helper()
	studyOnce.Do(func() {
		theStudy, studyErr = Default()
	})
	if studyErr != nil {
		t.Fatal(studyErr)
	}
	return theStudy
}

func TestDatasetShape(t *testing.T) {
	d := fullStudy(t).Dataset()
	if got := len(d.Tuples()); got != 306 {
		t.Errorf("tuples = %d, want 306 (6 chips x 17 apps x 3 inputs)", got)
	}
	if got := d.Len(); got != 306*96 {
		t.Errorf("records = %d, want %d", got, 306*96)
	}
}

// decisions returns the per-chip flag decisions keyed by chip and flag.
func chipDecisions(t *testing.T) map[string]map[opt.Flag]analysis.FlagDecision {
	t.Helper()
	spec := fullStudy(t).PerChip()
	out := map[string]map[opt.Flag]analysis.FlagDecision{}
	for _, p := range spec.Partitions {
		m := map[opt.Flag]analysis.FlagDecision{}
		for _, dec := range p.Decisions {
			m[dec.Flag] = dec
		}
		out[p.Key.Chip] = m
	}
	return out
}

// TestTableIXRecommendations checks the headline per-chip structure of
// Table IX.
func TestTableIXRecommendations(t *testing.T) {
	dec := chipDecisions(t)

	// coop-cv: enabled exactly on R9 and IRIS (Section VIII-b).
	for name, want := range map[string]bool{
		chip.R9: true, chip.IRIS: true,
		chip.M4000: false, chip.GTX1080: false, chip.HD5500: false, chip.MALI: false,
	} {
		if got := dec[name][opt.FlagCoopCV].Enabled; got != want {
			t.Errorf("coop-cv on %s = %v, want %v", name, got, want)
		}
	}

	// sg: enabled on every chip - including MALI, despite its trivial
	// subgroups (Section VIII-c).
	for _, c := range chip.All() {
		name := c.Name
		if !dec[name][opt.FlagSG].Enabled {
			t.Errorf("sg should be enabled on %s", name)
		}
	}

	// wg: enabled nowhere, but with a non-zero effect size.
	for _, c := range chip.All() {
		name := c.Name
		d := dec[name][opt.FlagWG]
		if d.Enabled {
			t.Errorf("wg should not be enabled on %s", name)
		}
		if d.CL <= 0 || d.CL >= 0.5 {
			t.Errorf("wg CL on %s = %v, want small but non-zero", name, d.CL)
		}
	}

	// fg8: enabled everywhere it matters; nearly always wins on Nvidia
	// and AMD (CL > .85), notably weaker on Intel.
	for _, name := range []string{chip.M4000, chip.GTX1080, chip.R9} {
		d := dec[name][opt.FlagFG8]
		if !d.Enabled || d.CL < 0.85 {
			t.Errorf("fg8 on %s: enabled=%v CL=%v, want enabled with CL > .85", name, d.Enabled, d.CL)
		}
	}
	for _, name := range []string{chip.HD5500, chip.IRIS} {
		d := dec[name][opt.FlagFG8]
		if d.CL >= 0.85 {
			t.Errorf("fg8 on %s CL = %v, want below the Nvidia/AMD band", name, d.CL)
		}
	}

	// oitergb: enabled on every chip except the two Nvidia ones, whose
	// launches are too cheap for outlining to pay (Section VIII-a).
	for name, want := range map[string]bool{
		chip.HD5500: true, chip.IRIS: true, chip.R9: true, chip.MALI: true,
		chip.M4000: false, chip.GTX1080: false,
	} {
		if got := dec[name][opt.FlagOiterGB].Enabled; got != want {
			t.Errorf("oitergb on %s = %v, want %v", name, got, want)
		}
	}

	// sz256: never recommended.
	for _, c := range chip.All() {
		name := c.Name
		if dec[name][opt.FlagSZ256].Enabled {
			t.Errorf("sz256 should not be enabled on %s", name)
		}
	}
}

// TestGlobalStrategyIsPaperPick: the fully-portable strategy must land
// on the paper's choice {sg, fg8, oitergb} - and in particular reject
// coop-cv, whose wins on R9/IRIS a magnitude-based analysis overweights.
func TestGlobalStrategyIsPaperPick(t *testing.T) {
	cfg := fullStudy(t).Global().Strategy.Config(dataset.Tuple{})
	want := opt.Config{SG: true, FG: opt.FG8, OiterGB: true}
	if cfg != want {
		t.Errorf("global strategy = %v, want %v", cfg, want)
	}
}

func TestTableIIEnvelope(t *testing.T) {
	s := fullStudy(t)
	for _, e := range s.Extremes() {
		// Every chip has serious headroom in both directions.
		if e.MaxSpeedup < 3 {
			t.Errorf("%s max speedup %v, want >= 3x", e.Chip, e.MaxSpeedup)
		}
		if e.MaxSlowdown < 4 {
			t.Errorf("%s max slowdown %v, want >= 4x", e.Chip, e.MaxSlowdown)
		}
		// The envelope lives on the road network (the paper: "the input
		// in every case turns out to be usa.ny").
		if e.SlowdownInput != "usa.ny" {
			t.Errorf("%s worst slowdown on %s, want usa.ny", e.Chip, e.SlowdownInput)
		}
		// Nothing should explode beyond the paper's ~22x order.
		if e.MaxSlowdown > 60 || e.MaxSpeedup > 30 {
			t.Errorf("%s envelope implausible: +%vx -%vx", e.Chip, e.MaxSpeedup, e.MaxSlowdown)
		}
	}
	// The cross-vendor envelope exceeds the Nvidia-only one (Section
	// II-B: prior Nvidia-only studies missed the full range).
	byChip := map[string]analysis.Extreme{}
	for _, e := range s.Extremes() {
		byChip[e.Chip] = e
	}
	nvidiaMax := byChip[chip.M4000].MaxSpeedup
	if byChip[chip.GTX1080].MaxSpeedup > nvidiaMax {
		nvidiaMax = byChip[chip.GTX1080].MaxSpeedup
	}
	crossMax := nvidiaMax
	for _, e := range s.Extremes() {
		if e.MaxSpeedup > crossMax {
			crossMax = e.MaxSpeedup
		}
	}
	if crossMax <= nvidiaMax {
		t.Errorf("cross-vendor max speedup %v should exceed Nvidia-only %v", crossMax, nvidiaMax)
	}
}

func TestOracleGeoMeanModest(t *testing.T) {
	// Section II-B: the oracle's aggregate win is modest (paper: 1.5x)
	// despite the large individual extremes.
	got := analysis.MaxOracleGeoMean(fullStudy(t).Dataset())
	if got < 1.2 || got > 2.6 {
		t.Errorf("oracle geomean = %v, want modest (1.2-2.6)", got)
	}
}

// TestTableIIIShape checks the global ranking's paper structure.
func TestTableIIIShape(t *testing.T) {
	s := fullStudy(t)
	ranks := s.Ranks()
	if len(ranks) != 95 {
		t.Fatalf("ranks = %d", len(ranks))
	}
	// "Do no harm" fails: even the least harmful combination causes
	// slowdowns somewhere.
	if ranks[0].Slowdowns == 0 {
		t.Errorf("rank 0 (%v) causes no slowdowns; the do-no-harm pitfall needs some", ranks[0].Config)
	}
	// The bottom of the table is wg-without-fg combinations, mostly
	// with sz256.
	for i := len(ranks) - 5; i < len(ranks); i++ {
		r := ranks[i]
		if !r.Config.WG || r.Config.FG != opt.FGOff {
			t.Errorf("bottom rank %d = %v, want a wg-without-fg combination", i, r.Config)
		}
		if r.GeoMean > 0.8 {
			t.Errorf("bottom rank %d geomean = %v, want clearly harmful", i, r.GeoMean)
		}
	}
	// wg with fg8 is benign: it must rank in the top half.
	for _, r := range ranks {
		if r.Config == (opt.Config{WG: true, FG: opt.FG8, SG: true, OiterGB: true}) {
			if r.Rank > len(ranks)/2 {
				t.Errorf("sg,wg,fg8,oitergb ranked %d; fg should neutralise wg", r.Rank)
			}
		}
	}
}

// TestFigure1Shape checks the cross-chip heatmap structure.
func TestFigure1Shape(t *testing.T) {
	h := fullStudy(t).Heatmap()
	idx := map[string]int{}
	for i, c := range h.Rows {
		idx[c] = i
	}
	for i := range h.Rows {
		if h.Cell[i][i] < 0.999 || h.Cell[i][i] > 1.001 {
			t.Errorf("diagonal for %s = %v, want 1.0", h.Rows[i], h.Cell[i][i])
		}
		for j := range h.Cols {
			if i != j && h.Cell[i][j] < 1.0 {
				t.Errorf("cell [%s][%s] = %v below 1: impossible vs own optimum",
					h.Rows[i], h.Cols[j], h.Cell[i][j])
			}
		}
	}
	// Section II-A: no chip-specialised strategy is fully portable -
	// every off-diagonal column geomean is at least ~1.1.
	for j, c := range h.Cols {
		if h.ColMeanOffDiag[j] < 1.08 {
			t.Errorf("off-diagonal geomean for %s settings = %v, want >= 1.08", c, h.ColMeanOffDiag[j])
		}
	}
	// The Intel pair ports well relative to the rest.
	intelCell := h.Cell[idx[chip.HD5500]][idx[chip.IRIS]]
	if intelCell > 1.12 {
		t.Errorf("HD5500 under IRIS settings = %v, want close to 1", intelCell)
	}
	// Generational asymmetry: GTX1080 suffers more under M4000 settings
	// than M4000 does under GTX1080 settings.
	newUnderOld := h.Cell[idx[chip.GTX1080]][idx[chip.M4000]]
	oldUnderNew := h.Cell[idx[chip.M4000]][idx[chip.GTX1080]]
	if newUnderOld <= oldUnderNew {
		t.Errorf("generational asymmetry missing: GTX1080@M4000 %v vs M4000@GTX1080 %v",
			newUnderOld, oldUnderNew)
	}
	// MALI is among the most fragile chips under foreign settings.
	maliRow := h.RowMean[idx[chip.MALI]]
	better := 0
	for i := range h.Rows {
		if i != idx[chip.MALI] && h.RowMean[i] > maliRow {
			better++
		}
	}
	if better > 1 {
		t.Errorf("MALI row geomean %v should be among the two worst", maliRow)
	}
}

// TestFigure3And4Shape checks the specialisation trade-off curves.
func TestFigure3And4Shape(t *testing.T) {
	s := fullStudy(t)
	evals, excluded := s.Evaluations()
	byName := map[string]analysis.StrategyEval{}
	for _, e := range evals {
		byName[e.Name] = e
	}

	total := byName["baseline"].Tests()
	if total == 0 {
		t.Fatal("no improvable tests")
	}
	// A sizeable fraction of tests is non-improvable (paper: 43%).
	frac := float64(excluded) / float64(excluded+total)
	if frac < 0.10 || frac > 0.55 {
		t.Errorf("excluded fraction = %v, want 0.10-0.55", frac)
	}

	base := byName["baseline"]
	if base.Speedups != 0 || base.Slowdowns != 0 {
		t.Errorf("baseline outcomes %+v", base)
	}
	oracle := byName["oracle"]
	if oracle.Slowdowns != 0 {
		t.Errorf("oracle has %d slowdowns", oracle.Slowdowns)
	}
	if float64(oracle.Speedups)/float64(total) < 0.9 {
		t.Errorf("oracle speedups %d of %d, want ~all", oracle.Speedups, total)
	}

	global := byName["global"]
	// The portable strategy helps the majority of improvable tests
	// (paper: 62%).
	if sf := float64(global.Speedups) / float64(total); sf < 0.5 {
		t.Errorf("global speedup fraction = %v, want >= 0.5", sf)
	}
	// Figure 4 ordering: oracle <= full specialisation <= global <=
	// baseline in geomean-vs-oracle.
	full := byName["chip_app_input"]
	if !(oracle.GeoMeanSlowdownVsOracle <= full.GeoMeanSlowdownVsOracle+1e-9 &&
		full.GeoMeanSlowdownVsOracle <= global.GeoMeanSlowdownVsOracle+1e-9 &&
		global.GeoMeanSlowdownVsOracle <= base.GeoMeanSlowdownVsOracle+1e-9) {
		t.Errorf("vs-oracle ordering broken: oracle %v, full %v, global %v, baseline %v",
			oracle.GeoMeanSlowdownVsOracle, full.GeoMeanSlowdownVsOracle,
			global.GeoMeanSlowdownVsOracle, base.GeoMeanSlowdownVsOracle)
	}
	// Global beats not-optimising clearly (paper: 1.15x, ours richer).
	if global.GeoMeanVsBaseline < 1.1 {
		t.Errorf("global vs baseline = %v, want >= 1.1", global.GeoMeanVsBaseline)
	}
	// Chip is the best single specialisation dimension for speedups
	// (paper Section VII).
	if byName["chip"].Speedups < byName["app"].Speedups ||
		byName["chip"].Speedups < byName["input"].Speedups {
		t.Errorf("chip (%d) should beat app (%d) and input (%d) in speedups",
			byName["chip"].Speedups, byName["app"].Speedups, byName["input"].Speedups)
	}
}

// TestFigure2Shape: sg appears broadly in top-speedup configurations,
// most of all on MALI; oitergb appears heavily on expensive-launch
// chips and least on Nvidia.
func TestFigure2Shape(t *testing.T) {
	ffs := analysis.TopSpeedupOpts(fullStudy(t).Dataset())
	byChip := map[string]analysis.FlagFrequency{}
	for _, ff := range ffs {
		byChip[ff.Chip] = ff
	}
	for _, name := range []string{chip.HD5500, chip.IRIS, chip.R9, chip.MALI} {
		nv := byChip[chip.GTX1080]
		if float64(byChip[name].Count[opt.FlagOiterGB])/float64(byChip[name].Tests) <=
			float64(nv.Count[opt.FlagOiterGB])/float64(nv.Tests) {
			t.Errorf("%s should need oitergb more often than GTX1080", name)
		}
	}
	mali := byChip[chip.MALI]
	if float64(mali.Count[opt.FlagSG])/float64(mali.Tests) < 0.5 {
		t.Errorf("MALI should need sg in most top configs: %d of %d",
			mali.Count[opt.FlagSG], mali.Tests)
	}
}

func TestStudyCachesAreStable(t *testing.T) {
	s := fullStudy(t)
	if s.Ranks()[0].Config != s.Ranks()[0].Config {
		t.Error("unreachable")
	}
	a := s.PerChip()
	b := s.PerChip()
	if a != b {
		t.Error("PerChip should return the cached specialisation")
	}
	e1, x1 := s.Evaluations()
	e2, x2 := s.Evaluations()
	if len(e1) != len(e2) || x1 != x2 {
		t.Error("Evaluations not cached consistently")
	}
}
