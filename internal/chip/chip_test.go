package chip

import "testing"

func TestAllSixChipsFourVendors(t *testing.T) {
	chips := All()
	if len(chips) != 6 {
		t.Fatalf("chip count = %d, want 6 (Table I)", len(chips))
	}
	vendors := map[string]bool{}
	names := map[string]bool{}
	for _, c := range chips {
		vendors[c.Vendor] = true
		if names[c.Name] {
			t.Errorf("duplicate chip name %s", c.Name)
		}
		names[c.Name] = true
	}
	if len(vendors) != 4 {
		t.Errorf("vendor count = %d, want 4", len(vendors))
	}
	for _, want := range []string{"Nvidia", "Intel", "AMD", "ARM"} {
		if !vendors[want] {
			t.Errorf("missing vendor %s", want)
		}
	}
}

func TestByName(t *testing.T) {
	c, err := ByName(MALI)
	if err != nil || c.Vendor != "ARM" {
		t.Fatalf("ByName(MALI) = %v, %v", c.Vendor, err)
	}
	if _, err := ByName("RTX9000"); err == nil {
		t.Error("expected error for unknown chip")
	}
}

func TestNamesOrder(t *testing.T) {
	all := All()
	want := []string{M4000, GTX1080, HD5500, IRIS, R9, MALI}
	if len(all) != len(want) {
		t.Fatalf("chips = %v", all)
	}
	for i := range want {
		if all[i].Name != want[i] {
			t.Errorf("chip %d = %s, want %s", i, all[i].Name, want[i])
		}
	}
}

func TestParametersSane(t *testing.T) {
	for _, c := range All() {
		if c.CUs <= 0 || c.SubgroupSize < 1 || c.MaxWorkgroup < 128 {
			t.Errorf("%s: implausible topology %+v", c.Name, c)
		}
		for name, v := range map[string]float64{
			"LaunchNS":        c.LaunchNS,
			"CopyNS":          c.CopyNS,
			"GlobalBarrierNS": c.GlobalBarrierNS,
			"EdgeThroughput":  c.EdgeThroughput,
			"AtomicNS":        c.AtomicNS,
			"LineFetchNS":     c.LineFetchNS,
			"NoiseSigma":      c.NoiseSigma,
		} {
			if v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", c.Name, name, v)
			}
		}
		if c.GBOccupancyPenalty < 1 {
			t.Errorf("%s: GB occupancy penalty %v < 1", c.Name, c.GBOccupancyPenalty)
		}
		if c.CacheLinesPerCU < 1 {
			t.Errorf("%s: cache lines %d", c.Name, c.CacheLinesPerCU)
		}
	}
}

// The paper-documented per-chip characteristics that everything else
// calibrates against.
func TestPaperCharacteristics(t *testing.T) {
	byName := map[string]Chip{}
	for _, c := range All() {
		byName[c.Name] = c
	}

	// Table I topology.
	if byName[MALI].SubgroupSize != 1 {
		t.Error("MALI must have subgroup size 1")
	}
	if byName[R9].SubgroupSize != 64 {
		t.Error("R9 must have subgroup size 64")
	}
	if byName[M4000].SubgroupSize != 32 || byName[GTX1080].SubgroupSize != 32 {
		t.Error("Nvidia subgroup size must be 32")
	}

	// Figure 5: Nvidia has the cheapest launches, MALI the dearest.
	for _, c := range All() {
		if c.Vendor == "Nvidia" {
			continue
		}
		if c.LaunchNS <= byName[GTX1080].LaunchNS || c.LaunchNS <= byName[M4000].LaunchNS {
			t.Errorf("%s launch (%v) should exceed Nvidia's", c.Name, c.LaunchNS)
		}
	}
	for _, c := range All() {
		if c.Name != MALI && c.LaunchNS >= byName[MALI].LaunchNS {
			t.Errorf("%s launch should be below MALI's", c.Name)
		}
	}

	// Section VIII-b: Nvidia and HD5500 JITs combine atomics; R9, IRIS
	// and MALI do not.
	for name, want := range map[string]bool{
		M4000: true, GTX1080: true, HD5500: true,
		IRIS: false, R9: false, MALI: false,
	} {
		if byName[name].JITCombinesAtomics != want {
			t.Errorf("%s JIT combining = %v, want %v", name, !want, want)
		}
	}

	// Section VIII-c: MALI is by far the most divergence-sensitive.
	for _, c := range All() {
		if c.Name == MALI {
			continue
		}
		if c.DivergencePenaltyNS*5 > byName[MALI].DivergencePenaltyNS {
			t.Errorf("%s divergence penalty too close to MALI's", c.Name)
		}
	}

	// oitergb economics: for non-Nvidia chips a global barrier round is
	// far cheaper than launch+copy; on Nvidia they are comparable.
	for _, c := range All() {
		ratio := (c.LaunchNS + c.CopyNS) / c.GlobalBarrierNS
		if c.Vendor == "Nvidia" {
			if ratio < 0.8 || ratio > 2.2 {
				t.Errorf("%s launch/barrier ratio %v should be near break-even", c.Name, ratio)
			}
		} else if ratio < 3 {
			t.Errorf("%s launch/barrier ratio %v should be >= 3", c.Name, ratio)
		}
	}
}
