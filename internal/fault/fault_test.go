package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParsePresetsAndSpecs(t *testing.T) {
	if p, err := Parse(""); err != nil || p != nil {
		t.Errorf("Parse(\"\") = %v, %v; want nil profile", p, err)
	}
	if p, err := Parse("none"); err != nil || p != nil {
		t.Errorf("Parse(none) = %v, %v; want nil profile", p, err)
	}
	p, err := Parse("light")
	if err != nil || !p.Active() || p.Transient != 0.02 {
		t.Errorf("Parse(light) = %+v, %v", p, err)
	}
	p, err = Parse("heavy,seed=9,retries=2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 || p.MaxRetries != 2 || p.Dropout != 1 {
		t.Errorf("preset overrides lost: %+v", p)
	}
	p, err = Parse("transient=0.1,corrupt=0.05,timeout=5e6")
	if err != nil {
		t.Fatal(err)
	}
	if p.Transient != 0.1 || p.Corrupt != 0.05 || p.TimeoutNS != 5e6 {
		t.Errorf("pair spec lost values: %+v", p)
	}
	if p.MaxRetries != 4 || p.BackoffNS != 1e6 {
		t.Errorf("defaults not filled: %+v", p)
	}
	if p, err = Parse("retries=64"); err != nil || p.MaxRetries != 64 {
		t.Errorf("Parse(retries=64) = %+v, %v; want the cap accepted", p, err)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"transient", "transient=x", "nope=1", "transient=-0.1",
		"corrupt=1.5", "transient=0.7,hang=0.7",
		"transient=NaN", "hang=nan", "backoff=Inf", "cap=+Inf", "timeout=infinity",
		"retries=65", "retries=9223372036854775807",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should fail", spec)
		}
	}
}

func TestProfileStringRoundTrip(t *testing.T) {
	orig := &Profile{Seed: 7, Transient: 0.03, Hang: 0.01, Corrupt: 0.02, Dropout: 1, MaxRetries: 3}
	orig.Fill()
	back, err := Parse(orig.String())
	if err != nil {
		t.Fatal(err)
	}
	if *back != *orig {
		t.Errorf("round trip: %+v -> %+v", orig, back)
	}
}

func TestNoiseFactorsMatchLegacyStream(t *testing.T) {
	// Attempt 0 must be a pure function of the key; retries differ.
	a := NoiseFactors("42|M4000|bfs-wl|usa.ny|baseline", 0, 3, 0.05)
	b := NoiseFactors("42|M4000|bfs-wl|usa.ny|baseline", 0, 3, 0.05)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("noise stream not deterministic")
	}
	r := NoiseFactors("42|M4000|bfs-wl|usa.ny|baseline", 1, 3, 0.05)
	if reflect.DeepEqual(a, r) {
		t.Fatal("retry stream must differ from first attempt")
	}
	for _, f := range a {
		if f <= 0 || math.Abs(math.Log(f)) > 0.05*6 {
			t.Errorf("implausible noise factor %v", f)
		}
	}
}

func TestMeasureCellCleanUnderZeroRates(t *testing.T) {
	in := NewInjector(Profile{Seed: 1}, []string{"A", "B"}, 100)
	res := in.MeasureCell("k", 3, 0.05)
	if res.Failed != None || res.Attempts != 1 || res.Quarantined != 0 || res.WaitNS != 0 {
		t.Fatalf("zero-rate profile injected something: %+v", res)
	}
	want := NoiseFactors("k", 0, 3, 0.05)
	if !reflect.DeepEqual(res.Factors, want) {
		t.Fatalf("zero-rate factors %v != clean stream %v", res.Factors, want)
	}
}

func TestMeasureCellDeterministic(t *testing.T) {
	p := Profile{Seed: 3, Transient: 0.2, Hang: 0.1, Corrupt: 0.3}
	a := NewInjector(p, []string{"A"}, 10)
	b := NewInjector(p, []string{"A"}, 10)
	for _, key := range []string{"cell-1", "cell-2", "cell-3", "cell-4"} {
		ra, rb := a.MeasureCell(key, 3, 0.05), b.MeasureCell(key, 3, 0.05)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("%s: %+v != %+v", key, ra, rb)
		}
	}
}

func TestMeasureCellRetriesAndFails(t *testing.T) {
	// With certain launch failure every attempt fails; retries exhaust.
	p := Profile{Seed: 5, Transient: 1, MaxRetries: 3}
	in := NewInjector(p, []string{"A"}, 10)
	res := in.MeasureCell("doomed", 3, 0.05)
	if res.Failed != Transient {
		t.Fatalf("Failed = %v, want transient", res.Failed)
	}
	if res.Attempts != 4 {
		t.Errorf("Attempts = %d, want 4 (1 + 3 retries)", res.Attempts)
	}
	if res.Factors != nil {
		t.Errorf("failed cell returned factors %v", res.Factors)
	}
	if res.WaitNS <= 0 {
		t.Error("retries must accumulate virtual backoff time")
	}
}

func TestMeasureCellHangCostsTimeout(t *testing.T) {
	p := Profile{Seed: 5, Hang: 1, MaxRetries: 2, TimeoutNS: 7e6}
	in := NewInjector(p, []string{"A"}, 10)
	res := in.MeasureCell("hung", 3, 0.05)
	if res.Failed != Hang {
		t.Fatalf("Failed = %v, want hang", res.Failed)
	}
	if res.WaitNS < 3*7e6 {
		t.Errorf("WaitNS = %v, want at least 3 deadlines", res.WaitNS)
	}
}

func TestMeasureCellQuarantinesCorruption(t *testing.T) {
	// Corruption over many cells: quarantined samples must show up, and
	// nearly all surviving factors stay within the genuine noise
	// envelope. Median-based rejection has a 50% breakdown point, so a
	// cell whose samples are majority-corrupted (rare at realistic
	// rates) can keep bad values - tolerate a small poisoned fraction.
	p := Profile{Seed: 11, Corrupt: 0.1}
	in := NewInjector(p, []string{"A"}, 10)
	quarantined, cells, poisoned := 0, 0, 0
	for i := 0; i < 400; i++ {
		res := in.MeasureCell(keyN(i), 3, 0.05)
		if res.Failed != None {
			continue
		}
		cells++
		quarantined += res.Quarantined
		for _, f := range res.Factors {
			if f > 1.5 || f < 0.5 {
				poisoned++
				break
			}
		}
	}
	if quarantined == 0 {
		t.Fatal("10% corruption quarantined nothing across 400 cells")
	}
	if cells == 0 {
		t.Fatal("every cell failed")
	}
	if frac := float64(poisoned) / float64(cells); frac > 0.05 {
		t.Errorf("%.1f%% of cells kept corrupted factors, want <= 5%%", frac*100)
	}
}

func keyN(i int) string {
	return "cell-" + strings.Repeat("x", i%7) + string(rune('a'+i%26))
}

func TestDropoutPlanDeterministicAndSpanning(t *testing.T) {
	chips := []string{"A", "B", "C"}
	p := Profile{Seed: 21, Dropout: 1}
	a := NewInjector(p, chips, 50)
	b := NewInjector(p, chips, 50)
	chipA, fromA, okA := a.DropoutPlan()
	chipB, fromB, okB := b.DropoutPlan()
	if !okA || !okB || chipA != chipB || fromA != fromB {
		t.Fatalf("dropout plan not deterministic: (%s,%d,%v) vs (%s,%d,%v)",
			chipA, fromA, okA, chipB, fromB, okB)
	}
	if fromA < 0 || fromA >= 50 {
		t.Fatalf("dropout start %d outside chip span", fromA)
	}
	// Every cell from the start index onward is dead, none before it,
	// and other chips are untouched.
	for i := 0; i < 50; i++ {
		if got := a.Dropped(chipA, i); got != (i >= fromA) {
			t.Errorf("Dropped(%s, %d) = %v", chipA, i, got)
		}
	}
	for _, c := range chips {
		if c == chipA {
			continue
		}
		if a.Dropped(c, 0) || a.Dropped(c, 49) {
			t.Errorf("chip %s wrongly dropped", c)
		}
	}
}

func TestDropoutRateZeroNeverFires(t *testing.T) {
	in := NewInjector(Profile{Seed: 21, Transient: 0.5}, []string{"A"}, 50)
	if _, _, ok := in.DropoutPlan(); ok {
		t.Error("dropout fired with rate 0")
	}
}

func TestFaultRatesApproximatelyHonoured(t *testing.T) {
	// Across many cells, the fraction whose first attempt faulted
	// (Attempts > 1) must sit near transient+hang (binomial, n=2000).
	p := Profile{Seed: 33, Transient: 0.1, Hang: 0.05}
	in := NewInjector(p, []string{"A"}, 10)
	retried := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if res := in.MeasureCell(keyN(i)+"-rate", 3, 0.05); res.Attempts > 1 {
			retried++
		}
	}
	got := float64(retried) / n
	if got < 0.10 || got > 0.20 {
		t.Errorf("observed launch-fault rate %.3f, want ~0.15", got)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		None: "none", Transient: "transient", Hang: "hang",
		Corrupt: "corrupt", Dropout: "chip-dropout",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
