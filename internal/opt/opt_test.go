package opt

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAllCount(t *testing.T) {
	all := All()
	if len(all) != 96 {
		t.Fatalf("configuration count = %d, want 96", len(all))
	}
	if !all[0].IsBaseline() {
		t.Errorf("first config should be baseline, got %v", all[0])
	}
	if nb := NonBaseline(); len(nb) != 95 {
		t.Errorf("non-baseline count = %d, want 95 (the paper's space)", len(nb))
	}
	seen := map[Config]bool{}
	for _, c := range all {
		if seen[c] {
			t.Errorf("duplicate config %v", c)
		}
		seen[c] = true
	}
}

// TestStringParseRoundTrip checks both of Parse's routes, the name
// table and the flag-list parser, on every config's name.
func TestStringParseRoundTrip(t *testing.T) {
	routes := []struct {
		name  string
		parse func(string) (Config, error)
	}{{"Parse", Parse}, {"parseFlags", parseFlags}}
	for _, c := range All() {
		for _, r := range routes {
			got, err := r.parse(c.String())
			if err != nil {
				t.Fatalf("%s(%q): %v", r.name, c.String(), err)
			}
			if got != c {
				t.Errorf("%s: round trip %q -> %v, want %v", r.name, c.String(), got, c)
			}
		}
	}
	if len(byName) != NumConfigs {
		t.Errorf("name table holds %d names, want %d", len(byName), NumConfigs)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("fg,fg8"); err == nil {
		t.Error("both fg variants should be rejected")
	}
	if _, err := Parse("bogus"); err == nil {
		t.Error("unknown flag should be rejected")
	}
	c, err := Parse("")
	if err != nil || !c.IsBaseline() {
		t.Error("empty string should parse as baseline")
	}
	// Non-canonical spellings miss the name table and still parse.
	c, err = Parse(" sz256, sg")
	if want := (Config{SG: true, SZ256: true}); err != nil || c != want {
		t.Errorf("Parse(\" sz256, sg\") = %v, %v; want %v", c, err, want)
	}
}

func TestBaselineString(t *testing.T) {
	if (Config{}).String() != "baseline" {
		t.Errorf("baseline renders as %q", (Config{}).String())
	}
}

// refString is the reference for Config.String: the enabled flags'
// names joined by commas, or "baseline".
func refString(c Config) string {
	var parts []string
	for _, f := range c.EnabledFlags() {
		parts = append(parts, f.String())
	}
	if len(parts) == 0 {
		return "baseline"
	}
	return strings.Join(parts, ",")
}

// TestStringMatchesJoin holds the name table to the join for every
// config in the space, and the fallback for one outside it.
func TestStringMatchesJoin(t *testing.T) {
	outside := Config{SG: true, FG: FG8 + 1}
	for _, c := range append(All(), outside) {
		if got, want := c.String(), refString(c); got != want {
			t.Errorf("%+v: String %q, joined %q", c, got, want)
		}
	}
}

func TestWithMirrorSetting(t *testing.T) {
	// The Algorithm 1 construction: os with opt enabled vs the mirror
	// with opt disabled must differ only in that flag.
	for _, f := range Flags() {
		for _, c := range SettingsWith(f) {
			mirror := c.With(f, false)
			if mirror.Has(f) {
				t.Fatalf("mirror of %v still has %v", c, f)
			}
			// Re-enabling must restore the original.
			if back := mirror.With(f, true); back != c {
				t.Errorf("with(%v): %v -> %v -> %v", f, c, mirror, back)
			}
		}
	}
}

func TestFGExclusivity(t *testing.T) {
	c := Config{}.With(FlagFG1, true)
	if c.FG != FG1 {
		t.Fatalf("FG = %v", c.FG)
	}
	c = c.With(FlagFG8, true)
	if c.FG != FG8 || c.Has(FlagFG1) {
		t.Errorf("enabling fg8 should displace fg1: %v", c)
	}
	c = c.With(FlagFG1, false)
	if c.FG != FG8 {
		t.Errorf("disabling fg1 should not clear fg8: %v", c)
	}
	c = c.With(FlagFG8, false)
	if c.FG != FGOff {
		t.Errorf("disabling fg8 should clear: %v", c)
	}
}

func TestSettingsWithCounts(t *testing.T) {
	// Each plain binary flag appears in half of the boolean space times
	// all three fg states: 16 * 3 = 48. Each fg variant appears in 32.
	for _, f := range Flags() {
		got := len(SettingsWith(f))
		want := 48
		if f == FlagFG1 || f == FlagFG8 {
			want = 32
		}
		if got != want {
			t.Errorf("SettingsWith(%v) = %d, want %d", f, got, want)
		}
	}
}

func TestWorkgroupSize(t *testing.T) {
	if (Config{}).WorkgroupSize() != 128 {
		t.Error("default workgroup size should be 128")
	}
	if (Config{SZ256: true}).WorkgroupSize() != 256 {
		t.Error("sz256 workgroup size should be 256")
	}
}

func TestFromFlags(t *testing.T) {
	c := FromFlags([]Flag{FlagSG, FlagFG8, FlagOiterGB})
	if !c.SG || c.FG != FG8 || !c.OiterGB || c.CoopCV {
		t.Errorf("FromFlags = %v", c)
	}
	// fg8 wins over fg1 regardless of order.
	a := FromFlags([]Flag{FlagFG1, FlagFG8})
	b := FromFlags([]Flag{FlagFG8, FlagFG1})
	if a.FG != FG8 || b.FG != FG8 {
		t.Errorf("fg conflict resolution: %v / %v", a.FG, b.FG)
	}
}

func TestEnabledFlagsMatchesHas(t *testing.T) {
	f := func(bits uint8, fg uint8) bool {
		c := Config{
			CoopCV:  bits&1 != 0,
			SG:      bits&2 != 0,
			WG:      bits&4 != 0,
			FG:      FG(fg % 3),
			OiterGB: bits&8 != 0,
			SZ256:   bits&16 != 0,
		}
		set := map[Flag]bool{}
		for _, fl := range c.EnabledFlags() {
			set[fl] = true
		}
		for _, fl := range Flags() {
			if c.Has(fl) != set[fl] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlagStringRoundTrip(t *testing.T) {
	for _, f := range Flags() {
		got, err := ParseFlag(f.String())
		if err != nil || got != f {
			t.Errorf("flag %v round trip failed: %v, %v", f, got, err)
		}
	}
	if _, err := ParseFlag("zzz"); err == nil {
		t.Error("unknown flag name should error")
	}
}

// TestConfigIDs: a config's dense ID is its index in All (the baseline
// is 0) and ByID inverts it; a config outside the space (an FG value
// past FG8) has no ID.
func TestConfigIDs(t *testing.T) {
	for i, c := range All() {
		if id, ok := c.ID(); !ok || id != i || ByID(id) != c {
			t.Errorf("%v: ID = %d, %v; want %d", c, id, ok, i)
		}
	}
	for _, tc := range []struct {
		cfg Config
		id  int
		ok  bool
	}{
		{Config{}, 0, true},
		{Config{SG: true}, 5, true},
		{Config{FG: 3}, 0, false},
		{Config{SG: true, FG: 255}, 0, false},
	} {
		if id, ok := tc.cfg.ID(); id != tc.id || ok != tc.ok {
			t.Errorf("%+v: ID = %d, %v; want %d, %v", tc.cfg, id, ok, tc.id, tc.ok)
		}
	}
}

// TestAllReturnsCopies: callers may modify what All and NonBaseline
// return without touching the table.
func TestAllReturnsCopies(t *testing.T) {
	all, nb := All(), NonBaseline()
	all[0], nb[0] = Config{SG: true}, Config{}
	if !All()[0].IsBaseline() || NonBaseline()[0].IsBaseline() {
		t.Fatal("modifying a returned slice changed the configuration table")
	}
}

// TestMirrorsMatchSettingsWith: pair i of a flag's mirror table is
// SettingsWith(f)[i] and its With(f, false) mirror, as IDs.
func TestMirrorsMatchSettingsWith(t *testing.T) {
	for _, f := range Flags() {
		m, settings := MirrorsOf(f), SettingsWith(f)
		if m.Len() != len(settings) {
			t.Fatalf("%v: %d mirror pairs, %d settings", f, m.Len(), len(settings))
		}
		for i, c := range settings {
			if on, off := m.At(i); ByID(on) != c || ByID(off) != c.With(f, false) {
				t.Errorf("%v pair %d = (%v, %v), want (%v, %v)", f, i, ByID(on), ByID(off), c, c.With(f, false))
			}
		}
	}
}
