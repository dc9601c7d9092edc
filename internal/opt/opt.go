// Package opt defines the study's optimisation space (Section V of the
// paper): cooperative conversion (coop-cv), nested parallelism at
// subgroup (sg), workgroup (wg) and fine-grained (fg1 / fg8)
// granularity, iteration outlining via a global barrier (oitergb), and
// the workgroup size switch (sz256).
//
// All optimisations are independent binaries except fg, which is
// three-valued (off / 1 edge / 8 edges per scheduling step), giving
// 2^5 * 3 = 96 configurations: 95 optimisation combinations plus the
// all-off baseline.
package opt

import (
	"fmt"
	"sort"
	"strings"
)

// FG selects the fine-grained nested parallelism granularity.
type FG uint8

const (
	// FGOff disables fine-grained load balancing.
	FGOff FG = iota
	// FG1 processes one edge per scheduling step.
	FG1
	// FG8 processes eight edges per scheduling step.
	FG8
)

// Config is one point in the optimisation space. The zero value is the
// baseline (everything off, workgroup size 128).
type Config struct {
	// CoopCV aggregates worklist push atomics within a subgroup.
	CoopCV bool
	// SG redistributes inner-loop work across the subgroup.
	SG bool
	// WG redistributes inner-loop work across the workgroup.
	WG bool
	// FG linearises the inner iteration space at the given granularity.
	FG FG
	// OiterGB outlines host fixpoint loops onto the device behind a
	// portable global barrier.
	OiterGB bool
	// SZ256 raises the workgroup size from 128 to 256.
	SZ256 bool
}

// WorkgroupSize returns the workgroup size the config selects.
func (c Config) WorkgroupSize() int {
	if c.SZ256 {
		return 256
	}
	return 128
}

// IsBaseline reports whether every optimisation is disabled.
func (c Config) IsBaseline() bool { return c == Config{} }

// Flag identifies one binary optimisation as the analysis sees it: fg1
// and fg8 are separate, mutually exclusive flags (Section III).
type Flag uint8

const (
	FlagCoopCV Flag = iota
	FlagSG
	FlagWG
	FlagFG1
	FlagFG8
	FlagOiterGB
	FlagSZ256
	numFlags
)

// Flags returns all analysis flags in canonical order.
func Flags() []Flag {
	return []Flag{FlagCoopCV, FlagSG, FlagWG, FlagFG1, FlagFG8, FlagOiterGB, FlagSZ256}
}

// String returns the paper's name for the flag.
func (f Flag) String() string {
	switch f {
	case FlagCoopCV:
		return "coop-cv"
	case FlagSG:
		return "sg"
	case FlagWG:
		return "wg"
	case FlagFG1:
		return "fg"
	case FlagFG8:
		return "fg8"
	case FlagOiterGB:
		return "oitergb"
	case FlagSZ256:
		return "sz256"
	default:
		return fmt.Sprintf("flag(%d)", uint8(f))
	}
}

// ParseFlag inverts Flag.String.
func ParseFlag(s string) (Flag, error) {
	for _, f := range Flags() {
		if f.String() == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("opt: unknown flag %q", s)
}

// Has reports whether the config enables the flag.
func (c Config) Has(f Flag) bool {
	switch f {
	case FlagCoopCV:
		return c.CoopCV
	case FlagSG:
		return c.SG
	case FlagWG:
		return c.WG
	case FlagFG1:
		return c.FG == FG1
	case FlagFG8:
		return c.FG == FG8
	case FlagOiterGB:
		return c.OiterGB
	case FlagSZ256:
		return c.SZ256
	default:
		return false
	}
}

// With returns a copy of c with flag f set to enabled. Enabling fg1
// displaces fg8 and vice versa; disabling either sets FG off (the
// "mirror setting" construction of Algorithm 1, line 12).
func (c Config) With(f Flag, enabled bool) Config {
	switch f {
	case FlagCoopCV:
		c.CoopCV = enabled
	case FlagSG:
		c.SG = enabled
	case FlagWG:
		c.WG = enabled
	case FlagFG1:
		if enabled {
			c.FG = FG1
		} else if c.FG == FG1 {
			c.FG = FGOff
		}
	case FlagFG8:
		if enabled {
			c.FG = FG8
		} else if c.FG == FG8 {
			c.FG = FGOff
		}
	case FlagOiterGB:
		c.OiterGB = enabled
	case FlagSZ256:
		c.SZ256 = enabled
	}
	return c
}

// EnabledFlags returns the flags c enables, in canonical order.
func (c Config) EnabledFlags() []Flag {
	var out []Flag
	for _, f := range Flags() {
		if c.Has(f) {
			out = append(out, f)
		}
	}
	return out
}

// FromFlags builds a Config enabling exactly the given flags. If both
// fg1 and fg8 are present, fg8 wins (the coarser granularity is the
// paper's default recommendation when both test positive).
func FromFlags(flags []Flag) Config {
	var c Config
	for _, f := range flags {
		if f == FlagFG1 && c.FG == FG8 {
			continue
		}
		c = c.With(f, true)
	}
	return c
}

// String renders the config as the paper writes it: a comma-separated
// flag list, or "baseline". A config in the space reads its name from
// a table built once; one outside it (an FG value past FG8) is joined
// on every call.
func (c Config) String() string {
	if enc, ok := c.encode(); ok {
		return names[enc]
	}
	return c.join()
}

// join builds the config's name from its enabled flags.
func (c Config) join() string {
	flags := c.EnabledFlags()
	if len(flags) == 0 {
		return "baseline"
	}
	parts := make([]string, len(flags))
	for i, f := range flags {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// Parse inverts String. A name String writes is read from a table;
// any other spelling goes through parseFlags.
func Parse(s string) (Config, error) {
	if c, ok := byName[s]; ok {
		return c, nil
	}
	return parseFlags(s)
}

// parseFlags parses a comma-separated flag list, each flag trimmed of
// spaces, or "baseline" or "" for the baseline.
func parseFlags(s string) (Config, error) {
	if s == "baseline" || s == "" {
		return Config{}, nil
	}
	var c Config
	for _, part := range strings.Split(s, ",") {
		f, err := ParseFlag(strings.TrimSpace(part))
		if err != nil {
			return Config{}, err
		}
		if (f == FlagFG1 && c.FG == FG8) || (f == FlagFG8 && c.FG == FG1) {
			return Config{}, fmt.Errorf("opt: %q enables both fg variants", s)
		}
		c = c.With(f, true)
	}
	return c, nil
}

// NumConfigs is the size of the optimisation space.
const NumConfigs = 96

// The configuration table, built once: table holds the 96 configs in
// All order, so a config's dense ID is its index and the baseline is ID
// 0; ids maps a config's field encoding to its ID; mirrors holds each
// flag's mirror pairs as IDs; names holds each config's String by field
// encoding, and byName inverts it.
var (
	table   = sortedConfigs()
	ids     = indexConfigs()
	mirrors = mirrorPairs()
	names   = configNames()
	byName  = nameIndex()
)

func nameIndex() map[string]Config {
	out := make(map[string]Config, NumConfigs)
	for enc, name := range names {
		out[name] = decode(enc)
	}
	return out
}

func configNames() [NumConfigs]string {
	var out [NumConfigs]string
	for enc := range out {
		out[enc] = decode(enc).join()
	}
	return out
}

// sortedConfigs enumerates the space by field encoding and orders it by
// number of enabled flags, then lexicographically by name.
func sortedConfigs() [NumConfigs]Config {
	var out [NumConfigs]Config
	for enc := range out {
		out[enc] = decode(enc)
	}
	sort.Slice(out[:], func(i, j int) bool {
		ni, nj := len(out[i].EnabledFlags()), len(out[j].EnabledFlags())
		if ni != nj {
			return ni < nj
		}
		return out[i].String() < out[j].String()
	})
	return out
}

func indexConfigs() [NumConfigs]uint8 {
	var out [NumConfigs]uint8
	for id, c := range table {
		enc, _ := c.encode()
		out[enc] = uint8(id)
	}
	return out
}

func mirrorPairs() [numFlags]Mirrors {
	var out [numFlags]Mirrors
	for _, f := range Flags() {
		for id, c := range table {
			if c.Has(f) {
				off, _ := c.With(f, false).ID()
				out[f].on = append(out[f].on, uint8(id))
				out[f].off = append(out[f].off, uint8(off))
			}
		}
	}
	return out
}

// encode packs the config's fields into 0..95: the five binary flags in
// the low bits, FG above them. A config outside the space (an FG value
// past FG8) has no encoding.
func (c Config) encode() (int, bool) {
	if c.FG > FG8 {
		return 0, false
	}
	enc := int(c.FG) << 5
	for bit, on := range [5]bool{c.CoopCV, c.SG, c.WG, c.OiterGB, c.SZ256} {
		if on {
			enc |= 1 << bit
		}
	}
	return enc, true
}

func decode(enc int) Config {
	return Config{
		CoopCV:  enc&1 != 0,
		SG:      enc&2 != 0,
		WG:      enc&4 != 0,
		OiterGB: enc&8 != 0,
		SZ256:   enc&16 != 0,
		FG:      FG(enc >> 5),
	}
}

// ID returns the config's dense ID, its index in All (the baseline is
// 0). A config outside the 96 has no ID.
func (c Config) ID() (int, bool) {
	enc, ok := c.encode()
	if !ok {
		return 0, false
	}
	return int(ids[enc]), true
}

// ByID returns the config with the given dense ID.
func ByID(id int) Config { return table[id] }

// All returns all 96 configurations (baseline first) in a deterministic
// order: by number of enabled flags, then lexicographically by name.
// The slice is a fresh copy.
func All() []Config { return append([]Config(nil), table[:]...) }

// NonBaseline returns the 95 optimisation combinations (IDs 1..95).
func NonBaseline() []Config { return append([]Config(nil), table[1:]...) }

// SettingsWith returns every configuration that enables flag f
// (ALL_OPT_SETTINGS of Algorithm 1, line 11).
func SettingsWith(f Flag) []Config {
	var out []Config
	for _, c := range table {
		if c.Has(f) {
			out = append(out, c)
		}
	}
	return out
}

// Mirrors is one flag's mirror pairs (Algorithm 1, lines 11-12) as
// config IDs, in SettingsWith order: pair i is the i-th config enabling
// the flag and its mirror setting with the flag disabled. The table is
// shared and read-only.
type Mirrors struct{ on, off []uint8 }

// MirrorsOf returns flag f's mirror-pair table.
func MirrorsOf(f Flag) Mirrors { return mirrors[f] }

// Len returns the number of pairs.
func (m Mirrors) Len() int { return len(m.on) }

// At returns pair i: the ID of the config enabling the flag and the ID
// of its mirror.
func (m Mirrors) At(i int) (on, off int) { return int(m.on[i]), int(m.off[i]) }
