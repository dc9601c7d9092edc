package ocl

import (
	"testing"

	"gpuport/internal/chip"
	"gpuport/internal/stats"
)

func mustChip(t *testing.T, name string) chip.Chip {
	t.Helper()
	c, err := chip.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLRUBasics(t *testing.T) {
	c := newLRU(2, nil)
	if c.touch(1) {
		t.Error("first touch should miss")
	}
	if !c.touch(1) {
		t.Error("second touch should hit")
	}
	c.touch(2)
	c.touch(3) // evicts 1 (least recently used)
	if c.touch(1) {
		t.Error("evicted line should miss")
	}
	if !c.touch(3) {
		t.Error("line 3 should still be cached")
	}
}

func TestLRUMinCapacity(t *testing.T) {
	c := newLRU(0, nil) // clamped to 1
	c.touch(5)
	if !c.touch(5) {
		t.Error("single-slot cache should hold the last line")
	}
	c.touch(6)
	if c.touch(5) {
		t.Error("single-slot cache should have evicted 5")
	}
}

// mapLRU is the map-backed exact LRU the slice cache replaced; it is
// the reference for TestLRUMatchesMapReference.
type mapLRU struct {
	cap   int
	tick  int64
	lines map[int64]int64 // line -> last use tick
}

func (c *mapLRU) touch(line int64) bool {
	c.tick++
	if _, ok := c.lines[line]; ok {
		c.lines[line] = c.tick
		return true
	}
	if len(c.lines) >= c.cap {
		var oldest int64
		var oldestTick int64 = 1 << 62
		for l, t := range c.lines {
			if t < oldestTick {
				oldest, oldestTick = l, t
			}
		}
		delete(c.lines, oldest)
	}
	c.lines[line] = c.tick
	return false
}

// TestLRUMatchesMapReference replays random line streams at capacities
// 1 to 8 through the slice cache and the map reference, requiring the
// same hit/miss sequence; a reset between streams must leave no trace.
// A cache past the stack buffer's capacity allocates its own.
func TestLRUMatchesMapReference(t *testing.T) {
	r := stats.NewRNG(5)
	var buf [2 * lruStackLines]int64
	for capacity := 1; capacity <= lruStackLines+2; capacity++ {
		c := newLRU(capacity, buf[:])
		for stream := 0; stream < 20; stream++ {
			c.reset()
			ref := &mapLRU{cap: capacity, lines: map[int64]int64{}}
			span := 1 + r.Intn(3*capacity) // distinct lines in play
			for step := 0; step < 400; step++ {
				line := int64(r.Intn(span))
				if got, want := c.touch(line), ref.touch(line); got != want {
					t.Fatalf("cap %d stream %d step %d line %d: hit=%v, reference %v", capacity, stream, step, line, got, want)
				}
			}
		}
	}
}

func TestCoalescedAccessesShareLines(t *testing.T) {
	// 128 lanes reading 128 consecutive int32s touch 8 cache lines.
	d := &Device{Chip: mustChip(t, chip.GTX1080)}
	k := Kernel{
		Name:         "coalesced",
		Items:        128,
		Rounds:       1,
		At:           func(lane, round int) Access { return Access{Addr: int64(lane)} },
		BarrierEvery: 1,
	}
	res := d.Run(k)
	if res.Misses != 8 {
		t.Errorf("misses = %d, want 8 (128 x 4B / 64B lines)", res.Misses)
	}
	if res.Hits != 120 {
		t.Errorf("hits = %d, want 120", res.Hits)
	}
}

func TestScatteredAccessesMissMore(t *testing.T) {
	d := &Device{Chip: mustChip(t, chip.GTX1080)}
	scattered := Kernel{
		Name:   "scattered",
		Items:  128,
		Rounds: 1,
		At: func(lane, round int) Access {
			return Access{Addr: int64(lane) * 1000}
		},
		BarrierEvery: 1,
	}
	res := d.Run(scattered)
	if res.Misses != 128 {
		t.Errorf("scattered misses = %d, want 128", res.Misses)
	}
}

func TestAtomicCombining(t *testing.T) {
	// Same-address atomics from every lane.
	k := Kernel{
		Name:   "atomics",
		Items:  256,
		Rounds: 1,
		At:     func(lane, round int) Access { return Access{Addr: 0, Atomic: true} },
	}
	// R9 (no JIT combining): explicit combining cuts atomics hugely.
	r9 := &Device{Chip: mustChip(t, chip.R9)}
	plain := r9.Run(k)
	kc := k
	kc.CombineAtomics = true
	combined := r9.Run(kc)
	if plain.Atomics != 256 {
		t.Errorf("plain atomics = %d, want 256", plain.Atomics)
	}
	if combined.Atomics >= plain.Atomics/4 {
		t.Errorf("combined atomics = %d, want far fewer than %d", combined.Atomics, plain.Atomics)
	}
	if combined.CombinedAtomics+combined.Atomics != 256 {
		t.Errorf("combined+issued = %d, want 256", combined.CombinedAtomics+combined.Atomics)
	}
	if combined.TimeNS >= plain.TimeNS {
		t.Errorf("combining should be faster on R9: %v vs %v", combined.TimeNS, plain.TimeNS)
	}
}

func TestJITCombinesWithoutAsking(t *testing.T) {
	k := Kernel{
		Name:   "atomics",
		Items:  256,
		Rounds: 1,
		At:     func(lane, round int) Access { return Access{Addr: 0, Atomic: true} },
	}
	gtx := &Device{Chip: mustChip(t, chip.GTX1080)}
	res := gtx.Run(k)
	if res.Atomics >= 256 {
		t.Errorf("Nvidia JIT should combine: %d atomics issued", res.Atomics)
	}
}

func TestMALICombiningDegenerates(t *testing.T) {
	// Subgroup size 1: combining cannot elide anything.
	k := Kernel{
		Name:           "atomics",
		Items:          128,
		Rounds:         1,
		At:             func(lane, round int) Access { return Access{Addr: 0, Atomic: true} },
		CombineAtomics: true,
	}
	mali := &Device{Chip: mustChip(t, chip.MALI)}
	res := mali.Run(k)
	if res.Atomics != 128 || res.CombinedAtomics != 0 {
		t.Errorf("MALI combining should degenerate: issued %d, combined %d", res.Atomics, res.CombinedAtomics)
	}
}

func TestBarrierCountAndCost(t *testing.T) {
	ch := mustChip(t, chip.M4000)
	d := &Device{Chip: ch}
	k := Kernel{
		Name:         "barriers",
		Items:        128,
		Rounds:       10,
		At:           func(lane, round int) Access { return NoAccess },
		BarrierEvery: 1,
	}
	res := d.Run(k)
	if res.Barriers != 10 {
		t.Errorf("barriers = %d, want 10", res.Barriers)
	}
	if res.TimeNS != 10*ch.WorkgroupBarrierNS {
		t.Errorf("time = %v, want %v", res.TimeNS, 10*ch.WorkgroupBarrierNS)
	}
}

func TestDriftExtendsExecution(t *testing.T) {
	// Without barriers, drifted subgroups finish later but every
	// logical access still executes exactly once.
	d := &Device{Chip: mustChip(t, chip.M4000)} // 4 subgroups of 32 at wg=128
	count := 0
	k := Kernel{
		Name:   "drift",
		Items:  128,
		Rounds: 8,
		At: func(lane, round int) Access {
			count++
			return Access{Addr: int64(lane + round*128)}
		},
	}
	res := d.Run(k)
	if count != 128*8 {
		t.Errorf("accesses executed = %d, want %d", count, 128*8)
	}
	if res.Hits+res.Misses != 128*8 {
		t.Errorf("hits+misses = %d, want %d", res.Hits+res.Misses, 128*8)
	}
}

func TestWorkgroupParallelism(t *testing.T) {
	// Doubling workgroups beyond the CU count should increase time;
	// within the CU count it should not (they run concurrently).
	ch := mustChip(t, chip.MALI) // 4 CUs
	d := &Device{Chip: ch}
	mk := func(items int) Kernel {
		return Kernel{
			Name:         "wgs",
			Items:        items,
			Rounds:       4,
			At:           func(lane, round int) Access { return Access{Addr: int64(lane % 128)} },
			BarrierEvery: 1,
		}
	}
	t4 := d.Run(mk(4 * 128)).TimeNS // 4 workgroups = 4 CUs
	t8 := d.Run(mk(8 * 128)).TimeNS // 8 workgroups = 2 waves
	if t8 <= t4*1.5 {
		t.Errorf("oversubscription should slow down: %v vs %v", t8, t4)
	}
}

func TestMALIDivergenceSensitivity(t *testing.T) {
	// The structural heart of Table X m-divg: on MALI the barrier-free
	// variant must thrash while the barriered one stays cache-friendly,
	// and the contrast must far exceed any other chip's.
	strided := func(ch chip.Chip, barrier int) Result {
		d := &Device{Chip: ch}
		return d.Run(Kernel{
			Name:   "mdivg",
			Items:  2048,
			Rounds: 32,
			At: func(lane, round int) Access {
				wg := lane / 128
				return Access{Addr: int64(wg*4096 + round*32 + lane%32)}
			},
			BarrierEvery: barrier,
		})
	}
	ratio := func(name string) float64 {
		ch := mustChip(t, name)
		return strided(ch, 0).TimeNS / strided(ch, 1).TimeNS
	}
	mali := ratio(chip.MALI)
	if mali < 3 {
		t.Errorf("MALI barrier benefit = %v, want >= 3x", mali)
	}
	for _, other := range []string{chip.M4000, chip.GTX1080, chip.HD5500, chip.IRIS, chip.R9} {
		if r := ratio(other); r > mali/2 {
			t.Errorf("%s barrier benefit %v should be far below MALI's %v", other, r, mali)
		}
	}
}
