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
		At:           func(lane, round int) Access { return Access{Addr: -1} },
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
			At:           func(lane, round int) Access { return Access{Addr: int64(lane)} },
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
				return Access{Addr: int64(round*32 + lane%32)}
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

// refRun is the simulator without workgroup classes, kept as the
// reference for Run: it simulates every workgroup of a kernel whose At
// takes global lanes. A round's atomics are
// charged in first-touch order, as in Run, and each product is rounded
// by an explicit float64 conversion before it is added: the Go spec
// lets a compiler fuse x*y+z into one multiply-add unless a conversion
// forces the rounding, and Run's recorded addends are rounded products.
func refRun(d *Device, k Kernel) Result {
	wg := d.WorkgroupSize
	if wg <= 0 {
		wg = 128
	}
	if wg > d.Chip.MaxWorkgroup {
		wg = d.Chip.MaxWorkgroup
	}
	sg := d.Chip.SubgroupSize
	if sg < 1 {
		sg = 1
	}
	if sg > wg {
		sg = wg
	}
	var res Result

	numWGs := (k.Items + wg - 1) / wg
	combineFactor := 1.0
	if k.CombineAtomics || d.Chip.JITCombinesAtomics {
		if f := float64(sg) * d.Chip.CombineEfficiency; f > 1 {
			combineFactor = f
		}
	}

	var atomicAddrs []atomicCount
	var buf [2 * lruStackLines]int64
	cache := newLRU(d.Chip.CacheLinesPerCU, buf[:])

	for wgID := 0; wgID < numWGs; wgID++ {
		base := wgID * wg
		lanesInWG := k.Items - base
		if lanesInWG > wg {
			lanesInWG = wg
		}
		subgroups := (lanesInWG + sg - 1) / sg
		cache.reset()

		maxDrift := 0
		if k.BarrierEvery == 0 {
			for s := 0; s < subgroups; s++ {
				if dr := d.driftOf(s, k.Rounds); dr > maxDrift {
					maxDrift = dr
				}
			}
		}
		physRounds := k.Rounds + maxDrift

		for pr := 0; pr < physRounds; pr++ {
			atomicAddrs = atomicAddrs[:0]
			for s := 0; s < subgroups; s++ {
				drift := 0
				if k.BarrierEvery == 0 {
					drift = d.driftOf(s, k.Rounds)
				}
				logical := pr - drift
				if logical < 0 || logical >= k.Rounds {
					continue
				}
				laneLo := s * sg
				laneHi := laneLo + sg
				if laneHi > lanesInWG {
					laneHi = lanesInWG
				}
				for l := laneLo; l < laneHi; l++ {
					acc := k.At(base+l, logical)
					if acc.Addr < 0 {
						continue
					}
					if acc.Atomic {
						i := 0
						for i < len(atomicAddrs) && atomicAddrs[i].addr != acc.Addr {
							i++
						}
						if i == len(atomicAddrs) {
							atomicAddrs = append(atomicAddrs, atomicCount{addr: acc.Addr})
						}
						atomicAddrs[i].count++
						continue
					}
					line := acc.Addr * ElemBytes / LineBytes
					if cache.touch(line) {
						res.Hits++
						res.TimeNS += d.Chip.LocalMemNS
					} else {
						res.Misses++
						res.TimeNS += d.Chip.LineFetchNS
					}
				}
			}

			for _, a := range atomicAddrs {
				count := a.count
				groups := int(float64(count)/combineFactor + 0.9999)
				if groups < 1 {
					groups = 1
				}
				if groups >= count {
					groups = count
				}
				res.Atomics += int64(groups)
				res.CombinedAtomics += int64(count - groups)
				res.TimeNS += float64(float64(groups) * d.Chip.AtomicNS)
				if k.CombineAtomics && combineFactor > 1 {
					res.TimeNS += float64(float64(count) * d.Chip.LocalMemNS * stagingCostFactor)
					sgCount := (count + sg - 1) / sg
					res.TimeNS += float64(float64(2*sgCount) * d.Chip.SubgroupBarrierNS)
				}
			}

			if k.BarrierEvery > 0 && (pr+1)%k.BarrierEvery == 0 {
				res.Barriers++
				res.TimeNS += d.Chip.WorkgroupBarrierNS
			}
		}
	}

	parallel := numWGs
	if parallel > d.Chip.CUs {
		parallel = d.Chip.CUs
	}
	if parallel > 1 {
		res.TimeNS /= float64(parallel)
	}
	return res
}

// globalLanes rewrites a kernel for refRun: global lane n is local lane
// n%wg.
func globalLanes(k Kernel, wg int) Kernel {
	at := k.At
	k.At = func(lane, round int) Access { return at(lane%wg, round) }
	return k
}

// randomKernel draws a kernel whose At reads a random table over
// workgroup lanes [0, wg) and rounds: idle rounds, plain accesses over
// a few more lines than any chip caches, and atomics on a handful of
// addresses. Items often leave a partial last workgroup.
func randomKernel(r *stats.RNG, wg int) Kernel {
	rounds := r.Intn(7)
	table := make([]Access, wg*rounds)
	span := 1 + r.Intn(200)
	atomicAddrs := 1 + r.Intn(4)
	idle, atomic := r.Float64()/3, r.Float64()/2
	for i := range table {
		switch x := r.Float64(); {
		case x < idle:
			table[i] = Access{Addr: -1}
		case x < idle+atomic:
			table[i] = Access{Addr: int64(r.Intn(atomicAddrs)), Atomic: true}
		default:
			table[i] = Access{Addr: int64(r.Intn(span))}
		}
	}
	return Kernel{
		Name:           "random",
		Items:          1 + r.Intn(wg*(1+2048/wg)),
		Rounds:         rounds,
		At:             func(lane, round int) Access { return table[lane*rounds+round] },
		BarrierEvery:   r.Intn(4),
		CombineAtomics: r.Intn(2) == 0,
	}
}

// TestRunMatchesReference is the differential check on workgroup
// classes: on every chip and workgroup size, random kernels must give
// the same Result as refRun simulating every workgroup, every float
// field bit-identical. Rounds that touch several atomic addresses pin
// the first-touch charging order.
func TestRunMatchesReference(t *testing.T) {
	r := stats.NewRNG(21)
	for _, ch := range chip.All() {
		for _, size := range []int{0, 16, 32, 64, 128, 256} {
			d := &Device{Chip: ch, WorkgroupSize: size}
			wg := size
			if wg == 0 {
				wg = 128
			}
			wg = min(wg, ch.MaxWorkgroup)
			for trial := 0; trial < 100; trial++ {
				k := randomKernel(r, wg)
				got, want := d.Run(k), refRun(d, globalLanes(k, wg))
				if got != want {
					t.Fatalf("%s wg=%d trial %d (items %d, rounds %d, barrier every %d, combine %v):\n got %+v\nwant %+v",
						ch.Name, size, trial, k.Items, k.Rounds, k.BarrierEvery, k.CombineAtomics, got, want)
				}
			}
		}
	}
}

// TestAtCalledOncePerClass pins the optimisation as an exact count:
// Run calls At for one full workgroup and the partial last one, not
// for every workgroup.
func TestAtCalledOncePerClass(t *testing.T) {
	d := &Device{Chip: mustChip(t, chip.MALI)}
	calls := 0
	k := Kernel{
		Name:   "mdivg-shaped",
		Rounds: 64,
		At: func(lane, round int) Access {
			calls++
			return Access{Addr: int64(round*32 + lane%32)}
		},
	}
	for _, tc := range []struct {
		name        string
		items, want int
	}{
		{"128 full workgroups", 128 * 128, 128 * 64},
		{"20 full and a 5-lane tail", 20*128 + 5, 128*64 + 5*64},
		{"a 5-lane tail alone", 5, 5 * 64},
	} {
		calls = 0
		k.Items = tc.items
		d.Run(k)
		if calls != tc.want {
			t.Errorf("%s: At called %d times, want %d", tc.name, calls, tc.want)
		}
	}
}
