// Package fault is a deterministic, seeded fault-injection layer that
// models the failure modes of a real multi-vendor OpenCL measurement
// campaign: transient kernel-launch failures, hung launches caught by a
// deadline, corrupted timing samples, and whole-chip dropouts spanning
// a contiguous run of cells.
//
// Every decision - whether a fault fires, how long a retry backs off,
// how badly a sample is corrupted - is a pure function of the profile
// seed and the cell's identity, never of wall-clock time or goroutine
// scheduling. The same seed therefore yields the same fault schedule
// whether the sweep runs serially, across eight workers, or resumes
// from a checkpoint; the harness exploits this to replay the fault
// outcome of an already-persisted cell without re-measuring it.
//
// Time is simulated: backoff delays and hang deadlines accumulate on a
// per-cell virtual clock (reported, never slept), so fault-injected
// test runs finish in milliseconds.
package fault

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"gpuport/internal/stats"
)

// Kind classifies a fault outcome.
type Kind uint8

const (
	// None means the cell (or attempt) completed cleanly.
	None Kind = iota
	// Transient is a kernel-launch failure that may succeed on retry
	// (lost event, ICD hiccup, spurious CL_OUT_OF_RESOURCES).
	Transient
	// Hang is a launch that never completes; the harness detects it
	// when the virtual deadline expires and retries.
	Hang
	// Corrupt marks timing-sample corruption: an attempt whose samples
	// were all quarantined, or (in reports) a cell lost to it.
	Corrupt
	// Dropout is a whole-chip failure: the device disappears from the
	// platform mid-sweep and every later cell on it fails permanently.
	Dropout
)

// String returns the report name of the kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Transient:
		return "transient"
	case Hang:
		return "hang"
	case Corrupt:
		return "corrupt"
	case Dropout:
		return "chip-dropout"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Quarantine parameters: a sample is rejected when it sits further from
// the cell median than max(QuarantineK * MAD, QuarantineFloor * median).
// Corruption multipliers start at 16x (or 1/16th), far outside the
// <= 1.5x envelope the floor admits for genuine log-normal noise, so
// injected corruption is always caught and clean samples never are.
const (
	QuarantineK     = 8.0
	QuarantineFloor = 0.5
)

// Profile configures the fault model and the harness failure policy.
// The zero value injects nothing; Fill supplies policy defaults.
type Profile struct {
	// Seed drives every fault decision stream.
	Seed uint64

	// Transient is the per-attempt probability of a retryable
	// kernel-launch failure.
	Transient float64
	// Hang is the per-attempt probability of a hung launch (costs
	// TimeoutNS of virtual time before the deadline fires).
	Hang float64
	// Corrupt is the per-sample probability of a corrupted timing.
	Corrupt float64
	// Dropout is the probability that the campaign suffers one
	// whole-chip dropout: a seeded choice of chip and starting cell
	// after which every cell on that chip fails permanently.
	Dropout float64

	// MaxRetries is the number of extra attempts after the first
	// before a cell is abandoned (default 4).
	MaxRetries int
	// BackoffNS is the initial retry backoff on the virtual clock
	// (default 1ms); it doubles per attempt up to BackoffCapNS
	// (default 64ms) with deterministic jitter in [0.5, 1.5).
	BackoffNS    float64
	BackoffCapNS float64
	// TimeoutNS is the hang-detection deadline (default 10ms).
	TimeoutNS float64
}

// Fill applies policy defaults in place and returns the profile.
func (p *Profile) Fill() *Profile {
	if p.MaxRetries == 0 {
		p.MaxRetries = 4
	}
	if p.BackoffNS == 0 {
		p.BackoffNS = 1e6
	}
	if p.BackoffCapNS == 0 {
		p.BackoffCapNS = 64e6
	}
	if p.TimeoutNS == 0 {
		p.TimeoutNS = 10e6
	}
	return p
}

// Active reports whether any fault can fire under the profile.
func (p *Profile) Active() bool {
	return p != nil && (p.Transient > 0 || p.Hang > 0 || p.Corrupt > 0 || p.Dropout > 0)
}

// String renders the profile in the spec syntax Parse accepts.
func (p *Profile) String() string {
	if p == nil {
		return "none"
	}
	q := *p
	q.Fill()
	return fmt.Sprintf("transient=%v,hang=%v,corrupt=%v,dropout=%v,seed=%d,retries=%d,backoff=%g,cap=%g,timeout=%g",
		q.Transient, q.Hang, q.Corrupt, q.Dropout, q.Seed, q.MaxRetries, q.BackoffNS, q.BackoffCapNS, q.TimeoutNS)
}

// Light is the preset modelling a healthy but imperfect campaign:
// occasional launch failures and the odd corrupted sample.
func Light() *Profile {
	return (&Profile{Transient: 0.02, Hang: 0.005, Corrupt: 0.02}).Fill()
}

// Heavy is the preset modelling a hostile campaign: frequent transient
// failures, regular hangs and corruption, and a guaranteed whole-chip
// dropout.
func Heavy() *Profile {
	return (&Profile{Transient: 0.10, Hang: 0.02, Corrupt: 0.05, Dropout: 1}).Fill()
}

// maxRetries caps the retries key. Every attempt appends one trail
// entry, so an unbounded count would let one spec hold a runner and
// grow its memory without limit.
const maxRetries = 64

// Parse reads a fault spec: "none" (or "") for no injection, a preset
// name ("light", "heavy"), or comma-separated key=value pairs
// (transient, hang, corrupt, dropout, seed, retries, backoff, cap,
// timeout). A preset may be followed by overrides: "heavy,seed=9".
// Float values must be finite and non-negative, and retries at most
// 64.
func Parse(spec string) (*Profile, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	p := &Profile{}
	parts := strings.Split(spec, ",")
	switch parts[0] {
	case "light":
		p = Light()
		parts = parts[1:]
	case "heavy":
		p = Heavy()
		parts = parts[1:]
	}
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("fault: bad spec entry %q (want key=value)", part)
		}
		key, val := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		switch key {
		case "seed", "retries":
			n, err := strconv.ParseUint(val, 10, 63)
			if err != nil {
				return nil, fmt.Errorf("fault: %s=%q: %w", key, val, err)
			}
			switch {
			case key == "seed":
				p.Seed = n
			case n > maxRetries:
				return nil, fmt.Errorf("fault: retries must be at most %d, got %d", maxRetries, n)
			default:
				p.MaxRetries = int(n)
			}
		case "transient", "hang", "corrupt", "dropout", "backoff", "cap", "timeout":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: %s=%q: %w", key, val, err)
			}
			if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("fault: %s must be finite and non-negative, got %v", key, f)
			}
			switch key {
			case "transient":
				p.Transient = f
			case "hang":
				p.Hang = f
			case "corrupt":
				p.Corrupt = f
			case "dropout":
				p.Dropout = f
			case "backoff":
				p.BackoffNS = f
			case "cap":
				p.BackoffCapNS = f
			case "timeout":
				p.TimeoutNS = f
			}
		default:
			return nil, fmt.Errorf("fault: unknown spec key %q", key)
		}
	}
	rates := []struct {
		name string
		rate float64
	}{
		{"transient", p.Transient}, {"hang", p.Hang}, {"corrupt", p.Corrupt}, {"dropout", p.Dropout},
	}
	for _, r := range rates {
		if r.rate > 1 {
			return nil, fmt.Errorf("fault: %s rate %v exceeds 1", r.name, r.rate)
		}
	}
	if p.Transient+p.Hang > 1 {
		return nil, fmt.Errorf("fault: transient+hang = %v exceeds 1", p.Transient+p.Hang)
	}
	return p.Fill(), nil
}

// NoiseFactors draws the keyed measurement-noise stream for one cell
// attempt: runs log-normal multipliers around 1.0. Attempt 0 reproduces
// the historical fault-free stream exactly (same key bytes, same RNG),
// so enabling a zero-rate profile changes nothing; retries append a
// retry suffix to decorrelate their draws.
func NoiseFactors(cellKey string, attempt, runs int, sigma float64) []float64 {
	h := fnv.New64a()
	io.WriteString(h, cellKey)
	if attempt > 0 {
		fmt.Fprintf(h, "|retry%d", attempt)
	}
	rng := stats.NewRNG(h.Sum64())
	out := make([]float64, runs)
	for i := range out {
		out[i] = rng.LogNormal(sigma)
	}
	return out
}

// CellResult is the simulated outcome of measuring one cell under the
// failure policy.
type CellResult struct {
	// Factors holds the surviving unit-base noise multipliers (the
	// caller scales them by the modelled runtime); nil when Failed.
	Factors []float64
	// Attempts counts launches tried; 1 means first-try success, 0 a
	// dropped-out cell that was never attempted.
	Attempts int
	// Quarantined counts samples rejected by the outlier gate.
	Quarantined int
	// WaitNS is the virtual time spent on backoffs and hang deadlines.
	WaitNS float64
	// Failed is None on success, else the kind that exhausted retries.
	Failed Kind
	// Trail records the fate of every attempt in order - None for a
	// successful attempt, else the kind that failed it - so observers
	// can reconstruct the retry history. len(Trail) == Attempts (except
	// for never-attempted dropout cells, where both are zero).
	Trail []Kind
}

// Injector evaluates the fault schedule of one campaign. It is
// stateless apart from the precomputed dropout plan and safe for
// concurrent use.
type Injector struct {
	p Profile

	dropChip string
	dropFrom int
}

// NewInjector prepares the fault schedule for a campaign sweeping the
// given chips with cellsPerChip cells each (in canonical sweep order).
// The dropout plan - whether a chip dies, which one, and from which of
// its cells onward - is fixed here from the profile seed alone.
func NewInjector(p Profile, chips []string, cellsPerChip int) *Injector {
	p.Fill()
	in := &Injector{p: p, dropFrom: -1}
	if p.Dropout > 0 && len(chips) > 0 && cellsPerChip > 0 {
		h := fnv.New64a()
		fmt.Fprintf(h, "dropout|%d", p.Seed)
		rng := stats.NewRNG(h.Sum64())
		if rng.Float64() < p.Dropout {
			in.dropChip = chips[rng.Intn(len(chips))]
			in.dropFrom = rng.Intn(cellsPerChip)
		}
	}
	return in
}

// DropoutPlan reports the scheduled whole-chip dropout, if any: the
// chip and the first of its canonical cell indices to fail.
func (in *Injector) DropoutPlan() (chip string, fromCell int, ok bool) {
	return in.dropChip, in.dropFrom, in.dropChip != ""
}

// Dropped reports whether the chip's cellIdx-th cell (canonical sweep
// order within the chip) is killed by the dropout plan.
func (in *Injector) Dropped(chip string, cellIdx int) bool {
	return chip == in.dropChip && cellIdx >= in.dropFrom
}

// attemptRNG keys the fault-decision stream for one cell attempt. It is
// separate from the measurement-noise stream so that fault decisions
// never shift the timings of cells where no fault fires.
func (in *Injector) attemptRNG(cellKey string, attempt int) *stats.RNG {
	h := fnv.New64a()
	fmt.Fprintf(h, "fault|%d|%s|%d", in.p.Seed, cellKey, attempt)
	return stats.NewRNG(h.Sum64())
}

// backoff returns the capped exponential retry delay for the attempt,
// with deterministic jitter drawn from rng.
func (in *Injector) backoff(rng *stats.RNG, attempt int) float64 {
	d := in.p.BackoffNS * math.Pow(2, float64(attempt))
	if d > in.p.BackoffCapNS {
		d = in.p.BackoffCapNS
	}
	return d * (0.5 + rng.Float64())
}

// corruptMultiplier draws the corruption applied to one sample: a
// factor in [16, 512) modelling a reading inflated by a stalled queue,
// inverted with probability 1/4 to model a truncated (too-fast-to-be-
// true) reading.
func corruptMultiplier(rng *stats.RNG) float64 {
	m := 16 * math.Exp(rng.Float64()*math.Log(32))
	if rng.Float64() < 0.25 {
		return 1 / m
	}
	return m
}

// MeasureCell simulates measuring one cell under the failure policy:
// launch (possibly failing or hanging), sample, quarantine outliers,
// and retry with capped exponential backoff until success or
// exhaustion. The result is a pure function of (profile, cellKey, runs,
// sigma) - the checkpoint-resume path calls it to replay the fault
// outcome of persisted cells without re-measuring them.
func (in *Injector) MeasureCell(cellKey string, runs int, sigma float64) CellResult {
	var res CellResult
	for attempt := 0; ; attempt++ {
		res.Attempts++
		frng := in.attemptRNG(cellKey, attempt)
		fate := None
		u := frng.Float64()
		switch {
		case u < in.p.Hang:
			fate = Hang
			res.WaitNS += in.p.TimeoutNS
		case u < in.p.Hang+in.p.Transient:
			fate = Transient
		}
		if fate == None {
			factors := NoiseFactors(cellKey, attempt, runs, sigma)
			quarantined := 0
			if in.p.Corrupt > 0 {
				for i := range factors {
					if frng.Float64() < in.p.Corrupt {
						factors[i] *= corruptMultiplier(frng)
					}
				}
				factors, quarantined = stats.RejectOutliers(factors, QuarantineK, QuarantineFloor)
			}
			if len(factors) > 0 {
				res.Factors = factors
				res.Quarantined = quarantined
				res.Trail = append(res.Trail, None)
				return res
			}
			// Every sample was quarantined: the attempt produced no
			// usable timing, so treat it as a corruption failure.
			fate = Corrupt
		}
		res.Trail = append(res.Trail, fate)
		if attempt >= in.p.MaxRetries {
			res.Failed = fate
			return res
		}
		res.WaitNS += in.backoff(frng, attempt)
	}
}

// SortKinds returns the kinds a report should enumerate, in a fixed
// order, with their display names.
func SortKinds(counts map[Kind]int) []Kind {
	kinds := make([]Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}
