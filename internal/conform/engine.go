package conform

import (
	"fmt"

	"gpuport/internal/chip"
	"gpuport/internal/cost"
	"gpuport/internal/cost/columnar"
	"gpuport/internal/irgl"
	"gpuport/internal/opt"
	"gpuport/internal/stats"
)

// engine selects which cost-model implementation a property evaluates:
// the reference walk (internal/cost) or the columnar replay
// (internal/cost/columnar). Every engine-scoped property in the
// registry is instantiated once per engine, so a columnar regression
// trips the same named invariant as a reference one would - and the
// differential property below pins the two to the same bits.
type engine int

const (
	refEngine engine = iota
	colEngine
)

// profile carries one trace in both engine representations; the
// columnar form is built on first use so reference-engine properties
// never pay for it.
type profile struct {
	tr   *irgl.Trace
	tp   *cost.TraceProfile
	cols *columnar.Columns
}

func newProfile(tr *irgl.Trace) *profile {
	return &profile{tr: tr, tp: cost.NewTraceProfile(tr)}
}

func (p *profile) columns() *columnar.Columns {
	if p.cols == nil {
		p.cols = columnar.Build(p.tr)
	}
	return p.cols
}

// est evaluates the trace on ch under cfg through the engine.
func (e engine) est(ch chip.Chip, cfg opt.Config, p *profile) float64 {
	if e == colEngine {
		return columnar.Estimate(ch, cfg, p.columns())
	}
	return cost.Estimate(ch, cfg, p.tp)
}

// diffShrinkBudget caps re-evaluations of the full chip x config grid
// while shrinking a differential counterexample.
const diffShrinkBudget = 400

// checkEngineDifferential cross-validates the reference and columnar
// engines: every generated trace must produce bit-identical model times
// on every chip under every one of the 96 configurations, with sweeps
// reusing one evaluator per chip exactly as measure does. A mismatch is
// shrunk to a minimal trace before reporting. The engine parameter is
// ignored - this property is inherently about both.
func checkEngineDifferential(_ engine, r *stats.RNG, trials int) error {
	for t := 0; t < trials; t++ {
		var tr *irgl.Trace
		switch t % 4 {
		case 0:
			tr = randTrace(r)
		case 1:
			tr = launchHeavyTrace(r)
		case 2:
			tr = pushHeavyTrace(r)
		default:
			tr = divergenceTrace(r)
		}
		err := diffTrace(tr)
		if err == nil {
			continue
		}
		budget := diffShrinkBudget
		shrunk := shrinkDiffTrace(tr, func(c *irgl.Trace) bool {
			budget--
			return budget >= 0 && diffTrace(c) != nil
		})
		return fmt.Errorf("trial %d (%s): %v\nshrunk to %d launches, %d loops: %v",
			t, tr.App, err, len(shrunk.Launches), len(shrunk.Loops), diffTrace(shrunk))
	}
	return nil
}

// diffTrace compares the engines over every chip and configuration,
// returning an error naming the first bit-level mismatch (hex floats,
// so one-ulp differences are visible).
func diffTrace(tr *irgl.Trace) error {
	tp := cost.NewTraceProfile(tr)
	cols := columnar.Build(tr)
	for _, ch := range chip.All() {
		ev := columnar.NewEvaluator(ch, cols)
		for _, cfg := range opt.All() {
			ref := cost.Estimate(ch, cfg, tp)
			got := ev.Estimate(cfg)
			if got != ref {
				return fmt.Errorf("engines disagree on %s under %s: columnar %x != reference %x (delta %g)",
					ch.Name, cfg, got, ref, got-ref)
			}
		}
	}
	return nil
}

// shrinkDiffTrace greedily minimises a trace while failing(trace) stays
// true: drop launches, drop loops, then zero out per-launch counters,
// iterating to a fixpoint. The predicate owns its own evaluation
// budget; when the budget runs out every probe reports false and the
// shrink stops where it stands.
func shrinkDiffTrace(tr *irgl.Trace, failing func(*irgl.Trace) bool) *irgl.Trace {
	cur := cloneTrace(tr)
	for {
		changed := false
		for i := 0; i < len(cur.Launches); {
			cand := cloneTrace(cur)
			cand.Launches = append(cand.Launches[:i], cand.Launches[i+1:]...)
			if failing(cand) {
				cur, changed = cand, true
			} else {
				i++
			}
		}
		for i := 0; i < len(cur.Loops); {
			cand := cloneTrace(cur)
			cand.Loops = append(cand.Loops[:i], cand.Loops[i+1:]...)
			if failing(cand) {
				cur, changed = cand, true
			} else {
				i++
			}
		}
		for i := range cur.Launches {
			for f := 0; f < 4; f++ {
				cand := cloneTrace(cur)
				ks := &cand.Launches[i]
				switch f {
				case 0:
					ks.AtomicPushes = 0
				case 1:
					ks.AtomicRMWs = 0
				case 2:
					ks.RandomAccesses = 0
				default:
					ks.LoopID = -1
				}
				if *ks == cur.Launches[i] {
					continue // field already trivial
				}
				if failing(cand) {
					cur, changed = cand, true
				}
			}
		}
		if !changed {
			return cur
		}
	}
}

func cloneTrace(tr *irgl.Trace) *irgl.Trace {
	return &irgl.Trace{
		App:      tr.App,
		Input:    tr.Input,
		Launches: append([]irgl.KernelStats{}, tr.Launches...),
		Loops:    append([]irgl.LoopStats{}, tr.Loops...),
	}
}
