package analysis

// This file implements the paper's first future-work item (Section IX):
// "explore whether smaller sample sizes from the test domain could be
// sufficient to yield significant results". SamplingCurve repeatedly
// derives strategies from random subsets of the tests and measures how
// well the subsampled recommendations agree with the full-data ones.

import (
	"gpuport/internal/dataset"
	"gpuport/internal/opt"
	"gpuport/internal/stats"
)

// SamplingPoint summarises subsampled analyses at one sampling rate.
type SamplingPoint struct {
	// Fraction of tests sampled (0 < Fraction <= 1).
	Fraction float64
	// Trials is the number of random subsets evaluated.
	Trials int
	// MeanAgreement is the average fraction of per-partition flag
	// recommendations (enabled/disabled) matching the full-data
	// analysis.
	MeanAgreement float64
	// MinAgreement is the worst trial.
	MinAgreement float64
	// MeanUndecided is the average fraction of decisions that lose
	// confidence (p >= alpha both ways) under subsampling.
	MeanUndecided float64
}

// SamplingCurve runs Algorithm 1 at the given specialisation over
// random test subsets of increasing size and reports agreement with the
// full-data recommendations. Deterministic for a given seed.
func SamplingCurve(d *dataset.Dataset, dims Dims, fractions []float64, trials int, seed uint64) []SamplingPoint {
	tuples := d.Tuples()
	x := newRatioIndex(d, tupleIDs(d, tuples), true)
	fullDec := decisionTable(x.specialise(d, dims, tuples))
	rng := stats.NewRNG(seed)

	var out []SamplingPoint
	for _, frac := range fractions {
		n := int(frac*float64(len(tuples)) + 0.5)
		if n < 1 {
			n = 1
		}
		if n > len(tuples) {
			n = len(tuples)
		}
		pt := SamplingPoint{Fraction: frac, Trials: trials, MinAgreement: 1}
		var sumAgree, sumUndecided float64
		for trial := 0; trial < trials; trial++ {
			perm := rng.Perm(len(tuples))
			subset := make([]dataset.Tuple, n)
			for i := 0; i < n; i++ {
				subset[i] = tuples[perm[i]]
			}
			sub := x.specialise(d, dims, subset)
			agree, undecided := compareDecisions(fullDec, sub)
			sumAgree += agree
			sumUndecided += undecided
			if agree < pt.MinAgreement {
				pt.MinAgreement = agree
			}
		}
		pt.MeanAgreement = sumAgree / float64(trials)
		pt.MeanUndecided = sumUndecided / float64(trials)
		out = append(out, pt)
	}
	return out
}

type decisionKey struct {
	part PartitionKey
	flag opt.Flag
}

func decisionTable(s *Specialisation) map[decisionKey]FlagDecision {
	out := map[decisionKey]FlagDecision{}
	for _, p := range s.Partitions {
		for _, dec := range p.Decisions {
			out[decisionKey{p.Key, dec.Flag}] = dec
		}
	}
	return out
}

// compareDecisions returns the fraction of the full analysis' decisions
// the subsampled analysis reproduces, and the fraction of confident
// full-data decisions the subsample leaves undecided. Matching
// unconfidence counts as agreement (the subsample correctly declined to
// decide); a confident full-data decision the subsample cannot make
// counts as undecided, not as disagreement.
func compareDecisions(full map[decisionKey]FlagDecision, sub *Specialisation) (agree, undecided float64) {
	subDec := decisionTable(sub)
	if len(full) == 0 {
		return 1, 0
	}
	var match, undec float64
	for k, fd := range full {
		sd, ok := subDec[k]
		switch {
		case !fd.Confident:
			// The reference itself declined: agreement means the
			// subsample also declines (or is absent).
			if !ok || !sd.Confident {
				match++
			}
		case !ok || !sd.Confident:
			undec++
		case sd.Enabled == fd.Enabled:
			match++
		}
	}
	n := float64(len(full))
	return match / n, undec / n
}
