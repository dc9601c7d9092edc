package measure

import (
	"gpuport/internal/dataset"
	"gpuport/internal/fault"
)

// CellFailure explains one missing cell of a partial dataset.
type CellFailure struct {
	// Key identifies the missing cell.
	Key dataset.Key
	// Reason is the fault kind that exhausted the failure policy.
	Reason fault.Kind
	// Attempts is the number of launches tried before giving up (0 for
	// a dropped-out cell that was never attempted).
	Attempts int
}

// Report accounts for every cell of a collection run. A fault-free,
// non-resumed sweep reports Measured == Cells and nothing else; under
// fault injection the report is the authoritative record of what the
// dataset is missing and why.
//
// All fault-outcome fields (Attempts, Retried, Quarantined, WaitNS,
// Failures) are bit-identical for a given seed regardless of worker
// count and of whether the run was checkpoint-resumed; only Resumed,
// which records provenance, differs between a fresh and a resumed run.
type Report struct {
	// Cells is the intended sweep size; Measured the cells with data in
	// the returned dataset (including resumed ones).
	Cells, Measured int
	// Resumed counts cells loaded from the checkpoint instead of
	// re-measured.
	Resumed int
	// Retried counts measured cells that needed more than one attempt.
	Retried int
	// Attempts is the total number of simulated launches.
	Attempts int
	// Quarantined counts timing samples rejected by the outlier gate.
	Quarantined int
	// WaitNS is the total virtual time spent on backoffs and hang
	// deadlines across the sweep.
	WaitNS float64
	// Failures lists every missing cell with its reason, in canonical
	// sweep order.
	Failures []CellFailure
	// FailuresByKind aggregates Failures per fault kind.
	FailuresByKind map[fault.Kind]int
	// Profile is the (default-filled) fault profile the sweep ran
	// under; nil when fault injection was disabled.
	Profile *fault.Profile
	// DropoutChip / DropoutFrom record the scheduled whole-chip
	// dropout ("" when none fired).
	DropoutChip string
	DropoutFrom int
	// CheckpointError is non-empty when shard persistence failed; the
	// sweep itself still completed.
	CheckpointError string
}

// Coverage returns the fraction of intended cells that were measured.
func (r *Report) Coverage() float64 {
	if r == nil || r.Cells == 0 {
		return 1
	}
	return float64(r.Measured) / float64(r.Cells)
}

// Complete reports whether every intended cell was measured.
func (r *Report) Complete() bool { return r == nil || r.Measured == r.Cells }

// Eventful reports whether the run has anything beyond a clean
// full-coverage sweep to tell: faults enabled, failures, retries,
// quarantines, resumed cells, or checkpoint trouble.
func (r *Report) Eventful() bool {
	if r == nil {
		return false
	}
	return r.Profile != nil || len(r.Failures) > 0 || r.Retried > 0 ||
		r.Quarantined > 0 || r.Resumed > 0 || r.CheckpointError != ""
}
