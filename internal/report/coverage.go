package report

import (
	"io"

	"gpuport/internal/dataset"
	"gpuport/internal/fault"
	"gpuport/internal/measure"
)

// Coverage renders the collection report's accounting: how much of the
// intended sweep was measured and, for a partial dataset, exactly what
// is missing and why. Every analysis printed next to this block is to
// be read as "over the covered cells". A nil report renders nothing.
func Coverage(w io.Writer, rep *measure.Report) error {
	if rep == nil {
		return nil
	}
	p := &printer{w: w}
	p.f("coverage: %d/%d cells measured (%.1f%%)",
		rep.Measured, rep.Cells, rep.Coverage()*100)
	if rep.Resumed > 0 {
		p.f(", %d resumed from checkpoint", rep.Resumed)
	}
	p.ln()
	if rep.CheckpointError != "" {
		p.f("warning: checkpointing failed (%s); this run is not resumable\n", rep.CheckpointError)
	}
	if rep.Complete() {
		return p.err
	}
	t := NewTable("Missing cells by failure kind", "Failure", "Cells", "Share").
		RightAlign(1, 2)
	missing := rep.Cells - rep.Measured
	for _, k := range fault.SortKinds(rep.FailuresByKind) {
		n := rep.FailuresByKind[k]
		t.Row(k.String(), n, F(float64(n)/float64(missing)*100, 1)+"%")
	}
	p.do(t.Render(w))
	if rep.DropoutChip != "" {
		p.f("chip %s dropped out at cell %d; all its later cells are missing\n",
			rep.DropoutChip, rep.DropoutFrom)
	}
	return p.err
}

// FaultSummary renders the fault-injection campaign: the profile the
// sweep ran under and what the self-healing machinery absorbed. A
// report without fault injection renders nothing.
func FaultSummary(w io.Writer, rep *measure.Report) error {
	if rep == nil || rep.Profile == nil {
		return nil
	}
	p := &printer{w: w}
	p.f("fault profile: %s\n", rep.Profile.String())
	t := NewTable("Fault-injection campaign", "Event", "Count").RightAlign(1)
	t.Row("launch attempts", rep.Attempts)
	t.Row("cells healed by retry", rep.Retried)
	t.Row("samples quarantined", rep.Quarantined)
	t.Row("cells lost", len(rep.Failures))
	p.do(t.Render(w))
	if rep.WaitNS > 0 {
		p.f("virtual time on backoffs and deadlines: %.2f ms\n", rep.WaitNS/1e6)
	}
	return p.err
}

// PartialTuples lists the tuples whose configuration grids have holes,
// with per-tuple coverage - the per-tuple view of a degraded dataset.
// Fully covered datasets render nothing.
func PartialTuples(w io.Writer, d *dataset.Dataset) error {
	var t *Table
	for _, tp := range d.Tuples() {
		c := d.TupleCoverage(tp)
		if c >= 1 {
			continue
		}
		if t == nil {
			t = NewTable("Partially covered tuples", "Tuple", "Coverage", "bar").
				RightAlign(1)
		}
		t.Row(tp.String(), F(c*100, 1)+"%", Bar(c, 20))
	}
	if t != nil {
		return t.Render(w)
	}
	return nil
}
