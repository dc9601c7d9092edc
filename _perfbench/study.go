package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"gpuport/internal/cost/columnar"
	"gpuport/internal/dataset"
	"gpuport/internal/graph"
	"gpuport/internal/measure"
	"gpuport/internal/obs"
)

// studyRefSHA42 is the sha256 of the standard study's CSV at seed 42,
// the bytes `gpuport -seed 42 -out d.csv dataset` writes. At any other
// seed the run's first (set-up) study is the reference.
const studyRefSHA42 = "f45bfaabfbc36df6b246ff02663cf24ec2e9852e20545b6fd779fc088eb74d4e"

// runStudy drives the study workload: the full standard study with no
// trace cache - input generation, tracing of every (app, input) pair,
// columnar build, the 29,376-cell sweep, assembly and CSV encoding.
// Set-up runs the study three times; the measured window repeats it.
func runStudy(b *bench) error {
	ref := ""
	if b.seed == 42 {
		ref = studyRefSHA42
	}
	check := func(sum string) {
		switch {
		case ref == "":
			ref = sum
			b.tally.ok()
		case sum == ref:
			b.tally.ok()
		default:
			b.tally.fail("csv-mismatch")
		}
	}
	for i := 0; i < setupReps; i++ {
		err := b.setupRep(func() error {
			out, err := b.studyOnce(b.op("setup", i, false))
			if err == nil {
				check(out.sum)
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("set-up study: %w", err)
		}
	}
	if err := b.startWindow(); err != nil {
		return err
	}
	for i := 0; b.more(i); i++ {
		traced := b.traced && i%2 == 1
		op := b.op("study", i, traced)
		out, err := b.studyOnce(op)
		b.timeOp(op.end()*1e3, traced)
		if err != nil {
			b.tally.fail("error")
			continue
		}
		check(out.sum)
		if traced {
			b.rec.Adopt(out.pipeline, 0, out.collectID)
			b.stageFigures(op, out)
			if err := b.studyProbes(out); err != nil {
				return fmt.Errorf("layer probes: %w", err)
			}
			b.flushOp()
		}
	}
	b.info["reference_sha256"] = ref
	b.info["load"] = "closed loop, one study at a time"
	return b.endWindow()
}

// studyOut is what one study leaves for the correctness check and the
// layer figures.
type studyOut struct {
	sum    string // sha256 of the CSV
	inputs []*graph.Graph
	cells  int
	csv    []byte
	// pipeline is the pipeline recorder's snapshot, adopted under the
	// span collectID of a traced operation.
	pipeline  *obs.Snapshot
	collectID uint64
	// phases are the collection's phases, timed from outside the
	// pipeline.
	phases phaseTimes
}

// phaseTimes are the wall seconds of a collection's three phases.
type phaseTimes struct{ trace, sweep, assemble float64 }

// phaseClock times a collection's phases from outside the pipeline,
// through its public progress hook: the hook fires with done == total
// when the last unit of a phase completes, so the trace phase ends with
// the last traced pair and the sweep phase with the last (chip, trace)
// job.
type phaseClock struct {
	mu   sync.Mutex
	done map[string]time.Time
}

func (c *phaseClock) notify(phase string, done, total int) {
	if done != total {
		return
	}
	c.mu.Lock()
	c.done[phase] = time.Now()
	c.mu.Unlock()
}

// phases splits the collection that ran from start to end at the
// recorded phase ends. The sweep phase so timed includes the columnar
// build, which runs between the pipeline's trace and sweep stages.
func (c *phaseClock) phases(start, end time.Time) phaseTimes {
	c.mu.Lock()
	defer c.mu.Unlock()
	tr, sw := c.done[obs.StageTrace], c.done[obs.StageSweep]
	return phaseTimes{
		trace:    tr.Sub(start).Seconds(),
		sweep:    sw.Sub(tr).Seconds(),
		assemble: end.Sub(sw).Seconds(),
	}
}

// studyOnce runs one standard study. Under a traced operation it
// records the phases as spans.
func (b *bench) studyOnce(op *span) (*studyOut, error) {
	g := op.child("graph.generate")
	inputs := graph.StandardInputs()
	g.endLayer("graph.generate_s")

	// The pipeline's own recorder: its stage timers give the phase
	// figures, and the outside phase clock cross-checks them.
	prog := obs.New()
	if op.live {
		prog.EnableTracing()
	}
	clock := &phaseClock{done: map[string]time.Time{}}
	c := op.child("measure.collect")
	d, err := measure.Collect(measure.Options{
		Seed: b.seed, Runs: 3, Inputs: inputs, Workers: b.workers, Obs: prog, Notify: clock.notify,
	})
	end := time.Now()
	c.end()
	if err != nil {
		return nil, err
	}
	wr := op.child("dataset.write_csv")
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		return nil, err
	}
	wr.endLayer("dataset.write_csv_s")
	sum := sha256.Sum256(buf.Bytes())
	return &studyOut{
		sum:       hex.EncodeToString(sum[:]),
		inputs:    inputs,
		cells:     d.Len(),
		csv:       buf.Bytes(),
		pipeline:  prog.Snapshot(),
		collectID: c.h.ID(),
		phases:    clock.phases(c.t0, end),
	}, nil
}

// stageCheck bounds the ratio of an outside-timed phase of a collection
// to the pipeline's own stage timer of that phase in the same run. A
// ratio outside its range means the stage timers no longer account for
// the pipeline's time, and the traced run is reported as invalid.
type stageCheck struct {
	metric, stage string
	phase         func(phaseTimes) float64
	lo, hi        float64
}

// stageChecks are the study's cross-checks. On a 2-CPU host the three
// ratios read 1.00, 1.02 and 1.01: the outside sweep phase also holds
// the columnar build (~1 ms), and the outside assemble phase the
// report and snapshot the pipeline takes after its assemble stage. The
// assemble phase lasts only ~25 ms, so its range leaves more room for
// scheduling jitter.
var stageChecks = []stageCheck{
	{"check.trace_stage_ratio", obs.StageTrace, func(p phaseTimes) float64 { return p.trace }, 0.8, 1.25},
	{"check.sweep_stage_ratio", obs.StageSweep, func(p phaseTimes) float64 { return p.sweep }, 0.8, 1.25},
	{"check.assemble_stage_ratio", obs.StageAssemble, func(p phaseTimes) float64 { return p.assemble }, 0.8, 1.5},
}

// stageFigures notes a traced study's phase figures from the pipeline's
// stage timers and checks each against the outside phase clock.
func (b *bench) stageFigures(op *span, out *studyOut) {
	stages := out.pipeline.Summary
	op.note("measure.sweep_s", stages.StageDuration(obs.StageSweep).Seconds())
	op.note("measure.assemble_s", stages.StageDuration(obs.StageAssemble).Seconds())
	op.note("measure.cells", float64(out.cells))
	for _, c := range stageChecks {
		r := ratio(c.phase(out.phases), stages.StageDuration(c.stage).Seconds())
		op.note(c.metric, r)
		if (r < c.lo || r > c.hi) && b.invalid == "" {
			b.invalid = fmt.Sprintf("%s %.3f outside [%g, %g]: the %s stage timer disagrees with the outside clock",
				c.metric, r, c.lo, c.hi, c.stage)
		}
	}
}

// studyProbes times the layers of a traced study from outside, on the
// operation's own inputs and outputs: the input fingerprints, a re-run
// of the trace phase through measure.Traces, the columnar build of its
// traces, and the CSV decode. The probes run after the operation's
// latency is taken.
func (b *bench) studyProbes(out *studyOut) error {
	p := b.probes()
	defer p.end()
	inputs := out.inputs

	f := p.child("graph.fingerprint")
	for _, in := range inputs {
		in.Fingerprint()
	}
	f.endLayer("graph.fingerprint_s")

	prog := obs.New().EnableTracing()
	t := p.child("irgl.trace")
	profiles, err := measure.Traces(measure.Options{Seed: b.seed, Inputs: inputs, Workers: b.workers, Obs: prog})
	wall := t.endLayer("irgl.trace_wall_s")
	if err != nil {
		return err
	}
	snap := prog.Snapshot()
	b.rec.Adopt(snap, 0, t.h.ID())
	p.traceFigures(snap, wall)

	cb := p.child("columnar.build")
	for _, tp := range profiles {
		columnar.Build(tp)
	}
	cb.endLayer("columnar.build_s")

	rd := p.child("dataset.read_csv")
	if _, err := dataset.ReadCSV(bytes.NewReader(out.csv)); err != nil {
		return err
	}
	rd.endLayer("dataset.read_csv_s")
	p.note("dataset.csv_bytes", float64(len(out.csv)))
	return nil
}

// traceFigures derives the trace phase's figures from the pipeline's
// per-pair spans and counters: busy time (the sum of per-pair spans),
// the slowest pair, and parallel efficiency over wall seconds.
func (s *span) traceFigures(snap *obs.Snapshot, wall float64) {
	var busy, maxPair float64
	for _, sp := range snap.Spans {
		if sp.Name != obs.SpanTracePair {
			continue
		}
		secs := float64(sp.DurNS) / 1e9
		busy += secs
		if secs > maxPair {
			maxPair = secs
		}
	}
	s.note("irgl.trace_busy_s", busy)
	s.note("irgl.trace_max_pair_s", maxPair)
	s.note("irgl.trace_parallel_eff", ratio(busy, float64(s.b.workers)*wall))
	s.note("irgl.launches", float64(snap.Summary.Counter(obs.CtrKernelLaunches)))
	s.note("irgl.edge_work", float64(snap.Summary.Counter(obs.CtrEdgeWork)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
