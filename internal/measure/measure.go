// Package measure is the experiment harness: it runs every application
// on every input once to obtain execution traces, then sweeps all
// chips and optimisation configurations through the cost model, taking
// several noisy timing samples per cell, and assembles the study
// dataset.
//
// The harness is built to survive the failure modes of a real
// multi-vendor campaign (see internal/fault): cells retry transient
// launch failures with capped exponential backoff, hung launches are
// cut off by a deadline, corrupted samples are quarantined by robust
// outlier rejection, and a cell that exhausts its retries - or sits on
// a dropped-out chip - is recorded as missing with a reason rather than
// aborting the sweep. Long sweeps can persist completed shards to a
// checkpoint file and resume bit-identically after an interruption.
package measure

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/cost/columnar"
	"gpuport/internal/dataset"
	"gpuport/internal/fault"
	"gpuport/internal/graph"
	"gpuport/internal/obs"
	"gpuport/internal/opt"
	"gpuport/internal/tracecache"
)

// Options configures a collection run.
type Options struct {
	// Seed drives the measurement noise streams. The same seed yields
	// a bit-identical dataset regardless of iteration order.
	Seed uint64
	// Runs is the number of timed samples per cell (the paper: 3).
	Runs int
	// Chips, Apps, Inputs restrict the sweep; nil means all (for Inputs,
	// the process-shared standard inputs, never modified).
	Chips  []chip.Chip
	Apps   []apps.App
	Inputs []*graph.Graph
	// Configs restricts the optimisation-configuration axis; nil means
	// the full 96-configuration grid. Because both the noise and the
	// fault streams are keyed per cell (not sequential), a subspace
	// sweep produces bit-for-bit the same samples as the matching cells
	// of a full-grid sweep under the same seed.
	Configs []opt.Config
	// Notify, when non-nil, receives coarse progress events as the run
	// advances: phase is obs.StageTrace or obs.StageSweep, done/total
	// count completed units (trace pairs, (chip, trace) sweep jobs).
	// It is called concurrently from worker goroutines and must be
	// safe for concurrent use; done counts are monotonic per phase but
	// the interleaving across phases is scheduling-dependent, so
	// notifications feed progress displays, never datasets.
	Notify func(phase string, done, total int)
	// Validate re-checks every application output against its
	// reference implementation while tracing.
	Validate bool

	// Ctx, when non-nil, cancels the sweep: tracing stops between
	// applications and the worker pool drains without starting new
	// jobs. Completed shards are still flushed to the checkpoint, so a
	// cancelled sweep can resume.
	Ctx context.Context
	// Workers caps the cost-evaluation worker pool; 0 means GOMAXPROCS.
	// The dataset is bit-identical for any worker count.
	Workers int
	// Faults, when non-nil, enables deterministic fault injection with
	// the embedded retry/backoff/deadline policy.
	Faults *fault.Profile
	// Checkpoint names a file for incremental shard persistence: a
	// sequence of trace-cache entries headed by the campaign's
	// fingerprint, to which the cells of every completed (chip, trace)
	// job are appended as one entry. Cells already present are resumed
	// (skipped bit-identically) instead of re-measured; a checkpoint of
	// another campaign is refused.
	Checkpoint string

	// TraceCache, when non-nil, short-circuits the trace phase through
	// the content-addressed store: pairs whose traces are cached skip
	// execution entirely, and fresh traces are written back. The
	// resulting dataset is bit-identical to an uncached run.
	TraceCache *tracecache.Store
	// Obs receives stage timings (trace, sweep, assemble), cache
	// hit/miss counters and, when enabled, spans; nil records nothing.
	// The caller reads what was recorded from the recorder it passed.
	Obs *obs.Recorder
}

func (o *Options) fill() {
	o.fillGrid()
	if o.Ctx == nil {
		//lint:allow ctxprop Options.fill is the documented default for callers that pass no context
		o.Ctx = context.Background()
	}
}

// fillGrid resolves the semantic sweep grid (the campaign's identity:
// what is measured, under which seed and policy) without touching the
// runtime bindings (context, recorder, cache, workers). Split from
// fill so Campaign.Fingerprint can normalise identity without
// allocating execution resources.
func (o *Options) fillGrid() {
	if o.Runs == 0 {
		o.Runs = 3
	}
	if o.Chips == nil {
		o.Chips = chip.All()
	}
	if o.Apps == nil {
		o.Apps = apps.All()
	}
	if o.Inputs == nil {
		o.Inputs = graph.SharedStandardInputs()
	}
	if o.Configs == nil {
		o.Configs = opt.All()
	}
}

// cellKeyPrefix returns the part of a cell key that every config of
// one (chip, app, input) job shares. A cell's key, its canonical
// identity, is that prefix followed by the config's String; it keys
// both the measurement-noise and the fault-decision streams. The format
// is frozen: attempt-0 noise must reproduce the historical fault-free
// stream so that enabling a zero-rate fault profile changes nothing.
func cellKeyPrefix(seed uint64, chipName, app, input string) string {
	return fmt.Sprintf("%d|%s|%s|%s|", seed, chipName, app, input)
}

// cellState tracks the fault bookkeeping of one cell slot.
type cellState struct {
	attempts    int
	quarantined int
	waitNS      float64
	failed      fault.Kind
	measured    bool
	resumed     bool
}

// Collect produces the dataset for the configured sweep, discarding the
// collection report. See CollectReport.
func Collect(o Options) (*dataset.Dataset, error) {
	d, _, err := CollectReport(o)
	return d, err
}

// CollectReport produces the dataset for the configured sweep plus a
// report accounting for every cell: measured, resumed from checkpoint,
// retried, or missing with the fault kind that killed it. Cost
// evaluation runs on the columnar engine - traces are converted to
// columns once and reused across the full config x chip x sample grid -
// which answers bit-identically to the reference cost.Estimate.
// Evaluation is parallelised across (chip, trace) pairs; the assembled
// dataset is bit-identical regardless of parallelism because every
// record is written to a pre-assigned slot and both the noise and the
// fault streams are keyed per cell, not sequential.
//
// Under fault injection the dataset may be partial; it is returned
// (not an error) together with the report, and the analysis layer
// degrades gracefully to the covered cells.
func CollectReport(o Options) (*dataset.Dataset, *Report, error) {
	o.fill()
	for _, cfg := range o.Configs {
		if _, ok := cfg.ID(); !ok {
			return nil, nil, fmt.Errorf("measure: config %v with FG=%d is outside the optimisation space", cfg, cfg.FG)
		}
	}
	ctx := o.Ctx
	traces, err := Traces(o)
	if err != nil {
		return nil, nil, err
	}
	// Columnar form of every trace, built once per (app, input) and
	// shared read-only across the whole config x chip x sample grid.
	cols := make([]*columnar.Columns, len(traces))
	for i, tr := range traces {
		cols[i] = columnar.Build(tr)
	}
	sweepSpan := o.Obs.StartSpan(obs.StageSweep, 0)
	configs := o.Configs
	nc := len(configs)

	type job struct{ chipIdx, traceIdx int }
	jobs := make([]job, 0, len(o.Chips)*len(traces))
	for ci := range o.Chips {
		for ti := range traces {
			jobs = append(jobs, job{ci, ti})
		}
	}
	records := make([]dataset.Record, len(jobs)*nc)
	cells := make([]cellState, len(jobs)*nc)

	var ck *checkpoint
	var resumeSet *dataset.Dataset
	if o.Checkpoint != "" {
		ck, resumeSet, err = openCheckpoint(o.Checkpoint, NewCampaign(o).Fingerprint(), o.Runs)
		if err != nil {
			return nil, nil, err
		}
	}

	var inj *fault.Injector
	if o.Faults != nil {
		names := make([]string, len(o.Chips))
		for i, ch := range o.Chips {
			names[i] = ch.Name
		}
		inj = fault.NewInjector(*o.Faults, names, len(traces)*nc)
	}

	var jobsDone atomic.Int64
	runPool(ctx, o.Workers, len(jobs), func(w, ji int) {
		ch := o.Chips[jobs[ji].chipIdx]
		tr := traces[jobs[ji].traceIdx]
		// Span identity is (chip, app, input); the worker id is
		// only the export lane (see traces.go).
		jobSpan := sweepSpan.StartSpan(obs.SpanSweepJob, w,
			obs.String(obs.AttrChip, ch.Name),
			obs.String(obs.AttrApp, tr.App),
			obs.String(obs.AttrInput, tr.Input))
		// Fault accounting is batched worker-locally per job and
		// folded in once: counters and histograms are integer, so
		// the snapshot is identical at any worker count.
		var fAttempts, fRetries, fQuar int64
		var attemptsHist, waitHist obs.Hist
		// Each job owns a disjoint slice region; no locks are
		// needed and the final order is deterministic.
		out := records[ji*nc : (ji+1)*nc]
		st := cells[ji*nc : (ji+1)*nc]
		fresh := false
		// The evaluator applies the chip to the shared columns;
		// built lazily so fully resumed or faulted jobs never
		// pay for it, and per job because its shape memo is
		// unguarded.
		var ev *columnar.Evaluator
		keyPrefix := cellKeyPrefix(o.Seed, ch.Name, tr.App, tr.Input)
		for k, cfg := range configs {
			dkey := dataset.Key{
				Tuple:  dataset.Tuple{Chip: ch.Name, App: tr.App, Input: tr.Input},
				Config: cfg,
			}
			if inj != nil && inj.Dropped(ch.Name, jobs[ji].traceIdx*nc+k) {
				st[k] = cellState{failed: fault.Dropout}
				continue
			}
			key := keyPrefix + cfg.String()
			var factors []float64
			if inj != nil {
				res := inj.MeasureCell(key, o.Runs, ch.NoiseSigma)
				st[k] = cellState{
					attempts:    res.Attempts,
					quarantined: res.Quarantined,
					waitNS:      res.WaitNS,
					failed:      res.Failed,
				}
				fAttempts += int64(res.Attempts)
				fRetries += int64(res.Attempts - 1)
				fQuar += int64(res.Quarantined)
				attemptsHist.Observe(int64(res.Attempts))
				waitHist.Observe(int64(res.WaitNS))
				res.Emit(o.Obs, jobSpan.ID(), obs.String(obs.AttrConfig, cfg.String()))
				if res.Failed != fault.None {
					continue
				}
				factors = res.Factors
			} else {
				st[k] = cellState{attempts: 1}
			}
			st[k].measured = true
			var prior []float64
			if resumeSet != nil {
				prior = resumeSet.Samples(dkey.Tuple, cfg)
			}
			if prior != nil {
				// Resumed from checkpoint: skip the expensive
				// cost evaluation; the fault outcome above was
				// replayed so the report stays bit-identical.
				st[k].resumed = true
				out[k] = dataset.Record{Key: dkey, Samples: prior}
				continue
			}
			if ev == nil {
				ev = columnar.NewEvaluator(ch, cols[jobs[ji].traceIdx])
			}
			base := ev.Estimate(cfg)
			if factors == nil {
				factors = fault.NoiseFactors(key, 0, o.Runs, ch.NoiseSigma)
			}
			samples := make([]float64, len(factors))
			for i, f := range factors {
				samples[i] = base * f
			}
			out[k] = dataset.Record{Key: dkey, Samples: samples}
			fresh = true
		}
		if inj != nil {
			o.Obs.Add(obs.CtrFaultAttempts, fAttempts)
			o.Obs.Add(obs.CtrFaultRetries, fRetries)
			o.Obs.Add(obs.CtrFaultQuarantined, fQuar)
			o.Obs.MergeHist(obs.HistCellAttempts, &attemptsHist)
			o.Obs.MergeHist(obs.HistCellWaitNS, &waitHist)
		}
		jobSpan.End()
		if ck != nil && fresh {
			ck.appendJob(out, st)
		}
		if o.Notify != nil {
			o.Notify(obs.StageSweep, int(jobsDone.Add(1)), len(jobs))
		}
	})

	sweepSpan.End()
	ckErr := ""
	if ck != nil {
		ckErr = ck.close()
	}
	if err := ctx.Err(); err != nil {
		// Completed shards are persisted (when checkpointing); the
		// sweep can resume from them.
		return nil, nil, err
	}

	assembleSpan := o.Obs.StartSpan(obs.StageAssemble, 0)
	d := dataset.New()
	rep := &Report{
		Cells:           len(records),
		FailuresByKind:  map[fault.Kind]int{},
		CheckpointError: ckErr,
	}
	if o.Faults != nil {
		p := *o.Faults
		p.Fill()
		rep.Profile = &p
		if inj != nil {
			if chipName, from, ok := inj.DropoutPlan(); ok {
				rep.DropoutChip, rep.DropoutFrom = chipName, from
			}
		}
	}
	for i := range records {
		st := cells[i]
		rep.Attempts += st.attempts
		rep.Quarantined += st.quarantined
		rep.WaitNS += st.waitNS
		if st.measured {
			rep.Measured++
			if st.resumed {
				rep.Resumed++
			}
			if st.attempts > 1 {
				rep.Retried++
			}
			d.Add(records[i])
			continue
		}
		ji := i / nc
		cfg := configs[i%nc]
		ch := o.Chips[jobs[ji].chipIdx]
		tr := traces[jobs[ji].traceIdx]
		rep.Failures = append(rep.Failures, CellFailure{
			Key: dataset.Key{
				Tuple:  dataset.Tuple{Chip: ch.Name, App: tr.App, Input: tr.Input},
				Config: cfg,
			},
			Reason:   st.failed,
			Attempts: st.attempts,
		})
		rep.FailuresByKind[st.failed]++
	}
	assembleSpan.End()
	return d, rep, nil
}

// runPool calls work(worker, i) for every i in [0, n) on a pool of
// goroutines: workers of them (0 means GOMAXPROCS), clamped to 1..n.
// Items are handed out in index order; once ctx is done no further item
// starts, and runPool returns when every started item has finished.
// Callers keep their own error handling, and keep results bit-identical
// at any worker count by writing each item to a pre-assigned slot.
func runPool(ctx context.Context, workers, n int, work func(worker, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue // drain without starting new work
				}
				work(w, i)
			}
		}(w)
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
}
