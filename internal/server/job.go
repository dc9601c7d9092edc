package server

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"gpuport/internal/measure"
	"gpuport/internal/obs"
)

// State is the lifecycle state of a campaign job.
type State string

const (
	// StateQueued: accepted, waiting for a runner.
	StateQueued State = "queued"
	// StateRunning: executing on a runner.
	StateRunning State = "running"
	// StateDone: completed; the result is available.
	StateDone State = "done"
	// StateFailed: the campaign returned an error.
	StateFailed State = "failed"
	// StateCanceled: cancelled by request or by server shutdown. A
	// checkpointed job resumes bit-identically when resubmitted.
	StateCanceled State = "canceled"
)

// terminal reports whether the state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one progress notification of the NDJSON event stream:
// either a phase advance (phase/done/total) or a terminal state.
type Event struct {
	Phase string `json:"phase,omitempty"`
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	State State  `json:"state,omitempty"`
}

// Progress counts completed work units per phase. Totals are fixed by
// the spec; done counts grow monotonically while the job runs and
// equal the totals once it is done, so terminal bodies are canonical.
type Progress struct {
	TracePairs int `json:"trace_pairs"`
	TraceTotal int `json:"trace_total"`
	SweepJobs  int `json:"sweep_jobs"`
	SweepTotal int `json:"sweep_total"`
}

// Failure is one missing cell of a partial result.
type Failure struct {
	Chip     string `json:"chip"`
	App      string `json:"app"`
	Input    string `json:"input"`
	Config   string `json:"config"`
	Reason   string `json:"reason"`
	Attempts int    `json:"attempts"`
}

// ResultSummary is the per-cell accounting of a finished campaign.
// Every field is bit-identical for a given spec: fault outcomes are
// seeded per cell, so attempts, retries, quarantines and the failure
// list do not depend on scheduling, worker counts or resumption.
// (Checkpoint-resumed cell counts are provenance, not identity; they
// travel in the X-Gpuportd-Resumed response header instead.)
type ResultSummary struct {
	Cells           int            `json:"cells"`
	Measured        int            `json:"measured"`
	Coverage        string         `json:"coverage"`
	Attempts        int            `json:"attempts"`
	Retried         int            `json:"retried"`
	Quarantined     int            `json:"quarantined"`
	Failures        []Failure      `json:"failures,omitempty"`
	FailuresByKind  map[string]int `json:"failures_by_kind,omitempty"`
	CheckpointError string         `json:"checkpoint_error,omitempty"`
}

// Status is the canonical public view of a job: everything in it is a
// pure function of the spec and the job's lifecycle state.
type Status struct {
	ID          string         `json:"id"`
	Fingerprint string         `json:"fingerprint"`
	State       State          `json:"state"`
	Spec        Spec           `json:"spec"`
	Cells       int            `json:"cells"`
	Progress    Progress       `json:"progress"`
	Result      *ResultSummary `json:"result,omitempty"`
	Error       string         `json:"error,omitempty"`
}

// Outcome values of the submit-outcome telemetry event (the
// obs.AttrOutcome attribute on the request span).
const (
	// OutcomeQueued: a fresh job was enqueued.
	OutcomeQueued = "queued"
	// OutcomeRequeued: a failed or canceled campaign was enqueued again
	// (it resumes from its checkpoint when one exists).
	OutcomeRequeued = "requeued"
	// OutcomeDeduped: the submission attached to a live job already
	// computing this fingerprint.
	OutcomeDeduped = "deduped"
	// OutcomeCached: the submission was answered from the persisted job
	// store without running anything.
	OutcomeCached = "cached"
	// OutcomeRejected: the spec failed validation (or the server is
	// shutting down).
	OutcomeRejected = "rejected"
)

// Source values reported in the X-Gpuportd-Source response header.
const (
	// SourceFresh: the result was measured by this server process.
	SourceFresh = "fresh"
	// SourceCache: the result was served from the persisted job store
	// without re-measuring anything.
	SourceCache = "cache"
)

// Job is one campaign in the server: a resolved spec, its queue
// position, its live progress and - once terminal - its canonical
// status and result bytes.
type Job struct {
	id       string
	fp       string
	spec     Spec
	camp     *measure.Campaign
	seq      uint64
	priority int

	cells      int
	traceTotal int
	sweepTotal int

	// done is closed when the job reaches a terminal state.
	done chan struct{}

	// trace is the job's content-addressed request trace ID and reqSpan
	// the submitting HTTP request span; both are pinned under the
	// server mutex before the job becomes dequeueable.
	trace   uint64
	reqSpan uint64

	mu        sync.Mutex
	state     State              // guarded by mu
	source    string             // guarded by mu
	waitSpan  *obs.SpanHandle    // guarded by mu
	traceDone int                // guarded by mu
	sweepDone int                // guarded by mu
	resumed   int                // guarded by mu
	summary   *ResultSummary     // guarded by mu; terminal done only
	result    []byte             // guarded by mu; dataset CSV, terminal done only
	status    []byte             // guarded by mu; canonical terminal status body
	errMsg    string             // guarded by mu
	canceling bool               // guarded by mu
	cancel    context.CancelFunc // guarded by mu
	subs      map[int]chan Event // guarded by mu
	nextSub   int                // guarded by mu
}

func newJob(id, fp string, spec Spec, camp *measure.Campaign, seq uint64) *Job {
	o := camp.Options()
	return &Job{
		id:         id,
		fp:         fp,
		spec:       spec,
		camp:       camp,
		seq:        seq,
		priority:   spec.Priority,
		cells:      camp.Cells(),
		traceTotal: len(o.Apps) * len(o.Inputs),
		sweepTotal: len(o.Chips) * len(o.Apps) * len(o.Inputs),
		done:       make(chan struct{}),
		state:      StateQueued,
		source:     SourceFresh,
		subs:       map[int]chan Event{},
	}
}

// ID returns the job's identifier (a fingerprint prefix).
func (j *Job) ID() string { return j.id }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Source reports where the result came from (fresh or cache).
func (j *Job) Source() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.source
}

// Resumed reports how many cells were loaded from the job's checkpoint
// instead of re-measured (provenance; 0 for uninterrupted runs).
func (j *Job) Resumed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resumed
}

// Result returns the result CSV bytes, or an error when the job is
// not done.
func (j *Job) Result() ([]byte, *Error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateFailed:
		return nil, &Error{Status: 409, Code: "failed", Message: j.errMsg}
	case StateCanceled:
		return nil, &Error{Status: 409, Code: "canceled", Message: "campaign was canceled; resubmit to resume it"}
	default:
		return nil, &Error{Status: 409, Code: "not_ready", Message: fmt.Sprintf("campaign is %s", j.state)}
	}
}

// Wait blocks until the job is terminal or ctx is cancelled.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Status returns the canonical snapshot of the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked assembles the canonical status view. Callers hold j.mu.
func (j *Job) statusLocked() Status {
	return Status{
		ID:          j.id,
		Fingerprint: j.fp,
		State:       j.state,
		Spec:        j.spec,
		Cells:       j.cells,
		Progress: Progress{
			TracePairs: j.traceDone, TraceTotal: j.traceTotal,
			SweepJobs: j.sweepDone, SweepTotal: j.sweepTotal,
		},
		Result: j.summary,
		Error:  j.errMsg,
	}
}

// StatusBytes returns the canonical status body: the persisted bytes
// for terminal jobs (so fresh, restarted and cache-serving servers
// answer byte-identically) and a point-in-time snapshot otherwise.
func (j *Job) StatusBytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != nil {
		return j.status
	}
	return marshalCanonical(j.statusLocked())
}

// summarize renders a collection report as the canonical result
// summary.
func summarize(rep *measure.Report) *ResultSummary {
	rs := &ResultSummary{
		Cells:           rep.Cells,
		Measured:        rep.Measured,
		Coverage:        strconv.FormatFloat(rep.Coverage(), 'f', 4, 64),
		Attempts:        rep.Attempts,
		Retried:         rep.Retried,
		Quarantined:     rep.Quarantined,
		CheckpointError: rep.CheckpointError,
	}
	for _, f := range rep.Failures {
		rs.Failures = append(rs.Failures, Failure{
			Chip:     f.Key.Chip,
			App:      f.Key.App,
			Input:    f.Key.Input,
			Config:   f.Key.Config.String(),
			Reason:   f.Reason.String(),
			Attempts: f.Attempts,
		})
	}
	if len(rep.FailuresByKind) > 0 {
		rs.FailuresByKind = map[string]int{}
		for kind, n := range rep.FailuresByKind {
			rs.FailuresByKind[kind.String()] = n
		}
	}
	return rs
}

// marshalCanonical renders a JSON body with a trailing newline.
// encoding/json is canonical for our shapes: struct fields emit in
// declaration order and map keys are sorted.
func marshalCanonical(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Status shapes contain no unmarshalable types; reaching this
		// is a programming error worth surfacing loudly in tests.
		panic(fmt.Sprintf("server: canonical marshal: %v", err))
	}
	return append(b, '\n')
}

// notify is the measure.Options.Notify sink: it advances the phase
// counters and fans the event out to stream subscribers.
func (j *Job) notify(phase string, done, total int) {
	j.mu.Lock()
	switch phase {
	case obs.StageTrace:
		if done > j.traceDone {
			j.traceDone = done
		}
	case obs.StageSweep:
		if done > j.sweepDone {
			j.sweepDone = done
		}
	}
	j.publishLocked(Event{Phase: phase, Done: done, Total: total})
	j.mu.Unlock()
}

// publishLocked sends the event to every subscriber without blocking:
// a slow stream reader misses intermediate progress, never the
// terminal state (the stream handler emits that itself). Callers hold
// j.mu.
func (j *Job) publishLocked(ev Event) {
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe registers a progress listener. The channel is closed when
// the job reaches a terminal state; cancel unregisters early.
func (j *Job) subscribe() (<-chan Event, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Event, 64)
	if j.state.terminal() {
		close(ch)
		return ch, func() {}
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(ch)
		}
	}
}

// endWaitLocked closes the job's queue-wait span (no-op when none is
// open). Callers hold j.mu.
func (j *Job) endWaitLocked() {
	if j.waitSpan != nil {
		j.waitSpan.End()
		j.waitSpan = nil
	}
}

// finishLocked moves the job to a terminal state: it pins the
// canonical status body, closes the done channel and releases every
// subscriber. Callers hold j.mu.
func (j *Job) finishLocked(state State) {
	j.state = state
	if state == StateDone {
		// A completed sweep reports full progress even when cells were
		// resumed or served from cache: totals are spec-derived.
		j.traceDone, j.sweepDone = j.traceTotal, j.sweepTotal
	}
	j.status = marshalCanonical(j.statusLocked())
	for id, ch := range j.subs {
		delete(j.subs, id)
		close(ch)
	}
	close(j.done)
}
