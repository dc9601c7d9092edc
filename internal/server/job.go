package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
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

// Job is one campaign in the server: a resolved campaign, its queue
// position and its canonical status. A live job is its Status, updated
// in place; a terminal one is its entry, the bytes <id>.done holds.
type Job struct {
	id       string
	camp     *measure.Campaign
	seq      uint64
	priority int

	// done is closed when the job reaches a terminal state.
	done chan struct{}

	// trace is the job's content-addressed request trace ID and reqSpan
	// the submitting HTTP request span; both are pinned under the
	// server mutex before the job becomes dequeueable.
	trace   uint64
	reqSpan uint64

	mu sync.Mutex
	// status is the live view. Once the job is terminal only its State
	// and Error are read: the entry is the body.
	status Status // guarded by mu
	// entry is set once, when the job turns terminal: the canonical
	// status line, then the result CSV of a done job.
	entry     []byte             // guarded by mu
	source    string             // guarded by mu
	waitSpan  *obs.SpanHandle    // guarded by mu
	resumed   int                // guarded by mu
	canceling bool               // guarded by mu
	cancel    context.CancelFunc // guarded by mu
	subs      map[int]chan Event // guarded by mu
	nextSub   int                // guarded by mu
}

func newJob(id, fp string, spec Spec, camp *measure.Campaign, seq uint64) *Job {
	o := camp.Options()
	return &Job{
		id:       id,
		camp:     camp,
		seq:      seq,
		priority: spec.Priority,
		done:     make(chan struct{}),
		status: Status{
			ID:          id,
			Fingerprint: fp,
			State:       StateQueued,
			Spec:        spec,
			Cells:       camp.Cells(),
			Progress: Progress{
				TraceTotal: len(o.Apps) * len(o.Inputs),
				SweepTotal: len(o.Chips) * len(o.Apps) * len(o.Inputs),
			},
		},
		source: SourceFresh,
		subs:   map[int]chan Event{},
	}
}

// ID returns the job's identifier (a fingerprint prefix).
func (j *Job) ID() string { return j.id }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.State
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
	switch j.status.State {
	case StateDone:
		return j.entry[statusLen(j.entry):], nil
	case StateFailed:
		return nil, &Error{Status: 409, Code: "failed", Message: j.status.Error}
	case StateCanceled:
		return nil, &Error{Status: 409, Code: "canceled", Message: "campaign was canceled; resubmit to resume it"}
	default:
		return nil, &Error{Status: 409, Code: "not_ready", Message: fmt.Sprintf("campaign is %s", j.status.State)}
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

// StatusBytes returns the canonical status body: a terminal job's is
// its entry's status line (so fresh, restarted and cache-serving
// servers answer byte-identically), a live job's a snapshot of its
// status.
func (j *Job) StatusBytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.entry == nil {
		return marshalCanonical(j.status)
	}
	n := statusLen(j.entry)
	// The cap keeps an append to the status from overwriting the result.
	return j.entry[:n:n]
}

// statusLen is the length of an entry's status line: one compact JSON
// line, its newline included.
func statusLen(entry []byte) int { return bytes.IndexByte(entry, '\n') + 1 }

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
		j.status.Progress.TracePairs = max(j.status.Progress.TracePairs, done)
	case obs.StageSweep:
		j.status.Progress.SweepJobs = max(j.status.Progress.SweepJobs, done)
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
	if j.status.State.terminal() {
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

// finishLocked moves the job to a terminal state: it pins the job's
// entry (the canonical status line, then the result CSV of a done job),
// closes the done channel and releases every subscriber. Callers hold
// j.mu.
func (j *Job) finishLocked(state State, result []byte) {
	j.status.State = state
	if state == StateDone {
		// A completed sweep reports full progress even when cells were
		// resumed: totals are spec-derived.
		p := &j.status.Progress
		p.TracePairs, p.SweepJobs = p.TraceTotal, p.SweepTotal
	}
	j.entry = slices.Concat(marshalCanonical(j.status), result)
	for id, ch := range j.subs {
		delete(j.subs, id)
		close(ch)
	}
	close(j.done)
}
