package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"gpuport/internal/measure"
	"gpuport/internal/obs"
	"gpuport/internal/tracecache"
)

// Config wires one Server instance to its runtime resources.
type Config struct {
	// Ctx is the root context: cancelling it stops every runner and
	// cancels every in-flight campaign. Required.
	Ctx context.Context
	// Campaigns is the number of campaign runners, i.e. how many jobs
	// execute concurrently (default 2). Each runner executes one job at
	// a time; concurrency never changes result bytes.
	Campaigns int
	// Workers caps each campaign's internal trace/sweep worker pools
	// (0 means GOMAXPROCS).
	Workers int
	// TraceCache is the content-addressed trace store shared by every
	// campaign; nil disables cross-campaign trace reuse.
	TraceCache *tracecache.Store
	// JobDir persists each finished job as one verified entry,
	// <id>.done (the canonical status line, then the result CSV, in the
	// trace cache's checksummed entry format), and each in-flight
	// campaign's checkpoint, <id>.ckpt. An entry found there is served
	// without re-measuring, and a damaged one is deleted and computed
	// again; a checkpoint found there makes a resubmitted campaign
	// resume instead of restart. Empty disables persistence and
	// resumability.
	JobDir string
	// Obs is the daemon-lifetime recorder behind /metrics, the debug
	// trace and the live stream: each runner records one campaign span
	// per job on its lane, and the job's pipeline records through a
	// scoped view of it (obs.Recorder.Scope), as part of the campaign's
	// request trace. When nil a private recorder is created.
	Obs *obs.Recorder
}

// Server schedules campaign jobs onto a fixed pool of runners. Jobs
// are deduplicated and cached by campaign fingerprint, ordered by
// (priority, submission sequence), and isolated per execution: each
// job gets its own cancel scope and checkpoint file, while all jobs
// share one trace cache and one observability recorder.
type Server struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	rec    *obs.Recorder
	wg     sync.WaitGroup

	// wake nudges idle runners when work arrives. Buffered with
	// non-blocking sends; runners re-poll the queue after every job, so
	// a dropped nudge is never a lost wakeup.
	wake chan struct{}

	mu     sync.Mutex
	jobs   map[string]*Job // guarded by mu
	q      queue           // guarded by mu
	seq    uint64          // guarded by mu
	busy   int64           // guarded by mu
	closed bool            // guarded by mu
	// latency holds one request-latency histogram per timed endpoint,
	// added on the endpoint's first request.
	latency []obs.Hist // guarded by mu
}

// New starts a server: it validates the config, prepares the job
// directory and launches the runner pool.
func New(cfg Config) (*Server, error) {
	if cfg.Ctx == nil {
		return nil, fmt.Errorf("server: Config.Ctx is required")
	}
	if cfg.Campaigns <= 0 {
		cfg.Campaigns = 2
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New().EnableTracing()
	}
	if cfg.JobDir != "" {
		if err := os.MkdirAll(cfg.JobDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: job dir: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(cfg.Ctx)
	s := &Server{
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		rec:    cfg.Obs,
		wake:   make(chan struct{}, 1024),
		jobs:   map[string]*Job{},
	}
	for lane := 0; lane < cfg.Campaigns; lane++ {
		s.rec.NameLane(obs.TrackReal, lane, fmt.Sprintf("runner %d", lane))
		s.wg.Add(1)
		go s.runner(ctx, lane)
	}
	// The HTTP front end records its request spans one lane past the
	// runner pool.
	s.rec.NameLane(obs.TrackReal, s.httpLane(), obs.LaneHTTP)
	return s, nil
}

// httpLane is the real-track lane of the HTTP front end.
func (s *Server) httpLane() int { return s.cfg.Campaigns }

// Close stops the server: it cancels every in-flight campaign (their
// checkpoints survive for resumption), fails the queue over to the
// canceled state and waits for the runners to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	for j := s.q.pop(); j != nil; j = s.q.pop() {
		j.mu.Lock()
		j.endWaitLocked()
		j.finishLocked(StateCanceled)
		j.mu.Unlock()
		s.rec.Add(obs.CtrJobsCanceled, 1)
	}
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

// Snapshot returns the daemon recorder's observability snapshot
// (counters, campaign and pipeline spans, stage totals).
func (s *Server) Snapshot() *obs.Snapshot { return s.rec.Snapshot() }

// setBusy moves the busy-runner count by delta.
func (s *Server) setBusy(delta int64) {
	s.mu.Lock()
	s.busy += delta
	s.mu.Unlock()
}

// Get returns the job with the given id.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every known job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// Submit registers a campaign. The returned job is, in order of
// preference: the live job already computing this fingerprint
// (deduplicated), a terminal job served from memory or the persisted
// job store (cache), or a freshly queued job. Failed and canceled
// campaigns are requeued on resubmission and resume from their
// checkpoint when one exists.
//
// The returned body is the canonical response for this submission,
// snapshotted before any runner can touch the job: a fresh submission
// always answers in the "queued" form, a cache hit always answers with
// the persisted "done" form.
func (s *Server) Submit(spec Spec) (j *Job, body []byte, errs *Error) {
	lane := s.httpLane()
	spec, camp, errs := spec.Resolve()
	if errs != nil {
		// A rejected spec has no fingerprint, so every rejection shares
		// one deterministic request-span identity and no trace.
		req := s.rec.StartSpan(obs.SpanHTTPRequest, lane, obs.String(obs.AttrEndpoint, endpointSubmit))
		req.StartSpan(obs.SpanValidate, lane).End()
		req.Event(obs.EvSubmitOutcome, obs.String(obs.AttrOutcome, OutcomeRejected))
		req.End()
		return nil, nil, errs
	}
	fp := camp.Fingerprint()
	id := fp[:16]

	// The request trace is content-addressed: every submission of the
	// same campaign joins the same trace, in every run and process.
	trace := obs.NewTraceID(obs.SpanCampaign, fp)
	req := s.rec.StartSpan(obs.SpanHTTPRequest, lane,
		obs.String(obs.AttrEndpoint, endpointSubmit), obs.String(obs.AttrJob, id)).InTrace(trace)
	defer req.End()
	// The span is created after Resolve has run (its identity needs the
	// fingerprint), so the validate child records structure, not timing;
	// real-track durations are non-canonical anyway.
	req.StartSpan(obs.SpanValidate, lane).End()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		req.Event(obs.EvSubmitOutcome, obs.String(obs.AttrOutcome, OutcomeRejected))
		return nil, nil, &Error{Status: 503, Code: "shutting_down", Message: "server is shutting down"}
	}
	outcome := OutcomeQueued
	if j, ok := s.jobs[id]; ok {
		switch j.State() {
		case StateFailed, StateCanceled:
			// Retry: fall through to enqueue a fresh job object under
			// the same id; its checkpoint (if any) makes it a resume.
			outcome = OutcomeRequeued
		default:
			s.rec.Add(obs.CtrJobsDeduped, 1)
			req.Event(obs.EvSubmitOutcome, obs.String(obs.AttrOutcome, OutcomeDeduped))
			return j, j.StatusBytes(), nil
		}
	}

	j = newJob(id, fp, spec, camp, s.seq)
	s.seq++

	if status, summary, result, ok := s.loadPersisted(id); ok {
		// The job is not yet published (jobs map, queue), so nothing
		// races here - but the guarded fields are written under j.mu
		// anyway, keeping the lock discipline uniform and provable.
		j.mu.Lock()
		j.state = StateDone
		j.source = SourceCache
		j.status = status
		j.summary = summary
		j.result = result
		j.traceDone, j.sweepDone = j.traceTotal, j.sweepTotal
		j.mu.Unlock()
		close(j.done)
		s.jobs[id] = j
		s.rec.Add(obs.CtrJobsCached, 1)
		req.Event(obs.EvSubmitOutcome, obs.String(obs.AttrOutcome, OutcomeCached))
		return j, status, nil
	}

	// Snapshot the queued body while still holding s.mu: runners
	// dequeue under the same mutex, so no execution state can leak into
	// a submission response.
	enq := req.StartSpan(obs.SpanEnqueue, lane)
	body = j.StatusBytes()
	j.trace = trace
	j.reqSpan = req.ID()
	// The queue-wait span stays open until a runner dequeues the job
	// (or it is canceled while queued); see endWaitLocked. Taking j.mu
	// under s.mu matches the global lock order (Server.mu -> Job.mu).
	j.mu.Lock()
	j.waitSpan = req.StartSpan(obs.SpanQueueWait, lane)
	j.mu.Unlock()
	s.jobs[id] = j
	s.q.push(j)
	s.rec.Add(obs.CtrJobsSubmitted, 1)
	enq.End()
	req.Event(obs.EvSubmitOutcome, obs.String(obs.AttrOutcome, outcome))
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return j, body, nil
}

// Cancel stops the job with the given id: a queued job is canceled
// immediately, a running one has its context cancelled and reaches the
// canceled state when its runner unwinds (its checkpoint survives).
func (s *Server) Cancel(id string) (*Job, *Error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, &Error{Status: 404, Code: "unknown_campaign", Message: fmt.Sprintf("no campaign %q", id)}
	}
	if q := s.q.remove(id); q != nil {
		j.mu.Lock()
		j.endWaitLocked()
		j.finishLocked(StateCanceled)
		j.mu.Unlock()
		s.rec.Add(obs.CtrJobsCanceled, 1)
		return j, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return nil, &Error{Status: 409, Code: "not_cancelable", Message: fmt.Sprintf("campaign is already %s", j.state)}
	}
	j.canceling = true
	if j.cancel != nil {
		j.cancel()
	}
	return j, nil
}

// next pops the highest-priority queued job and marks it running; nil
// when the queue is empty.
func (s *Server) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.q.pop()
	if j == nil {
		return nil
	}
	j.mu.Lock()
	j.endWaitLocked()
	j.state = StateRunning
	j.publishLocked(Event{State: StateRunning})
	j.mu.Unlock()
	return j
}

// runner is one campaign-execution loop. After finishing a job it
// re-polls the queue before blocking, so a wake dropped while it was
// busy cannot strand queued work. It checks ctx before every dequeue:
// a runner of a server whose context is already done never takes a
// job, however late it is first scheduled.
func (s *Server) runner(ctx context.Context, lane int) {
	defer s.wg.Done()
	for ctx.Err() == nil {
		if j := s.next(); j != nil {
			s.runJob(ctx, lane, j)
			continue
		}
		select {
		case <-ctx.Done():
			return
		case <-s.wake:
		}
	}
}

// runJob executes one campaign with per-job isolation: its own cancel
// scope and its own checkpoint file. The trace cache and the recorder
// are shared across jobs; the cache is keyed by content, so sharing
// never changes bytes.
func (s *Server) runJob(ctx context.Context, lane int, j *Job) {
	s.setBusy(1)
	defer s.setBusy(-1)
	// j.trace/j.reqSpan were pinned before the job became dequeueable
	// (under s.mu in Submit), so reading them without j.mu is safe.
	span := s.rec.StartSpan(obs.SpanCampaign, lane, obs.String(obs.AttrJob, j.id)).InTrace(j.trace)
	span.Link(j.reqSpan)

	jctx, jcancel := context.WithCancel(ctx)
	defer jcancel()
	o := j.camp.Options()
	o.Ctx = jctx
	o.Workers = s.cfg.Workers
	o.TraceCache = s.cfg.TraceCache
	// The pipeline's spans join the request trace under the campaign
	// span as they close, on the daemon's clock.
	o.Obs = s.rec.Scope(j.trace, span.ID())
	o.Notify = j.notify
	if s.cfg.JobDir != "" {
		o.Checkpoint = s.checkpointPath(j.id)
	}
	j.mu.Lock()
	j.cancel = jcancel
	if j.canceling {
		// Cancel raced the dequeue; honour it before doing any work.
		jcancel()
	}
	j.mu.Unlock()

	ds, rep, err := measure.CollectReport(o)
	// The span closes before the job turns terminal, so a client woken
	// by the done channel always sees the full trace.
	span.End()

	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel = nil
	// Counters are bumped before finishLocked closes the done channel:
	// a woken waiter must see the terminal counter state.
	switch {
	case err != nil && (j.canceling || ctx.Err() != nil):
		j.errMsg = ""
		s.rec.Add(obs.CtrJobsCanceled, 1)
		j.finishLocked(StateCanceled)
	case err != nil:
		j.errMsg = err.Error()
		s.rec.Add(obs.CtrJobsFailed, 1)
		j.finishLocked(StateFailed)
	default:
		var buf bytes.Buffer
		if werr := ds.WriteCSV(&buf); werr != nil {
			j.errMsg = werr.Error()
			s.rec.Add(obs.CtrJobsFailed, 1)
			j.finishLocked(StateFailed)
			break
		}
		j.summary = summarize(rep)
		j.resumed = rep.Resumed
		j.result = buf.Bytes()
		s.rec.Add(obs.CtrJobsCompleted, 1)
		j.finishLocked(StateDone)
		s.persist(j)
	}
}

// checkpointPath names the job's resumable shard file.
func (s *Server) checkpointPath(id string) string {
	return filepath.Join(s.cfg.JobDir, id+".ckpt")
}

// entryPath names the job's finished-result entry.
func (s *Server) entryPath(id string) string {
	return filepath.Join(s.cfg.JobDir, id+".done")
}

// persist stores the finished job as one verified entry - the
// canonical status line followed by the result CSV - and retires the
// checkpoint. A failed write is counted on the daemon recorder but does
// not fail the job: the in-memory result is still valid. Caller holds
// j.mu (reads only pinned terminal bytes).
func (s *Server) persist(j *Job) {
	if s.cfg.JobDir == "" {
		return
	}
	entry := make([]byte, 0, len(j.status)+len(j.result))
	entry = append(append(entry, j.status...), j.result...)
	if err := tracecache.WriteEntry(s.entryPath(j.id), entry); err != nil {
		s.rec.Add(obs.CtrJobsPersistErrors, 1)
		return
	}
	_ = os.Remove(s.checkpointPath(j.id)) // best-effort: a stale ckpt only costs a resume
}

// loadPersisted returns the terminal bytes persisted for id by an
// earlier run (possibly of an earlier server process), and the result
// summary its status line holds. The entry must verify and hold a done
// status for id; anything less is a miss. A damaged entry is deleted,
// so the campaign is computed again and stored afresh.
func (s *Server) loadPersisted(id string) (status []byte, summary *ResultSummary, result []byte, ok bool) {
	if s.cfg.JobDir == "" {
		return nil, nil, nil, false
	}
	path := s.entryPath(id)
	entry, err := tracecache.ReadEntry(path)
	if err != nil {
		if errors.Is(err, tracecache.ErrCorrupt) {
			_ = os.Remove(path) // best-effort heal; a stuck entry misses again next time
		}
		return nil, nil, nil, false
	}
	// The status is one compact JSON line; the result CSV follows it.
	nl := bytes.IndexByte(entry, '\n') + 1
	var st Status
	if json.Unmarshal(entry[:nl], &st) != nil || st.State != StateDone || st.ID != id {
		return nil, nil, nil, false
	}
	// The cap keeps an append to the status from overwriting the result.
	return entry[:nl:nl], st.Result, entry[nl:], true
}
