package obs

// Every span, event, counter, histogram and attribute name used by the
// instrumented packages is declared here. The staticlint rule
// "obsnames" enforces that call sites pass one of these constants (or
// a value computed from the workload, e.g. a kernel name) rather than
// an ad-hoc string literal: exported artifacts are golden-tested
// byte-for-byte, so a renamed or misspelled name is a silent schema
// change unless it has exactly one home.

// Pipeline stages, in pipeline order: the names of their real-track
// phase spans, whose durations make up the stage totals (see Summary).
const (
	StageTrace    = "trace"
	StageSweep    = "sweep"
	StageAssemble = "assemble"
)

// Counters.
const (
	// Trace-cache traffic seen by the measurement pipeline.
	CtrCacheHits       = "trace-cache-hits"
	CtrCacheMisses     = "trace-cache-misses"
	CtrCacheMismatches = "trace-cache-mismatches"
	CtrCachePutErrors  = "trace-cache-put-errors"
	// Store-level trace-cache events (emitted by internal/tracecache).
	CtrCacheEvictions = "trace-cache-evictions"
	CtrCacheCorrupt   = "trace-cache-corrupt-healed"
	// Fault-campaign traffic (emitted by internal/measure).
	CtrFaultAttempts    = "fault-attempts"
	CtrFaultRetries     = "fault-retries"
	CtrFaultQuarantined = "fault-quarantined"
	// Simulated-workload totals accumulated over traced pairs.
	CtrKernelLaunches = "kernel-launches"
	CtrEdgeWork       = "edge-work"
	CtrAtomicPushes   = "atomic-pushes"
	// Campaign-server job accounting (emitted by internal/server).
	CtrJobsSubmitted = "jobs-submitted"
	CtrJobsDeduped   = "jobs-deduped"
	CtrJobsCached    = "jobs-result-cached"
	CtrJobsCompleted = "jobs-completed"
	CtrJobsFailed    = "jobs-failed"
	CtrJobsCanceled  = "jobs-canceled"
	// Finished jobs whose job-directory entry failed to write.
	CtrJobsPersistErrors = "jobs-persist-errors"
)

// Span names.
const (
	// SpanTracePair covers tracing one (application, input) pair on the
	// real (harness) track.
	SpanTracePair = "trace-pair"
	// SpanSweepJob covers evaluating one (chip, trace) job - all its
	// optimisation configurations - on the real track.
	SpanSweepJob = "sweep-job"
	// SpanSimTimeline is the root span of one pair's simulated kernel
	// timeline; its children are loop and kernel-launch spans named
	// after the application's own loops and kernels.
	SpanSimTimeline = "timeline"
	// SpanCampaign covers one campaign job executed by the server's
	// runner pool, from dequeue to terminal state, on the lane of the
	// runner that executed it.
	SpanCampaign = "campaign"
	// SpanHTTPRequest covers one API request from accept to response
	// on the server's HTTP lane; its endpoint attribute names the
	// route. For campaign submissions it is the root of the request
	// trace (validate and enqueue are its children, and the queue-wait
	// and campaign spans link back to it).
	SpanHTTPRequest = "http-request"
	// SpanValidate covers spec validation/resolution inside a submit.
	SpanValidate = "validate"
	// SpanEnqueue covers job registration and queue insertion inside a
	// submit.
	SpanEnqueue = "enqueue"
	// SpanQueueWait covers the time a job spends queued: opened when
	// the job is enqueued, closed when a runner dequeues it (or the
	// job is canceled while still queued).
	SpanQueueWait = "queue-wait"
)

// Event names.
const (
	// EvRetry marks one failed launch attempt inside a cell (the cell
	// was retried after a backoff).
	EvRetry = "retry"
	// EvCellFailed marks a cell abandoned after exhausting its retries.
	EvCellFailed = "cell-failed"
	// EvCacheEvict marks one LRU eviction in the trace cache.
	EvCacheEvict = "cache-evict"
	// EvCacheHeal marks a damaged cache entry detected, deleted and
	// scheduled for re-tracing.
	EvCacheHeal = "cache-heal"
	// EvTraceCached marks a pair whose trace was served from the cache
	// instead of executed.
	EvTraceCached = "trace-cached"
	// EvSubmitOutcome marks how a submission resolved (its outcome
	// attribute is queued, deduped, cached, requeued or rejected).
	EvSubmitOutcome = "submit-outcome"
)

// Attribute keys.
const (
	AttrApp      = "app"
	AttrInput    = "input"
	AttrChip     = "chip"
	AttrConfig   = "config"
	AttrAttempt  = "attempt"
	AttrKind     = "kind"
	AttrFrontier = "frontier"
	AttrEdges    = "edges"
	AttrPushes   = "pushes"
	AttrLaunch   = "launch"
	AttrLoop     = "loop"
	AttrIters    = "iterations"
	AttrPath     = "path"
	AttrJob      = "job"
	AttrEndpoint = "endpoint"
	AttrOutcome  = "outcome"
)

// Histogram names. All histograms observe deterministic (simulated or
// seeded) integer quantities, never wall-clock, so their snapshots are
// byte-stable across runs.
const (
	// HistFrontier observes the number of active work-items per kernel
	// launch.
	HistFrontier = "frontier-items"
	// HistLaunchEdges observes the edge work per kernel launch.
	HistLaunchEdges = "launch-edges"
	// HistCellAttempts observes launch attempts per measured cell.
	HistCellAttempts = "cell-attempts"
	// HistCellWaitNS observes per-cell virtual backoff/deadline time.
	HistCellWaitNS = "cell-wait-ns"
)

// Lane labels (real-track export threads with fixed roles; runner
// lanes are named dynamically).
const (
	// LaneHTTP is the lane the server's HTTP front end records its
	// request spans on (one past the runner lanes).
	LaneHTTP = "http"
)

// Realtime series names (the campaign server's WriteRealtime block,
// read from live server state at scrape time).
const (
	// TSQueueDepth gauges the number of campaigns waiting in the
	// scheduling queue.
	TSQueueDepth = "queue-depth"
	// TSRunnersBusy gauges how many campaign runners are executing a
	// job (worker utilization is TSRunnersBusy / configured runners).
	TSRunnersBusy = "runners-busy"
	// TSLatencyPrefix prefixes per-endpoint request-latency histogram
	// series; the endpoint name is appended ("http-latency:submit").
	TSLatencyPrefix = "http-latency:"
)

// HistBounds is the fixed upper-bound ladder shared by every
// histogram: powers of four from 1 to 4^15, plus an implicit +Inf
// overflow bucket. Fixed bounds are what make histogram snapshots
// byte-stable: two runs can only differ in counts, never in schema.
var HistBounds = [...]int64{
	1, 4, 16, 64, 256, 1024, 4096, 16384, 65536,
	262144, 1048576, 4194304, 16777216, 67108864, 268435456, 1073741824,
}

// HistBuckets is the number of counting buckets (bounds plus overflow).
const HistBuckets = len(HistBounds) + 1
