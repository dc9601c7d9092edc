package measure

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"gpuport/internal/dataset"
	"gpuport/internal/obs"
	"gpuport/internal/tracecache"
)

// Campaign is one portability study as a resumable job object: the
// semantic identity of a sweep (what is measured - chips, apps, inputs,
// config subspace - under which seed, sampling budget and fault policy)
// separated from the runtime bindings of one execution (context,
// workers, cache, recorder, checkpoint file). The identity is
// content-addressed by Fingerprint, so two campaigns with equal
// fingerprints produce bit-identical datasets and a finished result can
// be served from a cache without re-running anything; the bindings are
// supplied per execution through Env, so the same campaign can run,
// be cancelled, and resume later under a different context and worker
// budget while remaining the same job.
type Campaign struct {
	o Options
}

// NewCampaign resolves the semantic grid of o (nil axes become the
// full study axes) and captures it as a job object. Runtime bindings
// present in o (context, cache, recorder, workers, checkpoint) are
// carried along as defaults and overridden per execution by Env.
func NewCampaign(o Options) *Campaign {
	o.fillGrid()
	return &Campaign{o: o}
}

// Options returns a copy of the campaign's resolved options.
func (c *Campaign) Options() Options { return c.o }

// Cells returns the intended sweep size of the campaign.
func (c *Campaign) Cells() int {
	return len(c.o.Chips) * len(c.o.Apps) * len(c.o.Inputs) * len(c.o.Configs)
}

// campaignFPVersion versions the fingerprint preimage. Bump it when
// the identity schema changes; every persisted result keyed by an old
// fingerprint then misses, which is the safe failure mode.
const campaignFPVersion = "gpuport-campaign-v1"

// Fingerprint content-addresses the campaign's semantic identity:
// seed, sampling budget, validation flag, chip set, application set
// (name and version token), input set (name and graph content
// fingerprint), configuration subspace, and the full fault profile.
// Runtime bindings (workers, cache, recorder, checkpoint path) do not
// participate: they are proven not to change the dataset. The digest
// is a hex sha256, stable across processes and machines.
func (c *Campaign) Fingerprint() string {
	h := sha256.New()
	field := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	field(campaignFPVersion)
	field(strconv.FormatUint(c.o.Seed, 10))
	field(strconv.Itoa(c.o.Runs))
	field(strconv.FormatBool(c.o.Validate))
	for _, ch := range c.o.Chips {
		field("chip=" + ch.Name)
	}
	for _, a := range c.o.Apps {
		field("app=" + a.Name + "@" + a.Version)
	}
	for _, in := range c.o.Inputs {
		field("input=" + in.Name + "#" + in.Fingerprint())
	}
	for _, cfg := range c.o.Configs {
		field("config=" + cfg.String())
	}
	field("faults=" + c.o.Faults.String())
	return hex.EncodeToString(h.Sum(nil))
}

// Env binds one execution of a campaign to runtime resources. Every
// field is optional; the zero value runs the campaign standalone with
// the defaults captured at NewCampaign time.
type Env struct {
	// Workers caps the trace and cost-evaluation worker pools
	// (0 means GOMAXPROCS). The dataset is bit-identical either way.
	Workers int
	// TraceCache short-circuits the trace phase through the shared
	// content-addressed store; safe for concurrent campaigns.
	TraceCache *tracecache.Store
	// Obs receives the execution's stage timings, counters and spans.
	// Give each execution its own recorder for per-job isolation.
	Obs *obs.Recorder
	// Notify receives coarse progress events (see Options.Notify).
	Notify func(phase string, done, total int)
	// Checkpoint names the CSV shard file making the execution
	// resumable; cells already persisted there are not re-measured.
	Checkpoint string
}

// Run executes the campaign under ctx with the given bindings and
// returns the dataset plus the per-cell collection report. The dataset
// depends only on the campaign's identity: re-running, resuming from
// the checkpoint, sharing the trace cache with concurrent campaigns
// and changing the worker count all produce the same bits.
func (c *Campaign) Run(ctx context.Context, env Env) (*dataset.Dataset, *Report, error) {
	o := c.o
	if ctx != nil {
		o.Ctx = ctx
	}
	if env.Workers != 0 {
		o.Workers = env.Workers
	}
	if env.TraceCache != nil {
		o.TraceCache = env.TraceCache
	}
	if env.Obs != nil {
		o.Obs = env.Obs
	}
	if env.Notify != nil {
		o.Notify = env.Notify
	}
	if env.Checkpoint != "" {
		o.Checkpoint = env.Checkpoint
	}
	return CollectReport(o)
}
