package measure

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"gpuport/internal/apps"
	"gpuport/internal/graph"
	"gpuport/internal/irgl"
	"gpuport/internal/obs"
	"gpuport/internal/tracecache"
)

// tracePair is one (input, application) unit of the trace phase, in the
// canonical input-major order the serial harness always used.
type tracePair struct {
	in  *graph.Graph
	app apps.App
}

func tracePairs(o *Options) []tracePair {
	pairs := make([]tracePair, 0, len(o.Inputs)*len(o.Apps))
	for _, in := range o.Inputs {
		for _, app := range o.Apps {
			pairs = append(pairs, tracePair{in, app})
		}
	}
	return pairs
}

// Traces obtains the trace of every (application, input) pair. Exposed
// separately so microbenchmarks and examples can reuse traces without
// collecting a full dataset.
//
// Pairs are traced concurrently by a worker pool (o.Workers, default
// GOMAXPROCS); the returned slice is in the canonical input-major order
// and bit-identical for any worker count, because every pair writes to
// a pre-assigned slot and applications are deterministic. When
// o.TraceCache is set, a pair whose trace is already cached under
// (app, app version, input fingerprint, validate flag) skips execution
// entirely; fresh traces are written back so an interrupted trace phase
// resumes where it left off. Cancelling o.Ctx stops the pool between
// pairs and returns the context's error.
func Traces(o Options) ([]*irgl.Trace, error) {
	o.fill()
	phase := o.Obs.StartSpan(obs.StageTrace, 0)
	defer phase.End()
	pairs := tracePairs(&o)

	// Fingerprint each input once, not once per pair: hashing a large
	// graph 17 times would eat a good slice of a warm run's win.
	var fps map[*graph.Graph]string
	if o.TraceCache != nil {
		fps = make(map[*graph.Graph]string, len(o.Inputs))
		for _, in := range o.Inputs {
			fps[in] = in.Fingerprint()
		}
	}

	// The first failure (a validation error) cancels the pool;
	// o.Ctx cancellation is distinguished from it on the way out.
	ctx, cancel := context.WithCancel(o.Ctx)
	defer cancel()
	var errOnce sync.Once
	var firstErr error
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	results := make([]*irgl.Trace, len(pairs))
	var pairsDone atomic.Int64
	runPool(ctx, o.Workers, len(pairs), func(w, i int) {
		p := pairs[i]
		// Span identity comes from (app, input); the worker id is
		// only the export lane, so the trace canonicalises
		// identically at any worker count.
		sp := phase.StartSpan(obs.SpanTracePair, w,
			obs.String(obs.AttrApp, p.app.Name), obs.String(obs.AttrInput, p.in.Name))
		tr, cached, err := traceOne(&o, p, fps[p.in])
		if err != nil {
			sp.End()
			fail(err)
			return
		}
		if cached {
			sp.Event(obs.EvTraceCached)
		}
		recordWorkload(&o, tr, i)
		sp.End()
		results[i] = tr
		if o.Notify != nil {
			o.Notify(obs.StageTrace, int(pairsDone.Add(1)), len(pairs))
		}
	})

	if err := o.Ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// traceOne produces the trace of one pair, through the cache when one
// is configured. The reported cached flag is true for a cache hit.
func traceOne(o *Options, p tracePair, fp string) (*irgl.Trace, bool, error) {
	var key tracecache.Key
	if o.TraceCache != nil {
		key = tracecache.Key{App: p.app.Name, AppVersion: p.app.Version, GraphFP: fp, Validated: o.Validate}
		if tr, ok := o.TraceCache.Get(key); ok {
			// Belt and braces: the key's fingerprint already pins the
			// identity, but a tampered entry with a valid checksum must
			// still never impersonate another pair.
			if tr.App == p.app.Name && tr.Input == p.in.Name {
				o.Obs.Add(obs.CtrCacheHits, 1)
				return tr, true, nil
			}
			o.Obs.Add(obs.CtrCacheMismatches, 1)
		}
		o.Obs.Add(obs.CtrCacheMisses, 1)
	}
	tr, output := p.app.Run(p.in)
	if o.Validate {
		if err := p.app.Check(p.in, output); err != nil {
			return nil, false, fmt.Errorf("measure: %s on %s failed validation: %w", p.app.Name, p.in.Name, err)
		}
	}
	if o.TraceCache != nil {
		// A failed write is an observability event, not a failure: the
		// trace is good, it just will not be cached.
		if err := o.TraceCache.Put(key, tr); err != nil {
			o.Obs.Add(obs.CtrCachePutErrors, 1)
		}
	}
	return tr, false, nil
}

// recordWorkload accumulates the simulated-workload accounting of one
// traced pair: launch/edge/push totals, the per-launch frontier and
// edge-work histograms (batched worker-locally, merged once), and -
// when the recorder captures the simulated timeline - the pair's
// virtual kernel timeline on lane pairIdx.
func recordWorkload(o *Options, tr *irgl.Trace, pairIdx int) {
	o.Obs.Add(obs.CtrKernelLaunches, int64(tr.TotalLaunches()))
	o.Obs.Add(obs.CtrEdgeWork, tr.TotalEdgeWork())
	o.Obs.Add(obs.CtrAtomicPushes, tr.TotalAtomicPushes())
	var frontier, edges obs.Hist
	for i := range tr.Launches {
		frontier.Observe(tr.Launches[i].Items)
		edges.Observe(tr.Launches[i].TotalWork)
	}
	o.Obs.MergeHist(obs.HistFrontier, &frontier)
	o.Obs.MergeHist(obs.HistLaunchEdges, &edges)
	tr.EmitSim(o.Obs, pairIdx)
}
