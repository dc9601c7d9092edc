package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/graph"
	"gpuport/internal/measure"
	"gpuport/internal/obs"
	"gpuport/internal/server"
	"gpuport/internal/tracecache"
)

// offeredRate is the open loop's fixed send rate in campaigns per
// second: half of the ~11/s the daemon sustains on this mix on a 2-CPU
// x86-64 host, found by stepping -rate until the backlog grew.
// README.md lists the steps.
const offeredRate = 5.5

// Open-loop health: a run whose generator ran later than this at p90,
// or that ends its window with more campaigns outstanding than this, is
// reported as invalid rather than as latency.
const (
	maxLatenessP90 = time.Second
	maxBacklogEnd  = 4
)

// maxConns bounds the load generator's connections and work goroutines.
const maxConns = 2

// daemon is an in-process gpuportd: the campaign server behind a
// loopback HTTP listener, with its own trace cache and job directory.
type daemon struct {
	srv     *server.Server
	cache   *tracecache.Store
	hs      *http.Server
	url     string
	client  *http.Client
	cancel  context.CancelFunc
	serving chan error
}

// bootDaemon starts a daemon over empty state under dir, configured as
// gpuportd's defaults configure it, and waits until it answers.
func bootDaemon(dir string) (*daemon, error) {
	rec := obs.New().EnableTracing()
	cache, err := tracecache.Open(filepath.Join(dir, "trace-cache"), 0)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := server.New(server.Config{
		Ctx:        ctx,
		JobDir:     filepath.Join(dir, "jobs"),
		Obs:        rec,
		TraceCache: cache.SetObs(rec),
	})
	if err != nil {
		cancel()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		cancel()
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		cache:  cache,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		cancel: cancel,
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns},
			Timeout:   2 * time.Minute,
		},
		serving: make(chan error, 1),
	}
	go func() { d.serving <- d.hs.Serve(ln) }()
	resp, err := d.client.Get(d.url + "/healthz")
	if err != nil {
		d.close()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return d, nil
}

// close stops the listener, the server and its runners, and waits for
// all of them.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // best-effort: Serve's exit is awaited below
	d.client.CloseIdleConnections()
	d.srv.Close()
	d.cancel()
	<-d.serving
}

// serveRefs is what verifies the daemon's answers: the standard inputs
// and a trace cache private to the benchmark, filled during set-up.
type serveRefs struct {
	inputs map[string]*graph.Graph
	names  []string // standard input names, in study order
	cache  *tracecache.Store
}

// prepareRefs generates the standard inputs and traces every (app,
// input) pair into a private cache.
func (b *bench) prepareRefs(dir string) (*serveRefs, error) {
	cache, err := tracecache.Open(filepath.Join(dir, "ref-cache"), 0)
	if err != nil {
		return nil, err
	}
	refs := &serveRefs{inputs: map[string]*graph.Graph{}, cache: cache}
	inputs := graph.StandardInputs()
	for _, g := range inputs {
		refs.inputs[g.Name] = g
		refs.names = append(refs.names, g.Name)
	}
	if _, err := measure.Traces(measure.Options{Inputs: inputs, Workers: b.workers, TraceCache: cache}); err != nil {
		return nil, err
	}
	return refs, nil
}

// outcome is what one campaign of the open loop saw; times are relative
// to the start of the window.
type outcome struct {
	sent, done         time.Duration
	submitMS, resultMS float64
	status             int    // first non-2xx status, or 200
	err                error  // transport or protocol failure
	sum                string // sha256 of the result CSV
	bytes              int
}

// failure classifies a campaign that failed - "transport" for a
// request that got no response, "http-<status>" for a refused or
// non-2xx one - and is "" for one that was served.
func (o outcome) failure() string {
	switch {
	case o.err != nil:
		return "transport"
	case o.status != http.StatusOK:
		return fmt.Sprintf("http-%d", o.status)
	}
	return ""
}

// runServeMix drives the serve-mix workload: an in-process gpuportd on
// loopback HTTP over an empty trace cache and job directory, sent a
// seeded campaign mix by an open loop at offeredRate. Each campaign is
// a POST followed by a blocking GET of its result, timed from its
// scheduled send time to the last result byte.
func runServeMix(b *bench) error {
	var d *daemon
	var refs *serveRefs
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.close()
		}
		dir := filepath.Join(b.dir, fmt.Sprintf("serve-%d", i))
		err := b.setupRep(func() (err error) {
			if refs, err = b.prepareRefs(dir); err != nil {
				return fmt.Errorf("references: %w", err)
			}
			d, err = bootDaemon(dir)
			return err
		})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	defer d.close()

	var chips, appNames []string
	for _, ch := range chip.All() {
		chips = append(chips, ch.Name)
	}
	for _, a := range apps.All() {
		appNames = append(appNames, a.Name)
	}
	interval := time.Duration(float64(time.Second) / b.rate)
	n := int(b.window / interval)
	mix := genMix(b.seed, n, interval, chips, appNames, refs.names)
	b.info["load"] = "open loop"
	b.info["offered_rate"] = b.rate
	b.info["connections"] = maxConns

	if err := b.startWindow(); err != nil {
		return err
	}
	outs := b.openLoop(d, mix, b.t0)
	if err := b.endWindow(); err != nil {
		return err
	}

	// Account and time every campaign, then verify every served result
	// against measure.Collect of the same spec.
	var lateness []float64
	for i, o := range outs {
		lateness = append(lateness, float64(o.sent-mix[i].due)/1e6)
		if reason := o.failure(); reason != "" {
			b.tally.fail(reason)
			continue
		}
		b.tally.ok()
		b.timeOp(float64(o.done-mix[i].due)/1e6, b.traced && i%2 == 1)
	}
	backlog := backlogAt(mix, outs, b.window)
	lateP90 := percentile(lateness, 90)
	b.info["lateness_p90_ms"] = lateP90
	b.info["backlog_end"] = backlog
	b.info["backlog_mid"] = backlogAt(mix, outs, b.window/2)
	switch {
	case lateP90 > float64(maxLatenessP90)/1e6:
		b.invalid = fmt.Sprintf("generator lateness p90 %.0f ms exceeds %v", lateP90, maxLatenessP90)
	case backlog > maxBacklogEnd:
		b.invalid = fmt.Sprintf("%d campaigns outstanding at the end of the window (bound %d)", backlog, maxBacklogEnd)
	}

	p := b.probes()
	if err := b.verifyServed(p, mix, outs, refs); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if b.traced {
		if err := b.serveProbes(p, d, mix, outs, refs); err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
		p.note("serve.lateness_p90_ms", lateP90)
		p.note("serve.backlog_end", float64(backlog))
	}
	p.end()
	if b.traced {
		b.flushOp()
	}
	return nil
}

// openLoop sends every campaign at its due time from at most maxConns
// work goroutines, and returns what each saw. A campaign due while
// every goroutine is busy is sent as soon as one frees up; its wait
// counts in its latency, which is timed from its due time.
func (b *bench) openLoop(d *daemon, mix []campaign, start time.Time) []outcome {
	outs := make([]outcome, len(mix))
	workers := b.workers
	if workers > maxConns {
		workers = maxConns
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(mix) {
					return
				}
				if wait := mix[i].due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				outs[i] = b.send(d, mix[i], i, start)
			}
		}()
	}
	wg.Wait()
	return outs
}

// send runs one campaign: POST the spec, then GET the result with
// wait=1 and read it to the last byte.
func (b *bench) send(d *daemon, c campaign, i int, start time.Time) outcome {
	o := outcome{sent: time.Since(start), status: http.StatusOK}
	op := b.op("campaign", i, b.traced && i%2 == 1)
	defer op.end()

	body, err := json.Marshal(c.spec)
	if err != nil {
		o.err = err
		return o
	}
	sub := op.child("server.submit")
	var st server.Status
	status, raw, err := d.do(http.MethodPost, "/v1/campaigns", body)
	o.submitMS = sub.end() * 1e3
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(raw, &st)
	}
	if o.err, o.status = err, status; err != nil || status != http.StatusOK {
		return o
	}

	res := op.child("server.result")
	status, raw, err = d.do(http.MethodGet, "/v1/campaigns/"+st.ID+"/result?wait=1", nil)
	o.resultMS = res.end() * 1e3
	o.done = time.Since(start)
	if o.err, o.status = err, status; err != nil || status != http.StatusOK {
		return o
	}
	sum := sha256.Sum256(raw)
	o.sum = fmt.Sprintf("%x", sum)
	o.bytes = len(raw)
	return o
}

// do sends one request and reads the whole response.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// backlogAt counts the campaigns due by t that had not finished by t:
// queued in the generator, in flight, or failed.
func backlogAt(mix []campaign, outs []outcome, t time.Duration) int {
	n := 0
	for i, c := range mix {
		if c.due <= t && (outs[i].done == 0 || outs[i].done > t) {
			n++
		}
	}
	return n
}

// specKey is a spec's identity for verification: its canonical JSON.
func specKey(s server.Spec) string {
	raw, _ := json.Marshal(s) // a Spec always marshals
	return string(raw)
}

// verifyServed recomputes every distinct campaign with measure.Collect
// over the benchmark's own inputs and trace cache, and counts each
// served result that differs from it as a failed operation.
func (b *bench) verifyServed(p *span, mix []campaign, outs []outcome, refs *serveRefs) error {
	want := map[string]string{}
	for i, c := range mix {
		if outs[i].failure() != "" {
			continue
		}
		key := specKey(c.spec)
		sum, ok := want[key]
		if !ok {
			opts, err := b.localOptions(c.spec, refs)
			if err != nil {
				return err
			}
			d, err := measure.Collect(opts)
			if err != nil {
				return err
			}
			wr := p.child("dataset.write_csv", obs.Int("campaign", int64(i)))
			var buf bytes.Buffer
			if err := d.WriteCSV(&buf); err != nil {
				return err
			}
			wr.endLayer("dataset.write_csv_s")
			p.note("measure.cells", float64(d.Len()))
			sum = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
			want[key] = sum
		}
		if outs[i].sum != sum {
			b.tally.recheck("result-mismatch")
		}
	}
	return nil
}

// localOptions compiles a spec the way the daemon's Spec.Resolve does,
// but over the benchmark's pre-generated inputs and private trace cache.
func (b *bench) localOptions(s server.Spec, refs *serveRefs) (measure.Options, error) {
	o := measure.Options{Seed: s.Seed, Runs: s.Runs, Workers: b.workers, TraceCache: refs.cache}
	if o.Runs == 0 {
		o.Runs = 3
	}
	for _, name := range s.Chips {
		ch, err := chip.ByName(name)
		if err != nil {
			return o, err
		}
		o.Chips = append(o.Chips, ch)
	}
	for _, name := range s.Apps {
		a, err := apps.ByName(name)
		if err != nil {
			return o, err
		}
		o.Apps = append(o.Apps, a)
	}
	for _, name := range s.Inputs {
		g, ok := refs.inputs[name]
		if !ok {
			return o, fmt.Errorf("unknown input %q", name)
		}
		o.Inputs = append(o.Inputs, g)
	}
	return o, nil
}

// resolveSamples is how many distinct specs the traced run resolves to
// time Spec.Resolve.
const resolveSamples = 5

// serveProbes derives the traced run's per-layer figures from the
// client's timings, the daemon's own spans and counters, and probes of
// the graph, trace-cache and server layers.
func (b *bench) serveProbes(p *span, d *daemon, mix []campaign, outs []outcome, refs *serveRefs) error {
	var submit, result []float64
	served := 0
	for _, o := range outs {
		if o.failure() == "" {
			submit = append(submit, o.submitMS)
			result = append(result, o.resultMS)
			served += o.bytes
		}
	}
	p.note("server.submit_ms_p50", median(submit))
	p.note("server.result_ms_p50", median(result))
	p.note("dataset.csv_bytes", float64(served))

	snap := d.srv.Snapshot()
	var queueWait, run []float64
	for _, sp := range snap.Spans {
		switch sp.Name {
		case obs.SpanQueueWait:
			queueWait = append(queueWait, float64(sp.DurNS)/1e6)
		case obs.SpanCampaign:
			run = append(run, float64(sp.DurNS)/1e6)
		}
	}
	p.note("server.queue_wait_ms_p50", median(queueWait))
	p.note("server.run_ms_p50", median(run))
	sum := snap.Summary
	p.note("server.dedupe_ratio", ratio(float64(sum.Counter(obs.CtrJobsDeduped)+sum.Counter(obs.CtrJobsCached)), float64(len(mix))))
	hits, misses := float64(sum.Counter(obs.CtrCacheHits)), float64(sum.Counter(obs.CtrCacheMisses))
	p.note("tracecache.hits", hits)
	p.note("tracecache.misses", misses)
	p.note("tracecache.hit_ratio", ratio(hits, hits+misses))
	p.note("measure.sweep_s", sum.StageDuration(obs.StageSweep).Seconds())
	p.note("measure.assemble_s", sum.StageDuration(obs.StageAssemble).Seconds())
	traceWall := sum.StageDuration(obs.StageTrace).Seconds()
	p.note("irgl.trace_wall_s", traceWall)
	p.traceFigures(snap, traceWall)
	b.rec.Adopt(snap, 0, p.h.ID())

	var resolveMS []float64
	seen := map[string]bool{}
	for _, c := range mix {
		key := specKey(c.spec)
		if seen[key] || len(resolveMS) == resolveSamples {
			continue
		}
		seen[key] = true
		rs := p.child("server.resolve", obs.Int("sample", int64(len(resolveMS))))
		_, _, errs := c.spec.Resolve()
		resolveMS = append(resolveMS, rs.end()*1e3)
		if errs != nil {
			return errs
		}
	}
	p.note("server.resolve_ms", median(resolveMS))

	gg := p.child("graph.generate")
	inputs := graph.StandardInputs()
	gg.endLayer("graph.generate_s")
	fp := p.child("graph.fingerprint")
	fps := map[string]string{}
	for _, g := range inputs {
		fps[g.Name] = g.Fingerprint()
	}
	fp.endLayer("graph.fingerprint_s")

	// The trace-cache probes read every entry the daemon's cache holds
	// for the study's pairs and write them to a fresh store.
	put, err := tracecache.Open(filepath.Join(b.dir, "probe-cache"), 0)
	if err != nil {
		return err
	}
	var keys []tracecache.Key
	for _, a := range apps.All() {
		for _, name := range refs.names {
			keys = append(keys, tracecache.Key{App: a.Name, AppVersion: a.Version, GraphFP: fps[name]})
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].App+keys[i].GraphFP < keys[j].App+keys[j].GraphFP })
	for i, k := range keys {
		key := obs.Int("key", int64(i))
		gs := p.child("tracecache.get", key)
		tr, ok := d.cache.Get(k)
		gs.endLayer("tracecache.get_s")
		if !ok {
			continue
		}
		ps := p.child("tracecache.put", key)
		err := put.Put(k, tr)
		ps.endLayer("tracecache.put_s")
		if err != nil {
			return err
		}
	}
	return nil
}
