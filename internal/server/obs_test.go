package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuport/internal/obs"
	"gpuport/internal/tracecache"
)

// connectedTraceRun boots a tracing server, submits the golden spec
// over HTTP, waits for completion and returns the raw and canonical
// Chrome trace exports. Campaigns stays fixed (runner lane names are
// part of the export); workers is the per-campaign pool size, which
// must never change a single canonical byte.
func connectedTraceRun(t *testing.T, workers int) (raw, canonical []byte) {
	t.Helper()
	_, ts := httpServer(t, Config{
		Campaigns: 2,
		Workers:   workers,
		Obs:       obs.New().EnableSim(),
	})
	resp, body := postJSON(t, ts.URL+"/v1/campaigns", testSpecJSON)
	if resp.StatusCode != 200 {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	resp, result := get(t, ts.URL+"/v1/campaigns/"+st.ID+"/result?wait=1")
	if resp.StatusCode != 200 {
		t.Fatalf("result status = %d: %s", resp.StatusCode, result)
	}
	_, raw = get(t, ts.URL+"/debug/obs-trace")
	canonical, err := obs.CanonicalTrace(raw)
	if err != nil {
		t.Fatal(err)
	}
	return raw, canonical
}

// traceSpan is the decoded identity of one exported complete event.
type traceSpan struct {
	id, parent, trace, links string
}

// spansByName indexes a raw Chrome trace's complete events by name.
func spansByName(t *testing.T, raw []byte) map[string][]traceSpan {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not Chrome trace JSON: %v", err)
	}
	str := func(args map[string]any, key string) string {
		s, _ := args[key].(string)
		return s
	}
	out := map[string][]traceSpan{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		out[ev.Name] = append(out[ev.Name], traceSpan{
			id:     str(ev.Args, "id"),
			parent: str(ev.Args, "parent"),
			trace:  str(ev.Args, "trace"),
			links:  str(ev.Args, "links"),
		})
	}
	return out
}

// TestConnectedTraceGolden proves the tentpole contract: one campaign
// submitted over HTTP yields a single connected trace - request,
// validate, enqueue, queue-wait, campaign and pipeline spans all under
// one content-addressed trace ID - whose canonical export is
// byte-identical across runs and across worker counts, pinned by a
// golden file.
func TestConnectedTraceGolden(t *testing.T) {
	raw, first := connectedTraceRun(t, 1)
	_, again := connectedTraceRun(t, 1)
	_, wide := connectedTraceRun(t, 4)

	if !bytes.Equal(first, again) {
		t.Fatal("canonical trace differs between two identical runs")
	}
	if !bytes.Equal(first, wide) {
		t.Fatal("canonical trace differs between workers=1 and workers=4")
	}
	golden(t, "obs_trace.golden.txt", first)

	spans := spansByName(t, raw)
	for _, name := range []string{
		obs.SpanHTTPRequest, obs.SpanValidate, obs.SpanEnqueue,
		obs.SpanQueueWait, obs.SpanCampaign, obs.SpanTracePair,
		obs.SpanSweepJob, obs.SpanSimTimeline,
	} {
		if len(spans[name]) == 0 {
			t.Fatalf("trace has no %q span", name)
		}
	}
	req := spans[obs.SpanHTTPRequest][0]
	if req.trace == "" {
		t.Fatal("request span carries no trace ID")
	}
	// Every span of the campaign's journey shares the request's trace.
	for name, list := range spans {
		for _, sp := range list {
			if sp.trace != req.trace {
				t.Errorf("%s span trace = %q, want %q (one connected trace)", name, sp.trace, req.trace)
			}
		}
	}
	// The async handoff: queue-wait hangs off the request span, and the
	// runner's campaign span links back to it across the queue boundary.
	if got := spans[obs.SpanQueueWait][0].parent; got != req.id {
		t.Errorf("queue-wait parent = %q, want request span %q", got, req.id)
	}
	camp := spans[obs.SpanCampaign][0]
	if !strings.Contains(camp.links, req.id) {
		t.Errorf("campaign links = %q, want to include request span %q", camp.links, req.id)
	}
	// The pipeline's stage roots were re-parented under the campaign
	// span, so every pipeline span's ancestry reaches the campaign.
	parentOf := map[string]string{}
	for _, list := range spans {
		for _, sp := range list {
			parentOf[sp.id] = sp.parent
		}
	}
	reaches := func(id, ancestor string) bool {
		for hops := 0; id != "" && hops < 32; hops++ {
			if id == ancestor {
				return true
			}
			id = parentOf[id]
		}
		return false
	}
	for _, name := range []string{obs.SpanTracePair, obs.SpanSweepJob} {
		for _, sp := range spans[name] {
			if !reaches(sp.id, camp.id) {
				t.Errorf("%s span %q does not descend from campaign span %q", name, sp.id, camp.id)
			}
		}
	}
}

// TestCanonicalMetricsStableAcrossRuns proves the /metrics surface -
// with the realtime block stripped alongside the stage-seconds
// family - is byte-identical across runs and worker counts too.
func TestCanonicalMetricsStableAcrossRuns(t *testing.T) {
	fetch := func(workers int) []byte {
		s, ts := httpServer(t, Config{Campaigns: 2, Workers: workers, Obs: obs.New().EnableSim()})
		j := submit(t, s, testSpec())
		waitDone(t, j)
		_, metrics := get(t, ts.URL+"/metrics")
		return obs.CanonicalMetrics(metrics)
	}
	first := fetch(1)
	if len(first) == 0 {
		t.Fatal("canonical metrics are empty")
	}
	if bytes.Contains(first, []byte(obs.RealtimePrefix)) {
		t.Fatalf("canonical metrics still contain realtime series:\n%s", first)
	}
	if wide := fetch(4); !bytes.Equal(first, wide) {
		t.Fatalf("canonical metrics differ between workers=1 and workers=4:\n--- w1\n%s\n--- w4\n%s", first, wide)
	}
}

// metricLines scrapes /metrics and returns its lines as a set.
func metricLines(t *testing.T, url string) map[string]bool {
	t.Helper()
	_, body := get(t, url+"/metrics")
	lines := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		lines[line] = true
	}
	return lines
}

// TestServerRealtimeMetrics reads the realtime block at scrape time:
// the gauges follow the live queue and runner state with no sampling
// tick, and the submit's latency and the campaign's trace-cache miss
// show once the campaign has finished.
func TestServerRealtimeMetrics(t *testing.T) {
	s, ts := pausedServer(t)
	var ids []string
	for seed := 1; seed <= 3; seed++ {
		j := submit(t, s, Spec{Seed: uint64(seed), Chips: []string{"M4000"}, Apps: []string{"bfs-wl"}, Inputs: []string{"rand-8k"}})
		ids = append(ids, j.ID())
	}
	lines := metricLines(t, ts.URL)
	for _, want := range []string{
		obs.RealtimePrefix + `gauge{name="queue-depth"} 3`,
		obs.RealtimePrefix + `gauge{name="runners-busy"} 0`,
	} {
		if !lines[want] {
			t.Errorf("metrics missing %q", want)
		}
	}
	req, err := http.NewRequest("DELETE", ts.URL+"/v1/campaigns/"+ids[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	if want := obs.RealtimePrefix + `gauge{name="queue-depth"} 2`; !metricLines(t, ts.URL)[want] {
		t.Errorf("metrics missing %q after the cancel", want)
	}

	cache, err := tracecache.Open(t.TempDir(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	_, ts = httpServer(t, Config{TraceCache: cache})
	resp, body := postJSON(t, ts.URL+"/v1/campaigns", testSpecJSON)
	if resp.StatusCode != 200 {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if resp, result := get(t, ts.URL+"/v1/campaigns/"+st.ID+"/result?wait=1"); resp.StatusCode != 200 {
		t.Fatalf("result status = %d: %s", resp.StatusCode, result)
	}
	lines = metricLines(t, ts.URL)
	for _, want := range []string{
		obs.RealtimePrefix + `hist_count{name="http-latency:submit"} 1`,
		`gpuport_counter_total{name="trace-cache-misses"} 1`,
	} {
		if !lines[want] {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRealtimeMetricsUnderRace serves requests on several endpoints
// while other goroutines scrape /metrics; run with -race it proves the
// latency histograms are race-free, and no observation is lost: each
// endpoint's final count equals its request count.
func TestRealtimeMetricsUnderRace(t *testing.T) {
	_, ts := pausedServer(t)
	const clients, requests, scrapers = 3, 20, 2
	paths := map[string]string{
		endpointHealthz: "/healthz",
		endpointList:    "/v1/campaigns",
		endpointStatus:  "/v1/campaigns/deadbeef00000000",
		endpointResult:  "/v1/campaigns/deadbeef00000000/result",
	}
	fetch := func(path string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var wg sync.WaitGroup
	for _, path := range paths {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < requests; i++ {
					fetch(path)
				}
			}()
		}
	}
	for c := 0; c < scrapers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				fetch("/metrics")
			}
		}()
	}
	wg.Wait()

	// The final scrape is observed only after it has been written, so
	// it reports the concurrent scrapes alone.
	lines := metricLines(t, ts.URL)
	counts := map[string]int{endpointMetrics: scrapers * requests}
	for endpoint := range paths {
		counts[endpoint] = clients * requests
	}
	for endpoint, n := range counts {
		want := fmt.Sprintf(`%shist_count{name="%s%s"} %d`, obs.RealtimePrefix, obs.TSLatencyPrefix, endpoint, n)
		if !lines[want] {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestHTTPObsStream reads the live NDJSON telemetry stream while a
// campaign runs: every line parses as a StreamEvent, span and counter
// events both appear, and the campaign's spans carry its trace ID.
func TestHTTPObsStream(t *testing.T) {
	s, ts := httpServer(t, Config{})

	// The stream registers its watcher before responding with headers,
	// so events published after this Get returns cannot be missed.
	stream, err := http.Get(ts.URL + "/debug/obs-stream?max=12")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content-type = %q", ct)
	}

	j := submit(t, s, testSpec())
	waitDone(t, j)

	var events []obs.StreamEvent
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		var ev obs.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 12 {
		t.Fatalf("stream delivered %d events, want 12 (max)", len(events))
	}
	kinds := map[string]int{}
	var traced int
	for _, ev := range events {
		kinds[ev.Kind]++
		if ev.Kind == obs.StreamSpan && ev.Trace != "" {
			traced++
		}
	}
	if kinds[obs.StreamSpan] == 0 || kinds[obs.StreamCounter] == 0 {
		t.Fatalf("stream kinds = %v, want both span and counter events", kinds)
	}
	if traced == 0 {
		t.Fatal("no streamed span carried a trace ID")
	}
}

// TestPipelineSpansInsideParents holds every real-track span of a
// campaign to its parent's interval on the daemon's clock. The idle gap
// before the submit puts that clock well ahead of any clock the
// campaign could start for itself. queue-wait is exempt: it runs from
// the enqueue to a runner's dequeue, past the end of its request.
func TestPipelineSpansInsideParents(t *testing.T) {
	s := newTestServer(t, Config{})
	s.rec.NowNS() // starts the daemon's clock
	time.Sleep(20 * time.Millisecond)
	waitDone(t, submit(t, s, testSpec()))

	byID := map[uint64]obs.Span{}
	for _, sp := range s.Snapshot().Spans {
		if sp.Track == obs.TrackReal {
			byID[sp.ID] = sp
		}
	}
	for _, sp := range byID {
		if sp.Name == obs.SpanHTTPRequest || sp.Name == obs.SpanCampaign || sp.Name == obs.SpanQueueWait {
			continue
		}
		p, ok := byID[sp.Parent]
		if !ok {
			t.Errorf("%s span has no parent in the trace", sp.Name)
			continue
		}
		if sp.StartNS < p.StartNS || sp.StartNS+sp.DurNS > p.StartNS+p.DurNS {
			t.Errorf("%s span [%d, %d] ns lies outside its parent %s [%d, %d] ns",
				sp.Name, sp.StartNS, sp.StartNS+sp.DurNS, p.Name, p.StartNS, p.StartNS+p.DurNS)
		}
	}
}

// TestCampaignSpanIDsDistinct runs two one-chip campaigns over the
// same app and input on one simulating daemon. Their pipelines record
// the same stage, pair and timeline spans, each through its own
// scoped view, yet no two spans of the daemon's trace, on either
// track, may share an ID.
func TestCampaignSpanIDsDistinct(t *testing.T) {
	s := newTestServer(t, Config{Obs: obs.New().EnableSim()})
	for _, chipName := range []string{"M4000", "GTX1080"} {
		spec := testSpec()
		spec.Chips = []string{chipName}
		waitDone(t, submit(t, s, spec))
	}
	spans := s.Snapshot().Spans
	ids := map[uint64]bool{}
	for _, sp := range spans {
		ids[sp.ID] = true
	}
	if len(ids) != len(spans) {
		t.Errorf("%d spans carry only %d distinct IDs", len(spans), len(ids))
	}
}

// streamCampaign runs testSpec on a simulating server while reading
// /debug/obs-stream, and returns the events streamed up to a sentinel
// (a rejected submit, made once the campaign is done) together with
// the recorder's snapshot at that point.
func streamCampaign(t *testing.T) ([]obs.StreamEvent, *obs.Snapshot) {
	t.Helper()
	s, ts := httpServer(t, Config{Obs: obs.New().EnableSim()})
	stream, err := http.Get(ts.URL + "/debug/obs-stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	waitDone(t, submit(t, s, testSpec()))
	if _, _, errs := s.Submit(Spec{Chips: []string{"H100"}}); errs == nil {
		t.Fatal("sentinel spec was accepted")
	}
	// The campaign streams a few dozen events, far below the watcher's
	// buffer, so reading them after the fact drops none.
	var events []obs.StreamEvent
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		var ev obs.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Kind == obs.StreamSpan && ev.Name == obs.SpanHTTPRequest && ev.Trace == "" {
			return events, s.Snapshot()
		}
		events = append(events, ev)
	}
	t.Fatalf("stream ended before the sentinel: %v", sc.Err())
	return nil, nil
}

// TestStreamCounterDeltasSumToTotals requires the stream to carry each
// counter increment once: per counter, the streamed deltas add up to
// the recorder's final value.
func TestStreamCounterDeltasSumToTotals(t *testing.T) {
	events, snap := streamCampaign(t)
	sums := map[string]int64{}
	for _, ev := range events {
		if ev.Kind == obs.StreamCounter {
			sums[ev.Name] += ev.Delta
		}
	}
	if len(snap.Counters) == 0 {
		t.Fatal("the campaign recorded no counters")
	}
	for _, c := range snap.Counters {
		if sums[c.Name] != c.Value {
			t.Errorf("counter %s: streamed deltas sum to %d, recorder holds %d", c.Name, sums[c.Name], c.Value)
		}
	}
}

// TestStreamSpanParentsMatchSnapshot requires every streamed span
// close to name the parent the recorder's snapshot gives that span,
// on both tracks.
func TestStreamSpanParentsMatchSnapshot(t *testing.T) {
	events, snap := streamCampaign(t)
	hex := func(id uint64) string {
		if id == 0 {
			return ""
		}
		return "0x" + strconv.FormatUint(id, 16)
	}
	parent := map[string]string{}
	for _, sp := range snap.Spans {
		parent[hex(sp.ID)] = hex(sp.Parent)
	}
	tracks := map[string]int{}
	for _, ev := range events {
		if ev.Kind != obs.StreamSpan {
			continue
		}
		tracks[ev.Track]++
		want, ok := parent[ev.Span]
		if !ok {
			t.Errorf("streamed %s span %s is not in the snapshot", ev.Name, ev.Span)
			continue
		}
		if ev.Parent != want {
			t.Errorf("streamed %s span %s names parent %q, the snapshot %q", ev.Name, ev.Span, ev.Parent, want)
		}
	}
	if tracks[obs.TrackReal.String()] == 0 || tracks[obs.TrackSim.String()] == 0 {
		t.Fatalf("streamed spans per track = %v, want both tracks", tracks)
	}
}

// TestHTTPObsStreamBadMax pins the 400 for a malformed max parameter.
func TestHTTPObsStreamBadMax(t *testing.T) {
	_, ts := pausedServer(t)
	for _, q := range []string{"max=0", "max=-1", "max=nope"} {
		resp, body := get(t, ts.URL+"/debug/obs-stream?"+q)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status = %d, want 400: %s", q, resp.StatusCode, body)
		}
	}
}
