package main

// Live-stream consumers: "obsview tail" follows an NDJSON telemetry
// stream (gpuportd /debug/obs-stream) and renders a rolling top-spans
// table; "obsview slo" reports the latency, queue-wait and cache-hit
// service-level indicators a stream capture observed, optionally as
// go-bench lines so benchcheck can record and bound them.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"gpuport/internal/obs"
	"gpuport/internal/report"
)

// openInput opens path, with "-" meaning stdin.
func openInput(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

// tailState aggregates streamed span closes for the rolling table.
type tailState struct {
	groups   map[[2]string]*spanGroup // (track, name) -> aggregate
	childDur map[string]float64       // span id -> summed child durations
	selfOf   map[string][2]string     // span id -> owning group key
	counters map[string]float64
	spans    int
}

func newTailState() *tailState {
	return &tailState{
		groups:   map[[2]string]*spanGroup{},
		childDur: map[string]float64{},
		selfOf:   map[string][2]string{},
		counters: map[string]float64{},
	}
}

// add folds one stream event in. Self time is maintained incrementally:
// a span's duration joins its group's self time, and a child's duration
// is subtracted from the group that owns the parent span once the
// parent has closed (children close before parents on a live stream,
// so the usual case is handled by recording child durations first).
func (ts *tailState) add(ev obs.StreamEvent) {
	switch ev.Kind {
	case obs.StreamCounter:
		ts.counters[ev.Name] = float64(ev.Total)
	case obs.StreamSpan:
		ts.spans++
		key := [2]string{ev.Track, ev.Name}
		g := ts.groups[key]
		if g == nil {
			g = &spanGroup{name: ev.Name}
			ts.groups[key] = g
		}
		g.count++
		dur := float64(ev.DurNS)
		g.total += dur
		g.self += dur - ts.childDur[ev.Span]
		ts.selfOf[ev.Span] = key
		if ev.Parent != "" {
			if pkey, ok := ts.selfOf[ev.Parent]; ok {
				// Parent already closed (out-of-order delivery): charge
				// its group retroactively.
				ts.groups[pkey].self -= dur
			} else {
				ts.childDur[ev.Parent] += dur
			}
		}
	}
}

// render writes the rolling top table and counters. Accumulated self
// time can go negative when an async child outlives its parent (the
// queue-wait span runs on long after its submit request returned); a
// span cannot spend negative time in its own frames, so self is
// clamped at zero for ranking and display.
func (ts *tailState) render(w io.Writer, top int) {
	type row struct {
		track string
		self  float64
		g     *spanGroup
	}
	rows := make([]row, 0, len(ts.groups))
	for key, g := range ts.groups {
		rows = append(rows, row{key[0], max(g.self, 0), g})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].self != rows[j].self {
			return rows[i].self > rows[j].self
		}
		if rows[i].track != rows[j].track {
			return rows[i].track < rows[j].track
		}
		return rows[i].g.name < rows[j].g.name
	})
	t := report.NewTable(fmt.Sprintf("Live top spans by self time (%d closed)", ts.spans),
		"Track", "Span", "Count", "Total ns", "Self ns").RightAlign(2, 3, 4)
	for i, r := range rows {
		if i >= top {
			t.Row("", fmt.Sprintf("... %d more", len(rows)-top), "", "", "")
			break
		}
		t.Row(r.track, r.g.name, r.g.count, report.F(r.g.total, 0), report.F(r.self, 0))
	}
	t.Render(w)
	if len(ts.counters) > 0 {
		t := report.NewTable("Counters", "Counter", "Value").RightAlign(1)
		for _, name := range sortedKeys(ts.counters) {
			t.Row(name, report.F(ts.counters[name], 0))
		}
		t.Render(w)
	}
	fmt.Fprintln(w)
}

// tail follows an NDJSON stream, re-rendering every `every` span
// events (0 renders only once, at end of stream).
func tail(w io.Writer, path string, top, every int) error {
	in, err := openInput(path)
	if err != nil {
		return err
	}
	defer in.Close()
	st := newTailState()
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lastRender := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev obs.StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("%s: bad stream line %q: %w", path, line, err)
		}
		st.add(ev)
		if every > 0 && st.spans-lastRender >= every {
			st.render(w, top)
			lastRender = st.spans
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	st.render(w, top)
	return nil
}

// sloEndpoint is the endpoint whose request latency slo reports: only
// the server's Submit opens http-request spans. Submit opens the span
// after Spec.Resolve and Campaign.Fingerprint have run, so the figure
// excludes input resolution.
const sloEndpoint = "submit"

// sloObservations is what slo measures from a stream.
type sloObservations struct {
	latencyNS []int64 // per-request latency for sloEndpoint
	queueNS   []int64 // per-job queue-wait
	hits      float64
	misses    float64
}

// quantileNS returns the q-quantile of the samples (nearest-rank).
func quantileNS(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(q * float64(len(s)))
	if float64(rank) < q*float64(len(s)) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// loadSLOStream reads observations from an NDJSON stream capture.
func loadSLOStream(path string) (*sloObservations, error) {
	in, err := openInput(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	o := &sloObservations{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev obs.StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("%s: bad stream line %q: %w", path, line, err)
		}
		switch ev.Kind {
		case obs.StreamSpan:
			switch ev.Name {
			case obs.SpanHTTPRequest:
				if ev.Attrs[obs.AttrEndpoint] == sloEndpoint {
					o.latencyNS = append(o.latencyNS, ev.DurNS)
				}
			case obs.SpanQueueWait:
				o.queueNS = append(o.queueNS, ev.DurNS)
			}
		case obs.StreamCounter:
			switch ev.Name {
			case obs.CtrCacheHits:
				o.hits = float64(ev.Total)
			case obs.CtrCacheMisses:
				o.misses = float64(ev.Total)
			}
		}
	}
	return o, sc.Err()
}

const nsPerMS = 1e6

// slo reports the indicators the stream observed, copying the report
// to reportPath and go-bench lines to benchPath when they are set. A
// latency indicator without samples is an error: its go-bench line
// would read the clamped 1ns and pass any bound.
func slo(w io.Writer, path, benchPath, reportPath string) error {
	o, err := loadSLOStream(path)
	if err != nil {
		return err
	}
	if len(o.latencyNS) == 0 {
		return fmt.Errorf("%s: no %s %s span", path, sloEndpoint, obs.SpanHTTPRequest)
	}
	if len(o.queueNS) == 0 {
		return fmt.Errorf("%s: no %s span", path, obs.SpanQueueWait)
	}

	p50 := quantileNS(o.latencyNS, 0.50)
	p99 := quantileNS(o.latencyNS, 0.99)
	queueP99 := quantileNS(o.queueNS, 0.99)
	hitRatio := 0.0
	if total := o.hits + o.misses; total > 0 {
		hitRatio = o.hits / total
	}

	var rep strings.Builder
	t := report.NewTable("SLO observations: "+path, "Indicator", "Observed", "Samples").RightAlign(1, 2)
	t.Row(sloEndpoint+" p50", fmt.Sprintf("%.3fms", float64(p50)/nsPerMS), len(o.latencyNS))
	t.Row(sloEndpoint+" p99", fmt.Sprintf("%.3fms", float64(p99)/nsPerMS), len(o.latencyNS))
	t.Row("queue-wait p99", fmt.Sprintf("%.3fms", float64(queueP99)/nsPerMS), len(o.queueNS))
	t.Row("cache-hit ratio", fmt.Sprintf("%.3f", hitRatio), int(o.hits+o.misses))
	t.Render(&rep)
	fmt.Fprint(w, rep.String())
	if reportPath != "" {
		if err := os.WriteFile(reportPath, []byte(rep.String()), 0o644); err != nil {
			return err
		}
	}
	if benchPath != "" {
		return writeSLOBench(benchPath, p50, p99, queueP99, hitRatio)
	}
	return nil
}

// writeSLOBench records the observations as go-bench lines, the format
// benchcheck reads; `make obs-slo` bounds them against the committed
// BENCH_slo.json. Values are clamped to >= 1: benchcheck rejects zero
// ns/op, and the ratio-style metrics are scaled by 1e6 to survive the
// integer format. Names avoid trailing "-<digits>" (benchcheck strips
// those as GOMAXPROCS suffixes).
func writeSLOBench(path string, p50, p99, queueP99 int64, hitRatio float64) error {
	clamp := func(v int64) int64 {
		if v < 1 {
			return 1
		}
		return v
	}
	var b strings.Builder
	line := func(name string, v int64) {
		fmt.Fprintf(&b, "BenchmarkSLO/%s 1 %d ns/op\n", name, clamp(v))
	}
	line(sloEndpoint+"-latency-p50", p50)
	line(sloEndpoint+"-latency-p99", p99)
	line("queue-wait-p99", queueP99)
	line("cache-hit-permicro", int64(hitRatio*1e6))
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
