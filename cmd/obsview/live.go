package main

// Live-stream consumers: "obsview tail" folds an NDJSON telemetry
// stream (gpuportd /debug/obs-stream) through summary's span table and
// renders summary's tables; "obsview slo" reports the latency,
// queue-wait and cache-hit service-level indicators a stream capture
// observed, optionally as go-bench lines so benchcheck can record and
// bound them.

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

// readStream calls fn on each event of an NDJSON stream capture ("-"
// for stdin) and stops at the first error.
func readStream(path string, fn func(obs.StreamEvent) error) error {
	var in io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev obs.StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("%s: bad stream line %q: %w", path, line, err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	return sc.Err()
}

// foldEvent folds one stream event into the table. Real-track
// durations fold in microseconds, as a trace file carries them;
// simulated units pass through.
func (t *spanTable) foldEvent(ev obs.StreamEvent) {
	switch ev.Kind {
	case obs.StreamCounter:
		t.counters[ev.Name] = float64(ev.Total)
	case obs.StreamSpan:
		dur := float64(ev.DurNS)
		if ev.Track == obs.TrackReal.String() {
			dur /= 1e3
		}
		t.fold(ev.Track, ev.Name, ev.Span, ev.Parent, dur)
	}
}

// tail folds an NDJSON stream and renders summary's tables under a
// closed-span count every `every` spans (0 renders only once, at end
// of stream).
func tail(w io.Writer, path string, top, every int) error {
	t := newSpanTable()
	render := func() error {
		return t.render(w, fmt.Sprintf("Live: %d spans closed\n\n", t.spans), top)
	}
	lastRender := 0
	err := readStream(path, func(ev obs.StreamEvent) error {
		t.foldEvent(ev)
		if every > 0 && t.spans-lastRender >= every {
			lastRender = t.spans
			return render()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return render()
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
	o := &sloObservations{}
	err := readStream(path, func(ev obs.StreamEvent) error {
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
		return nil
	})
	return o, err
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
	if _, err := io.WriteString(w, rep.String()); err != nil {
		return err
	}
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
