package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpuport/internal/obs"
)

// writeStream writes StreamEvents as an NDJSON file and returns its
// path.
func writeStream(t *testing.T, name string, events ...obs.StreamEvent) string {
	t.Helper()
	var buf []byte
	for _, ev := range events {
		buf = ev.AppendNDJSON(buf)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// reqEvent is a closed http-request span for the submit endpoint.
func reqEvent(span string, durNS int64) obs.StreamEvent {
	return obs.StreamEvent{
		Kind: obs.StreamSpan, Track: "real", Name: obs.SpanHTTPRequest,
		Trace: "t1", Span: span, DurNS: durNS,
		Attrs: map[string]string{obs.AttrEndpoint: "submit"},
	}
}

// sampleStream is a tiny but representative capture: two requests (one
// with a child validate span), a queue wait, and cache counters.
func sampleStream(t *testing.T) string {
	t.Helper()
	return writeStream(t, "stream.ndjson",
		obs.StreamEvent{Kind: obs.StreamSpan, Track: "real", Name: obs.SpanValidate,
			Trace: "t1", Span: "v1", Parent: "r1", DurNS: 400},
		reqEvent("r1", 1_000_000),
		reqEvent("r2", 3_000_000),
		obs.StreamEvent{Kind: obs.StreamSpan, Track: "real", Name: obs.SpanQueueWait,
			Trace: "t1", Span: "q1", Parent: "r1", DurNS: 2_000_000},
		obs.StreamEvent{Kind: obs.StreamCounter, Name: obs.CtrCacheHits, Delta: 3, Total: 3},
		obs.StreamEvent{Kind: obs.StreamCounter, Name: obs.CtrCacheMisses, Delta: 1, Total: 1},
	)
}

func TestTail(t *testing.T) {
	path := sampleStream(t)
	var out bytes.Buffer
	if err := run([]string{"tail", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"Live top spans by self time (4 closed)",
		obs.SpanHTTPRequest, obs.SpanQueueWait, obs.SpanValidate,
		obs.CtrCacheHits, obs.CtrCacheMisses,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("tail output missing %q:\n%s", want, got)
		}
	}
}

// TestTailSelfTime checks incremental self-time accounting in both
// delivery orders: child closing before the parent (the live-stream
// norm) and after it (out-of-order delivery).
func TestTailSelfTime(t *testing.T) {
	parent := obs.StreamEvent{Kind: obs.StreamSpan, Track: "real",
		Name: "parent", Span: "p1", DurNS: 1000}
	child := obs.StreamEvent{Kind: obs.StreamSpan, Track: "real",
		Name: "child", Span: "c1", Parent: "p1", DurNS: 300}
	for name, order := range map[string][]obs.StreamEvent{
		"child-first":  {child, parent},
		"parent-first": {parent, child},
	} {
		st := newTailState()
		for _, ev := range order {
			st.add(ev)
		}
		g := st.groups[[2]string{"real", "parent"}]
		if g == nil || g.self != 700 {
			t.Errorf("%s: parent self = %+v, want 700", name, g)
		}
	}
}

// TestTailNegativeSelfClamped: an async child that outlives its parent
// (queue-wait vs its submit request) drives the parent's accumulated
// self time negative; the rendered table must clamp it at zero.
func TestTailNegativeSelfClamped(t *testing.T) {
	path := writeStream(t, "async.ndjson",
		reqEvent("r1", 250_000),
		obs.StreamEvent{Kind: obs.StreamSpan, Track: "real", Name: obs.SpanQueueWait,
			Trace: "t1", Span: "q1", Parent: "r1", DurNS: 1_750_000},
	)
	var out bytes.Buffer
	if err := run([]string{"tail", path}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "-1") {
		t.Errorf("tail rendered a negative self time:\n%s", out.String())
	}
	// queue-wait (all self) must outrank the fully-childed request.
	lines := out.String()
	if strings.Index(lines, obs.SpanQueueWait) > strings.Index(lines, obs.SpanHTTPRequest) {
		t.Errorf("queue-wait should rank above http-request:\n%s", lines)
	}
}

func TestTailEvery(t *testing.T) {
	path := sampleStream(t)
	var out bytes.Buffer
	if err := run([]string{"tail", "-every", "2", path}, &out); err != nil {
		t.Fatal(err)
	}
	// 4 spans with -every 2: renders at 2, 4, plus the final render.
	if got := strings.Count(out.String(), "Live top spans"); got != 3 {
		t.Errorf("tail -every 2 rendered %d times, want 3:\n%s", got, out.String())
	}
}

func TestTailTopTruncation(t *testing.T) {
	events := make([]obs.StreamEvent, 0, 8)
	for i := 0; i < 8; i++ {
		events = append(events, obs.StreamEvent{Kind: obs.StreamSpan, Track: "real",
			Name: fmt.Sprintf("span-%d", i), Span: fmt.Sprintf("s%d", i), DurNS: int64(100 + i)})
	}
	path := writeStream(t, "many.ndjson", events...)
	var out bytes.Buffer
	if err := run([]string{"-top", "3", "tail", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "... 5 more") {
		t.Errorf("tail -top 3 missing truncation marker:\n%s", out.String())
	}
}

func TestSLOPass(t *testing.T) {
	path := sampleStream(t)
	var out bytes.Buffer
	if err := run([]string{"slo", path}, &out); err != nil {
		t.Fatalf("slo failed on healthy stream: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"submit p50", "1.000ms", // lower of the two request samples
		"submit p99", "3.000ms",
		"queue-wait p99", "2.000ms",
		"cache-hit ratio", "0.750",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("slo output missing %q:\n%s", want, got)
		}
	}
}

// TestSLOEmptyStreamBreaches: a latency indicator without samples
// fails slo, naming the indicator; its go-bench line would otherwise
// read 1ns and pass any bound.
func TestSLOEmptyStreamBreaches(t *testing.T) {
	queueWait := obs.StreamEvent{Kind: obs.StreamSpan, Track: "real", Name: obs.SpanQueueWait,
		Trace: "t1", Span: "q1", Parent: "r1", DurNS: 2_000_000}
	for _, tc := range []struct {
		name    string
		events  []obs.StreamEvent
		missing string
	}{
		{"empty", nil, "no submit " + obs.SpanHTTPRequest},
		{"no-request", []obs.StreamEvent{queueWait}, "no submit " + obs.SpanHTTPRequest},
		{"no-queue-wait", []obs.StreamEvent{reqEvent("r1", 1_000_000)}, "no " + obs.SpanQueueWait},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeStream(t, tc.name+".ndjson", tc.events...)
			bench := filepath.Join(t.TempDir(), "slo-bench.out")
			var out bytes.Buffer
			err := run([]string{"slo", "-bench", bench, path}, &out)
			if err == nil || !strings.Contains(err.Error(), tc.missing) {
				t.Fatalf("slo err = %v, want one naming %q", err, tc.missing)
			}
			if _, err := os.Stat(bench); !os.IsNotExist(err) {
				t.Errorf("slo wrote %s for a stream missing an indicator", bench)
			}
		})
	}
}

func TestSLOBenchAndReportFiles(t *testing.T) {
	path := sampleStream(t)
	dir := t.TempDir()
	bench := filepath.Join(dir, "slo-bench.out")
	rep := filepath.Join(dir, "slo-report.txt")
	var out bytes.Buffer
	if err := run([]string{"slo", "-bench", bench, "-report", rep, path}, &out); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(bench)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"BenchmarkSLO/submit-latency-p50 1 1000000 ns/op",
		"BenchmarkSLO/submit-latency-p99 1 3000000 ns/op",
		"BenchmarkSLO/queue-wait-p99 1 2000000 ns/op",
		"BenchmarkSLO/cache-hit-permicro 1 750000 ns/op",
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("bench file missing %q:\n%s", want, b)
		}
	}
	r, err := os.ReadFile(rep)
	if err != nil {
		t.Fatal(err)
	}
	if string(r) != out.String() {
		t.Errorf("report file differs from stdout:\nfile:\n%s\nstdout:\n%s", r, out.String())
	}
}

func TestLiveRunErrors(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"tail"},
		{"tail", "a", "b"},
		{"slo"},
		{"slo", filepath.Join(t.TempDir(), "missing.ndjson")},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	bad := filepath.Join(t.TempDir(), "bad.ndjson")
	if err := os.WriteFile(bad, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"tail", bad}, &out); err == nil {
		t.Error("tail of malformed stream succeeded, want error")
	}
	if err := run([]string{"slo", bad}, &out); err == nil {
		t.Error("slo of malformed stream succeeded, want error")
	}
}

func TestQuantileNS(t *testing.T) {
	s := []int64{30, 10, 20, 40}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 20}, {0.99, 40}, {1.0, 40}, {0.25, 10}} {
		if got := quantileNS(s, tc.q); got != tc.want {
			t.Errorf("quantileNS(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := quantileNS(nil, 0.5); got != 0 {
		t.Errorf("quantileNS(nil) = %d, want 0", got)
	}
}
