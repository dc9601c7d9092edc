package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// sampleRecorder builds a recorder with activity on both tracks.
func sampleRecorder() *Recorder {
	r := NewWithClock(fakeClock(time.Millisecond)).EnableSim()
	r.Add(CtrCacheHits, 3)
	r.Add(CtrCacheMisses, 1)
	root := r.StartSpan(StageTrace, 0)
	pair := root.StartSpan(SpanTracePair, 1, String(AttrApp, "bfs-wl"), String(AttrInput, "road"))
	pair.Event(EvRetry, Int(AttrAttempt, 1), String(AttrKind, "transient"))
	pair.End()
	root.End()
	r.NameLane(TrackSim, 0, "bfs-wl on road")
	tl := r.SimSpan(0, 0, SpanSimTimeline, 0, 60, String(AttrApp, "bfs-wl"), String(AttrInput, "road"))
	r.SimSpan(0, tl, "bfs_kernel", 0, 60, Int(AttrLaunch, 0), Int(AttrFrontier, 1), Int(AttrEdges, 5))
	var frontier Hist
	frontier.Observe(1)
	frontier.Observe(700)
	r.MergeHist(HistFrontier, &frontier)
	return r
}

func TestWriteChromeTraceLoadsAndHasBothTracks(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleRecorder().Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	pids := map[int]bool{}
	phs := map[string]bool{}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		pids[ev.Pid] = true
		phs[ev.Ph] = true
		names[ev.Name] = true
	}
	if !pids[pidReal] || !pids[pidSim] {
		t.Errorf("want both real and sim pids, got %v", pids)
	}
	for _, ph := range []string{"M", "C", "X", "i"} {
		if !phs[ph] {
			t.Errorf("missing phase %q events", ph)
		}
	}
	for _, n := range []string{SpanTracePair, "bfs_kernel", EvRetry, CtrCacheHits} {
		if !names[n] {
			t.Errorf("missing event name %q", n)
		}
	}
}

func TestCanonicalTraceStripsWallClockOnly(t *testing.T) {
	var a bytes.Buffer
	if err := WriteChromeTrace(&a, sampleRecorder().Snapshot()); err != nil {
		t.Fatal(err)
	}
	// A second recorder with a much slower clock: every real ts/dur
	// differs, the sim track does not.
	r2 := sampleRecorder()
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, r2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	ca, err := CanonicalTrace(a.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cb, err := CanonicalTrace(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Errorf("canonical traces differ:\n%s\n---\n%s", ca, cb)
	}
	if strings.Contains(string(ca), `"dur":0.`) {
		t.Errorf("canonical trace kept a real duration:\n%s", ca)
	}
	// The sim track's virtual intervals must survive canonicalisation.
	if !strings.Contains(string(ca), "bfs_kernel") {
		t.Errorf("canonical trace lost the sim track:\n%s", ca)
	}
}

func TestWriteMetricsExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, sampleRecorder().Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`gpuport_counter_total{name="trace-cache-hits"} 3`,
		`gpuport_counter_total{name="trace-cache-misses"} 1`,
		`gpuport_hist_bucket{name="frontier-items",le="1"} 1`,
		`gpuport_hist_bucket{name="frontier-items",le="1024"} 2`,
		`gpuport_hist_bucket{name="frontier-items",le="+Inf"} 2`,
		`gpuport_hist_sum{name="frontier-items"} 701`,
		`gpuport_hist_count{name="frontier-items"} 2`,
		`gpuport_span_total{track="real",name="trace-pair"} 1`,
		`gpuport_span_total{track="sim",name="timeline"} 1`,
		`gpuport_event_total{name="retry"} 1`,
		`gpuport_stage_sections_total{stage="trace"} 1`,
		`gpuport_stage_seconds{stage="trace"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCanonicalMetricsStripsStageSeconds(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, sampleRecorder().Snapshot()); err != nil {
		t.Fatal(err)
	}
	canon := string(CanonicalMetrics(buf.Bytes()))
	if strings.Contains(canon, "gpuport_stage_seconds") {
		t.Errorf("canonical metrics kept wall-clock lines:\n%s", canon)
	}
	if !strings.Contains(canon, "gpuport_stage_sections_total") {
		t.Errorf("canonical metrics lost deterministic stage counts:\n%s", canon)
	}
}

// TestCanonicalMetricsDegenerate pins CanonicalMetrics on empty and
// malformed inputs: nil in, empty out; an exposition that is nothing
// but wall-clock families strips to empty; lines without a trailing
// newline and non-exposition garbage pass through untouched (the
// canonicaliser filters families, it does not validate).
func TestCanonicalMetricsDegenerate(t *testing.T) {
	if got := CanonicalMetrics(nil); len(got) != 0 {
		t.Errorf("CanonicalMetrics(nil) = %q, want empty", got)
	}
	var onlyRT bytes.Buffer
	lat := Hist{Name: TSLatencyPrefix + "submit"}
	lat.Observe(5000)
	if err := WriteRealtime(&onlyRT, []Counter{{Name: TSQueueDepth, Value: 3}}, []Hist{lat}); err != nil {
		t.Fatal(err)
	}
	onlyRT.WriteString(`gpuport_stage_seconds{stage="trace"} 0.5` + "\n")
	if got := CanonicalMetrics(onlyRT.Bytes()); len(got) != 0 {
		t.Errorf("all-wall-clock exposition canonicalised to %q, want empty", got)
	}
	passthrough := "garbage line\ngpuport_counter_total{name=\"x\"} 1"
	if got := string(CanonicalMetrics([]byte(passthrough))); got != passthrough {
		t.Errorf("passthrough mangled:\n got %q\nwant %q", got, passthrough)
	}
}

// TestWriteRealtimeCanonical pins the realtime block's layout: series
// sorted by name whatever the input order, cumulative buckets whose
// +Inf equals the count, the right sum, every line under the realtime
// prefix (so CanonicalMetrics strips all of it), and the same bytes
// for the same input.
func TestWriteRealtimeCanonical(t *testing.T) {
	gauges := []Counter{{Name: "z-gauge", Value: 9}, {Name: "a-gauge", Value: 1}}
	z, a := Hist{Name: "z-lat"}, Hist{Name: "a-lat"}
	for _, v := range []int64{3, 100, 100, 1 << 40} {
		a.Observe(v)
	}
	z.Observe(7)
	write := func() []byte {
		var buf bytes.Buffer
		if err := WriteRealtime(&buf, gauges, []Hist{z, a}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	raw := write()
	out := string(raw)

	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, RealtimePrefix) && !strings.HasPrefix(line, "# TYPE "+RealtimePrefix) {
			t.Fatalf("line escapes realtime prefix: %q", line)
		}
	}
	if got := CanonicalMetrics(raw); len(got) != 0 {
		t.Fatalf("CanonicalMetrics left realtime content behind:\n%s", got)
	}
	for _, pair := range [][2]string{
		{`gauge{name="a-gauge"}`, `gauge{name="z-gauge"}`},
		{`hist_count{name="a-lat"}`, `hist_count{name="z-lat"}`},
	} {
		if ia, iz := strings.Index(out, pair[0]), strings.Index(out, pair[1]); ia < 0 || iz < 0 || ia > iz {
			t.Fatalf("%s not written before %s:\n%s", pair[0], pair[1], out)
		}
	}
	for _, want := range []string{
		"# TYPE gpuport_rt_gauge gauge\n",
		`gpuport_rt_gauge{name="a-gauge"} 1`,
		`gpuport_rt_gauge{name="z-gauge"} 9`,
		"# TYPE gpuport_rt_hist histogram\n",
		`gpuport_rt_hist_bucket{name="a-lat",le="1"} 0`,
		`gpuport_rt_hist_bucket{name="a-lat",le="4"} 1`,
		`gpuport_rt_hist_bucket{name="a-lat",le="64"} 1`,
		`gpuport_rt_hist_bucket{name="a-lat",le="256"} 3`,
		`gpuport_rt_hist_bucket{name="a-lat",le="1073741824"} 3`,
		`gpuport_rt_hist_bucket{name="a-lat",le="+Inf"} 4`,
		`gpuport_rt_hist_sum{name="a-lat"} 1099511627979`,
		`gpuport_rt_hist_count{name="a-lat"} 4`,
		`gpuport_rt_hist_bucket{name="z-lat",le="+Inf"} 1`,
		`gpuport_rt_hist_sum{name="z-lat"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if again := write(); !bytes.Equal(raw, again) {
		t.Fatal("WriteRealtime is not byte-stable for the same input")
	}
}

func TestWriteEmptySnapshots(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Errorf("empty trace is not valid JSON: %s", buf.String())
	}
	buf.Reset()
	if err := WriteMetrics(&buf, nil); err != nil {
		t.Fatal(err)
	}
}
