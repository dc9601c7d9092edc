package obs

import (
	"testing"
	"time"
)

func TestSpanCaptureDisabledByDefault(t *testing.T) {
	r := NewWithClock(fakeClock(time.Millisecond))
	h := r.StartSpan(SpanTracePair, 0, String(AttrApp, "bfs-wl"))
	if h != nil {
		t.Fatal("StartSpan should return nil while tracing is disabled")
	}
	h.End()             // must not panic
	h.Event(EvRetry)    // must not panic
	h.StartSpan("x", 0) // must not panic
	r.Event(EvRetry, 0) // must not record
	r.SimSpan(0, 0, "k", 0, 1)
	r.NameLane(TrackSim, 0, "lane")
	s := r.Snapshot()
	if len(s.Spans) != 0 || len(s.Events) != 0 || len(s.Lanes) != 0 {
		t.Fatalf("disabled recorder captured %d spans, %d events, %d lanes",
			len(s.Spans), len(s.Events), len(s.Lanes))
	}
}

func TestSpanHierarchyAndDeterministicIDs(t *testing.T) {
	build := func() *Snapshot {
		r := NewWithClock(fakeClock(time.Millisecond)).EnableSim()
		root := r.StartSpan(StageTrace, 0)
		child := root.StartSpan(SpanTracePair, 3, String(AttrApp, "bfs-wl"), String(AttrInput, "road"))
		child.Event(EvRetry, Int(AttrAttempt, 1))
		child.End()
		root.End()
		r.SimSpan(7, 0, SpanSimTimeline, 0, 100, String(AttrApp, "bfs-wl"))
		return r.Snapshot()
	}
	a, b := build(), build()
	if len(a.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(a.Spans))
	}
	for i := range a.Spans {
		if a.Spans[i].ID != b.Spans[i].ID {
			t.Errorf("span %d id differs across identical runs: %x vs %x", i, a.Spans[i].ID, b.Spans[i].ID)
		}
		if a.Spans[i].ID == 0 {
			t.Errorf("span %d has zero id", i)
		}
	}
	// Child links to parent by ID.
	var root, child *Span
	for i := range a.Spans {
		switch a.Spans[i].Name {
		case StageTrace:
			root = &a.Spans[i]
		case SpanTracePair:
			child = &a.Spans[i]
		}
	}
	if root == nil || child == nil {
		t.Fatal("missing root or child span")
	}
	if child.Parent != root.ID {
		t.Errorf("child parent = %x, want root id %x", child.Parent, root.ID)
	}
	if len(a.Events) != 1 || a.Events[0].SpanID != child.ID {
		t.Errorf("event not attached to child span: %+v", a.Events)
	}
	// Fake clock: root spans two ticks of child plus its own.
	if root.DurNS <= child.DurNS {
		t.Errorf("root dur %d should exceed child dur %d", root.DurNS, child.DurNS)
	}
}

func TestSimSpanVirtualClock(t *testing.T) {
	r := New().EnableSim()
	rootID := r.SimSpan(2, 0, SpanSimTimeline, 0, 500, String(AttrApp, "a"), String(AttrInput, "i"))
	r.SimSpan(2, rootID, "kernel_relax", 10, 40, Int(AttrLaunch, 0), Int(AttrFrontier, 17))
	s := r.Snapshot()
	if len(s.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(s.Spans))
	}
	for _, sp := range s.Spans {
		if sp.Track != TrackSim {
			t.Errorf("span %q on track %v, want sim", sp.Name, sp.Track)
		}
	}
	var launch *Span
	for i := range s.Spans {
		if s.Spans[i].Name == "kernel_relax" {
			launch = &s.Spans[i]
		}
	}
	if launch == nil || launch.StartNS != 10 || launch.DurNS != 40 || launch.Parent != rootID {
		t.Fatalf("launch span = %+v, want start 10 dur 40 parent %x", launch, rootID)
	}
}

// TestScopeStampsSpans pins what a scoped view adds to the spans it
// opens: the trace on every span, the parent on real-track roots only,
// and the parent in the ID of every root on both tracks. The view
// records into its recorder's store, on its clock.
func TestScopeStampsSpans(t *testing.T) {
	r := NewWithClock(fakeClock(time.Millisecond)).EnableSim()
	campaign := r.StartSpan(SpanCampaign, 0)
	v := r.Scope(42, campaign.ID())
	root := v.StartSpan(StageTrace, 0)
	root.StartSpan(SpanTracePair, 1, String(AttrApp, "bfs-wl")).End()
	root.End()
	tl := v.SimSpan(0, 0, SpanSimTimeline, 0, 100)
	v.SimSpan(0, tl, "kernel_relax", 0, 10)
	v.Add(CtrKernelLaunches, 1)
	campaign.End()

	s := r.Snapshot()
	byName := map[string]Span{}
	for _, sp := range s.Spans {
		byName[sp.Name] = sp
	}
	for name, want := range map[string]struct{ id, parent, trace uint64 }{
		SpanCampaign:    {campaign.ID(), 0, 0},
		StageTrace:      {spanID(campaign.ID(), StageTrace, nil), campaign.ID(), 42},
		SpanTracePair:   {spanID(root.ID(), SpanTracePair, []Attr{String(AttrApp, "bfs-wl")}), root.ID(), 42},
		SpanSimTimeline: {spanID(campaign.ID(), SpanSimTimeline, nil), 0, 42},
		"kernel_relax":  {spanID(tl, "kernel_relax", nil), tl, 42},
	} {
		sp, ok := byName[name]
		if !ok {
			t.Errorf("no %s span", name)
			continue
		}
		if sp.ID != want.id || sp.Parent != want.parent || sp.TraceID != want.trace {
			t.Errorf("%s span id/parent/trace = %x/%x/%d, want %x/%x/%d",
				name, sp.ID, sp.Parent, sp.TraceID, want.id, want.parent, want.trace)
		}
	}
	outer, inner := byName[SpanCampaign], byName[StageTrace]
	if inner.StartNS < outer.StartNS || inner.StartNS+inner.DurNS > outer.StartNS+outer.DurNS {
		t.Errorf("scoped root [%d +%d] lies outside its parent [%d +%d]: two clocks",
			inner.StartNS, inner.DurNS, outer.StartNS, outer.DurNS)
	}
	if got := s.Summary.Counter(CtrKernelLaunches); got != 1 {
		t.Errorf("%s = %d through the view, want 1", CtrKernelLaunches, got)
	}
}

func TestHistFixedBounds(t *testing.T) {
	var h Hist
	h.Observe(0)
	h.Observe(1)
	h.Observe(2) // first bucket above 1 is 4
	h.Observe(4)
	h.Observe(5)       // -> le=16
	h.Observe(1 << 40) // overflow
	if h.Count != 6 {
		t.Fatalf("count = %d", h.Count)
	}
	if h.Buckets[0] != 2 { // <=1: the 0 and the 1
		t.Errorf("bucket le=1 = %d, want 2", h.Buckets[0])
	}
	if h.Buckets[1] != 2 { // <=4: the 2 and the 4
		t.Errorf("bucket le=4 = %d, want 2", h.Buckets[1])
	}
	if h.Buckets[2] != 1 { // <=16: the 5
		t.Errorf("bucket le=16 = %d, want 1", h.Buckets[2])
	}
	if h.Buckets[HistBuckets-1] != 1 {
		t.Errorf("overflow bucket = %d, want 1", h.Buckets[HistBuckets-1])
	}
	if h.Sum != 0+1+2+4+5+(1<<40) {
		t.Errorf("sum = %d", h.Sum)
	}
}

func TestMergeHistEqualsDirectObserve(t *testing.T) {
	direct := New()
	batched := New()
	var local Hist
	for v := int64(0); v < 100; v++ {
		direct.ObserveHist(HistFrontier, v*v)
		local.Observe(v * v)
	}
	batched.MergeHist(HistFrontier, &local)
	a, b := direct.Snapshot(), batched.Snapshot()
	if len(a.Hists) != 1 || len(b.Hists) != 1 {
		t.Fatalf("hists = %d/%d, want 1/1", len(a.Hists), len(b.Hists))
	}
	if a.Hists[0] != b.Hists[0] {
		t.Errorf("merge mismatch:\n%+v\n%+v", a.Hists[0], b.Hists[0])
	}
}

// TestMergeHistOrderIndependence: folding the same partial histograms
// in any order yields identical snapshots. This is what lets the
// server adopt per-job histograms in completion order (which varies
// with scheduling) while /metrics stays byte-canonical.
func TestMergeHistOrderIndependence(t *testing.T) {
	parts := make([]Hist, 3)
	for i := range parts {
		for v := int64(0); v < 50; v++ {
			parts[i].Observe(v * int64(i+1) * 7)
		}
	}
	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}}
	var snaps []Snapshot
	for _, order := range orders {
		r := New()
		for _, i := range order {
			r.MergeHist(HistFrontier, &parts[i])
		}
		snaps = append(snaps, *r.Snapshot())
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Hists[0] != snaps[0].Hists[0] {
			t.Errorf("merge order %v produced a different histogram:\n%+v\n%+v",
				orders[i], snaps[i].Hists[0], snaps[0].Hists[0])
		}
	}
}

func TestNilRecorderSpanSafety(t *testing.T) {
	var r *Recorder
	if r.TracingEnabled() || r.SimEnabled() {
		t.Error("nil recorder should report tracing disabled")
	}
	r.EnableTracing()
	r.EnableSim()
	r.StartSpan("x", 0).End()
	r.Event("x", 0)
	r.SimSpan(0, 0, "x", 0, 1)
	r.ObserveHist("x", 1)
	r.MergeHist("x", &Hist{})
	if r.Snapshot() != nil {
		t.Error("nil recorder should snapshot to nil")
	}
}

func TestLaneNamesFirstWins(t *testing.T) {
	r := New().EnableTracing()
	r.NameLane(TrackSim, 4, "first")
	r.NameLane(TrackSim, 4, "second")
	r.NameLane(TrackSim, 2, "other")
	s := r.Snapshot()
	if len(s.Lanes) != 2 {
		t.Fatalf("lanes = %+v", s.Lanes)
	}
	// Sorted by lane number; duplicate registration kept the first name.
	if s.Lanes[0].Name != "other" || s.Lanes[1].Name != "first" {
		t.Errorf("lanes = %+v", s.Lanes)
	}
}

func TestSnapshotCountersSorted(t *testing.T) {
	r := New()
	r.Add("zz", 1)
	r.Add("aa", 2)
	s := r.Snapshot()
	if s.Counters[0].Name != "aa" || s.Counters[1].Name != "zz" {
		t.Errorf("snapshot counters not sorted: %+v", s.Counters)
	}
	// Summary keeps first-use order, unchanged from the flat recorder.
	if s.Summary.Counters[0].Name != "zz" {
		t.Errorf("summary counters reordered: %+v", s.Summary.Counters)
	}
}
