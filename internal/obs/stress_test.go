package obs

import (
	"bytes"
	"sync"
	"testing"
)

// TestSpanRecorderStress hammers one recorder from many goroutines -
// nested spans, events, counters, histograms and sim spans, half of
// them through scoped views of it - while other goroutines take
// snapshots and export them mid-flight. Run under -race (make race /
// CI) this is the span recorder's concurrency gate, mirroring the
// trace-cache stress test from the pipeline PR.
func TestSpanRecorderStress(t *testing.T) {
	const (
		workers   = 8
		rounds    = 200
		snapshots = 50
	)
	r := New().EnableSim()
	var wg sync.WaitGroup
	start := make(chan struct{})

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			rec := r
			if w%2 == 1 {
				rec = r.Scope(uint64(w), uint64(w))
			}
			var local Hist
			for i := 0; i < rounds; i++ {
				root := rec.StartSpan(SpanTracePair, w, Int(AttrLaunch, int64(w*rounds+i)))
				child := root.StartSpan(SpanSweepJob, w, Int(AttrAttempt, int64(i)))
				child.Event(EvRetry, Int(AttrAttempt, int64(i%3)))
				rec.Add(CtrFaultAttempts, 1)
				rec.ObserveHist(HistCellAttempts, int64(i%7))
				local.Observe(int64(i))
				tl := rec.SimSpan(w, 0, SpanSimTimeline, int64(i), 10, Int(AttrLaunch, int64(w*rounds+i)))
				rec.SimSpan(w, tl, SpanSimTimeline, int64(i), 5, Int(AttrLaunch, int64(i)))
				child.End()
				root.End()
				rec.StartSpan(StageSweep, w).End()
			}
			rec.MergeHist(HistFrontier, &local)
		}(w)
	}

	// Snapshot takers run concurrently with the writers and must only
	// ever observe consistent state: exports must not panic and the
	// flat counters must never exceed their final values.
	var snapWG sync.WaitGroup
	for s := 0; s < snapshots; s++ {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			<-start
			snap := r.Snapshot()
			if got := snap.Summary.Counter(CtrFaultAttempts); got > workers*rounds {
				t.Errorf("mid-flight counter %d exceeds maximum %d", got, workers*rounds)
			}
			var buf bytes.Buffer
			if err := WriteChromeTrace(&buf, snap); err != nil {
				t.Errorf("mid-flight trace export: %v", err)
			}
			buf.Reset()
			if err := WriteMetrics(&buf, snap); err != nil {
				t.Errorf("mid-flight metrics export: %v", err)
			}
		}()
	}

	close(start)
	wg.Wait()
	snapWG.Wait()

	final := r.Snapshot()
	if got := final.Summary.Counter(CtrFaultAttempts); got != workers*rounds {
		t.Errorf("final counter = %d, want %d", got, workers*rounds)
	}
	// Every Ended span must be present: 3 real + 2 sim per round.
	if got, want := len(final.Spans), workers*rounds*5; got != want {
		t.Errorf("final spans = %d, want %d", got, want)
	}
	if got := final.Summary.Stages; len(got) != 1 || got[0].Calls != workers*rounds {
		t.Errorf("final stages = %+v, want %d sweep sections", got, workers*rounds)
	}
	if got, want := len(final.Events), workers*rounds; got != want {
		t.Errorf("final events = %d, want %d", got, want)
	}
	var frontier *Hist
	for i := range final.Hists {
		if final.Hists[i].Name == HistFrontier {
			frontier = &final.Hists[i]
		}
	}
	if frontier == nil || frontier.Count != workers*rounds {
		t.Errorf("merged hist = %+v, want count %d", frontier, workers*rounds)
	}
}
