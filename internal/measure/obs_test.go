package measure

import (
	"bytes"
	"testing"

	"gpuport/internal/fault"
	"gpuport/internal/obs"
)

// exportRun collects the small sweep under fault injection with span
// capture on and returns the canonicalised trace and metrics exports
// and the recorder's snapshot.
func exportRun(t *testing.T, workers int) (trace, metrics []byte, snap *obs.Snapshot) {
	t.Helper()
	o := smallOptions()
	o.Workers = workers
	o.Faults = (&fault.Profile{Transient: 0.2, Corrupt: 0.1, Seed: 11}).Fill()
	o.Obs = obs.New().EnableSim()
	if _, err := Collect(o); err != nil {
		t.Fatal(err)
	}
	snap = o.Obs.Snapshot()
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, snap); err != nil {
		t.Fatal(err)
	}
	canonTrace, err := obs.CanonicalTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := obs.WriteMetrics(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return canonTrace, obs.CanonicalMetrics(buf.Bytes()), snap
}

// TestObsExportsDeterministicAcrossWorkers is the determinism golden
// gate for the observability subsystem: the exported artifacts - with
// wall-clock fields stripped by the canonicalisers - must be
// byte-identical across runs AND across worker counts, faults and all.
func TestObsExportsDeterministicAcrossWorkers(t *testing.T) {
	trace1, metrics1, snap1 := exportRun(t, 1)
	trace4, metrics4, snap4 := exportRun(t, 4)
	if !bytes.Equal(trace1, trace4) {
		t.Errorf("canonical traces differ between 1 and 4 workers:\n%s\n---\n%s", trace1, trace4)
	}
	if !bytes.Equal(metrics1, metrics4) {
		t.Errorf("canonical metrics differ between 1 and 4 workers:\n%s\n---\n%s", metrics1, metrics4)
	}

	// The run must actually have exercised the interesting paths,
	// otherwise this test proves nothing.
	var retries int
	for _, ev := range snap1.Events {
		if ev.Name == obs.EvRetry {
			retries++
		}
	}
	if retries == 0 {
		t.Error("fault-injected run recorded no retry events")
	}
	if snap1.Summary.Counter(obs.CtrFaultRetries) == 0 {
		t.Errorf("%s = 0 under transient faults", obs.CtrFaultRetries)
	}
	if got := snap4.Summary.Counter(obs.CtrFaultRetries); got != snap1.Summary.Counter(obs.CtrFaultRetries) {
		t.Errorf("retry counters differ across worker counts: %d vs %d",
			snap1.Summary.Counter(obs.CtrFaultRetries), got)
	}
	var simSpans, realSpans int
	for _, sp := range snap1.Spans {
		if sp.Track == obs.TrackSim {
			simSpans++
		} else {
			realSpans++
		}
	}
	if simSpans == 0 || realSpans == 0 {
		t.Errorf("want spans on both tracks, got %d sim / %d real", simSpans, realSpans)
	}
}

// TestObsSpanPopulation pins the span counts of the instrumented
// pipeline: one phase span per stage, one pair span per (app, input),
// one job span per (chip, pair), and a sim timeline per traced pair.
func TestObsSpanPopulation(t *testing.T) {
	o := smallOptions()
	o.Obs = obs.New().EnableSim()
	if _, err := Collect(o); err != nil {
		t.Fatal(err)
	}
	snap := o.Obs.Snapshot()
	count := map[string]int{}
	for _, sp := range snap.Spans {
		count[sp.Name]++
	}
	// 2 apps x 1 input = 2 pairs; 2 chips x 2 pairs = 4 jobs.
	for name, want := range map[string]int{
		obs.StageTrace:      1,
		obs.StageSweep:      1,
		obs.StageAssemble:   1,
		obs.SpanTracePair:   2,
		obs.SpanSweepJob:    4,
		obs.SpanSimTimeline: 2,
	} {
		if count[name] != want {
			t.Errorf("%s spans = %d, want %d", name, count[name], want)
		}
	}
	// Workload counters are recorded by the always-on layer too.
	launches := snap.Summary.Counter(obs.CtrKernelLaunches)
	if launches == 0 {
		t.Errorf("%s = 0 after a traced run", obs.CtrKernelLaunches)
	}
	var frontier *obs.Hist
	for i := range snap.Hists {
		if snap.Hists[i].Name == obs.HistFrontier {
			frontier = &snap.Hists[i]
		}
	}
	if frontier == nil || frontier.Count != launches {
		t.Errorf("frontier hist count = %+v, want one observation per launch (%d)",
			frontier, launches)
	}
}

// TestObsDisabledByDefault proves the span layer stays out of the way:
// a recorder from obs.New captures counters but no spans, and so no
// stage totals.
func TestObsDisabledByDefault(t *testing.T) {
	o := smallOptions()
	o.Obs = obs.New()
	if _, err := Collect(o); err != nil {
		t.Fatal(err)
	}
	snap := o.Obs.Snapshot()
	if len(snap.Spans) != 0 || len(snap.Events) != 0 {
		t.Errorf("default run captured %d spans, %d events",
			len(snap.Spans), len(snap.Events))
	}
	if len(snap.Summary.Stages) != 0 || snap.Summary.Counter(obs.CtrKernelLaunches) == 0 {
		t.Errorf("default run: stages %+v, %s %d; want counters only",
			snap.Summary.Stages, obs.CtrKernelLaunches, snap.Summary.Counter(obs.CtrKernelLaunches))
	}
}

// TestRecorderNeverFeedsDataset collects the small sweep, clean and
// under fault injection, once with no recorder and once with every
// capture level on: the two CSVs must be byte-identical, because
// recording never feeds the dataset.
func TestRecorderNeverFeedsDataset(t *testing.T) {
	for _, faults := range []*fault.Profile{nil, (&fault.Profile{Transient: 0.2, Corrupt: 0.1, Seed: 11}).Fill()} {
		csv := func(rec *obs.Recorder) []byte {
			o := smallOptions()
			o.Faults = faults
			o.Obs = rec
			d, err := Collect(o)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := d.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		if !bytes.Equal(csv(nil), csv(obs.New().EnableSim())) {
			t.Errorf("faults %v: the CSV with a recorder differs from the CSV without one", faults != nil)
		}
	}
}
