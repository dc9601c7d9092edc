package measure

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpuport/internal/apps"
	"gpuport/internal/dataset"
	"gpuport/internal/graph"
	"gpuport/internal/irgl"
	"gpuport/internal/obs"
	"gpuport/internal/opt"
	"gpuport/internal/tracecache"
)

// mediumOptions is a trace-phase workload with enough pairs (8 apps x 2
// inputs) to exercise the worker pool properly.
func mediumOptions(t *testing.T) Options {
	t.Helper()
	o := smallOptions()
	o.Apps = apps.All()[:8]
	o.Inputs = []*graph.Graph{
		graph.GenerateUniform("t-rand", 500, 5, 9),
		graph.GenerateRoad("t-road", 16, 2),
	}
	return o
}

func tracesEqual(t *testing.T, a, b []*irgl.Trace) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("traces differ")
	}
}

func mustTraces(o Options, t *testing.T) []*irgl.Trace {
	t.Helper()
	trs, err := Traces(o)
	if err != nil {
		t.Fatal(err)
	}
	return trs
}

func TestTracesParallelBitIdentical(t *testing.T) {
	o := mediumOptions(t)
	o.Workers = 1
	serial := mustTraces(o, t)
	for _, workers := range []int{2, 4, 8} {
		o.Workers = workers
		tracesEqual(t, serial, mustTraces(o, t))
	}
}

func TestTracesColdVsWarmCacheBitIdentical(t *testing.T) {
	o := mediumOptions(t)
	cold := mustTraces(o, t) // no cache at all

	store, err := tracecache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	o.TraceCache = store
	wantPairs := int64(len(o.Apps) * len(o.Inputs))
	for _, run := range []struct {
		label        string
		hits, misses int64
	}{
		{"cold", 0, wantPairs}, // populates the cache
		{"warm", wantPairs, 0}, // served from the cache
	} {
		o.Obs = obs.New()
		tracesEqual(t, cold, mustTraces(o, t))
		sum := o.Obs.Summary()
		if hits, misses := sum.Counter(obs.CtrCacheHits), sum.Counter(obs.CtrCacheMisses); hits != run.hits || misses != run.misses {
			t.Errorf("%s: hits=%d misses=%d, want %d/%d", run.label, hits, misses, run.hits, run.misses)
		}
	}
}

func TestCollectColdVsWarmCacheBitIdentical(t *testing.T) {
	o := smallOptions()
	base, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	store, err := tracecache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	o.TraceCache = store
	for _, label := range []string{"cold", "warm"} {
		o.Obs = obs.New()
		d, err := Collect(o)
		if err != nil {
			t.Fatal(err)
		}
		datasetsMustMatch(t, base, d, label)
		sum := o.Obs.Summary()
		hits, misses := sum.Counter(obs.CtrCacheHits), sum.Counter(obs.CtrCacheMisses)
		if label == "cold" && (hits != 0 || misses != 2) {
			t.Errorf("cold: hits=%d misses=%d, want 0/2", hits, misses)
		}
		if label == "warm" && (hits != 2 || misses != 0) {
			t.Errorf("warm: hits=%d misses=%d, want 2/0", hits, misses)
		}
	}
}

func datasetsMustMatch(t *testing.T, a, b *dataset.Dataset, label string) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: dataset size %d vs %d", label, b.Len(), a.Len())
	}
	for _, tp := range a.Tuples() {
		for _, cfg := range opt.All() {
			sa, sb := a.Samples(tp, cfg), b.Samples(tp, cfg)
			if !reflect.DeepEqual(sa, sb) {
				t.Fatalf("%s: %v/%v samples differ: %v vs %v", label, tp, cfg, sb, sa)
			}
		}
	}
}

// TestTracesCorruptCacheFallsBackToRetrace damages every cached entry
// in a different way and proves a warm run still produces traces
// bit-identical to a cold run.
func TestTracesCorruptCacheFallsBackToRetrace(t *testing.T) {
	o := mediumOptions(t)
	cold := mustTraces(o, t)

	dir := t.TempDir()
	store, err := tracecache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	healed := obs.New()
	o.TraceCache = store.SetObs(healed)
	mustTraces(o, t) // populate

	entries, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache entries written: %v", err)
	}
	for i, path := range entries {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0: // truncation
			raw = raw[:len(raw)*2/3]
		case 1: // payload corruption behind an intact header
			raw[len(raw)-3] ^= 0x11
		case 2: // stale format version
			raw = bytes.Replace(raw, []byte("gpuport-tracecache 1 "), []byte("gpuport-tracecache 999 "), 1)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	tracesEqual(t, cold, mustTraces(o, t))
	if got := healed.Summary().Counter(obs.CtrCacheCorrupt); got != int64(len(entries)) {
		t.Errorf("corrupt entries detected = %d, want %d", got, len(entries))
	}
	// And the re-trace healed the cache: next run is all hits.
	o.Obs = obs.New()
	tracesEqual(t, cold, mustTraces(o, t))
	if got := o.Obs.Summary().Counter(obs.CtrCacheHits); got != int64(len(cold)) {
		t.Errorf("healed cache served %d hits, want %d", got, len(cold))
	}
}

// cancelAfter returns a Notify sink that cancels after n traced pairs,
// modelling SIGINT landing mid trace phase.
func cancelAfter(n int, cancel context.CancelFunc) func(string, int, int) {
	return func(_ string, done, _ int) {
		if done >= n {
			cancel()
		}
	}
}

func TestTracesCancelledMidPhase(t *testing.T) {
	o := mediumOptions(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o.Ctx = ctx
	o.Workers = 2
	o.Notify = cancelAfter(2, cancel)
	if _, err := Traces(o); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestTracesCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := smallOptions()
	o.Ctx = ctx
	if _, err := Traces(o); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestTracesInterruptedThenResumedBitIdentical interrupts the trace
// phase mid-flight with a warm-up cache attached, then reruns to
// completion against the same cache: the partially-populated cache must
// yield a dataset bit-identical to a never-interrupted cold run.
func TestTracesInterruptedThenResumedBitIdentical(t *testing.T) {
	o := mediumOptions(t)
	base, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}

	store, err := tracecache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := o
	interrupted.Ctx = ctx
	interrupted.TraceCache = store
	interrupted.Workers = 2
	interrupted.Notify = cancelAfter(3, cancel)
	if _, err := Traces(interrupted); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if store.Len() == 0 {
		t.Fatal("interrupted trace phase persisted nothing; resume would restart from scratch")
	}

	resumed := o
	resumed.TraceCache = store
	resumed.Obs = obs.New()
	d, err := Collect(resumed)
	if err != nil {
		t.Fatal(err)
	}
	datasetsMustMatch(t, base, d, "interrupted-then-resumed")
	if resumed.Obs.Summary().Counter(obs.CtrCacheHits) == 0 {
		t.Error("resume re-traced everything; the interrupted phase's work was wasted")
	}
}

func TestTracesValidationErrorPropagatesParallel(t *testing.T) {
	broken := apps.App{
		Name:    "bfs-broken",
		Problem: "BFS",
		Version: "1",
	}
	real, _ := apps.ByName("bfs-wl")
	broken.Run = real.Run
	broken.Check = func(g *graph.Graph, out any) error { return errors.New("always wrong") }

	o := mediumOptions(t)
	o.Apps = append([]apps.App{}, o.Apps...)
	o.Apps[3] = broken
	o.Validate = true
	o.Workers = 4
	_, err := Traces(o)
	if err == nil || !strings.Contains(err.Error(), "failed validation") {
		t.Fatalf("err = %v, want validation failure", err)
	}
}

// TestTracesValidateFlagPartitionsCache proves a cached unvalidated
// trace never satisfies a validating run (the flag is part of the key).
func TestTracesValidateFlagPartitionsCache(t *testing.T) {
	o := smallOptions()
	store, err := tracecache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	o.TraceCache = store
	if _, err := Traces(o); err != nil { // unvalidated fill
		t.Fatal(err)
	}
	o.Validate = true
	o.Obs = obs.New()
	if _, err := Traces(o); err != nil {
		t.Fatal(err)
	}
	if hits := o.Obs.Summary().Counter(obs.CtrCacheHits); hits != 0 {
		t.Errorf("validating run hit %d unvalidated entries", hits)
	}
}
