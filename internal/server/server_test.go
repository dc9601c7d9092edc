package server

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"gpuport/internal/measure"
	"gpuport/internal/obs"
	"gpuport/internal/tracecache"
)

// testSpec is a campaign small enough to run in tens of milliseconds:
// 2 chips x 1 app x 1 input x 2 configs.
func testSpec() Spec {
	return Spec{
		Seed:    7,
		Runs:    2,
		Chips:   []string{"M4000", "GTX1080"},
		Apps:    []string{"bfs-wl"},
		Inputs:  []string{"rand-8k"},
		Configs: []string{"baseline", "sg"},
	}
}

// referenceBytes runs the spec's campaign directly through the measure
// job object - the CLI path - and returns its dataset CSV bytes.
func referenceBytes(t *testing.T, spec Spec) []byte {
	t.Helper()
	_, camp, errs := spec.Resolve()
	if errs != nil {
		t.Fatal(errs)
	}
	ds, err := measure.Collect(camp.Options())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newTestServer starts a server that is shut down when the test ends.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if cfg.Ctx == nil {
		cfg.Ctx = ctx
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func submit(t *testing.T, s *Server, spec Spec) *Job {
	t.Helper()
	j, _, errs := s.Submit(spec)
	if errs != nil {
		t.Fatal(errs)
	}
	return j
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s did not finish: %v (state %s)", j.ID(), err, j.State())
	}
}

// TestServerMatchesCLI is the HTTP=CLI differential at the package
// level: a server-run campaign returns byte-identical CSV to the same
// campaign run directly through measure.
func TestServerMatchesCLI(t *testing.T) {
	s := newTestServer(t, Config{})
	j := submit(t, s, testSpec())
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("state = %s, want done", j.State())
	}
	got, errs := j.Result()
	if errs != nil {
		t.Fatal(errs)
	}
	if want := referenceBytes(t, testSpec()); !bytes.Equal(got, want) {
		t.Fatal("server result CSV differs from direct measure run")
	}
	if j.Source() != SourceFresh {
		t.Fatalf("source = %s, want fresh", j.Source())
	}
}

// TestSubmitDeduplicates proves fingerprint-level dedupe: the same spec
// submitted twice is one job, and specs differing only in runtime-free
// fields (priority) still dedupe.
func TestSubmitDeduplicates(t *testing.T) {
	s := newTestServer(t, Config{})
	a := submit(t, s, testSpec())
	spec := testSpec()
	spec.Priority = 3 // scheduling, not identity
	b := submit(t, s, spec)
	if a != b {
		t.Fatal("same campaign produced two jobs")
	}
	if got := s.Snapshot().Summary.Counter(obs.CtrJobsDeduped); got != 1 {
		t.Fatalf("jobs-deduped = %d, want 1", got)
	}
	waitDone(t, a)
}

// TestCacheServedAfterRestart proves the persisted job store: a new
// server process answers a finished campaign instantly, byte-for-byte,
// without re-measuring.
func TestCacheServedAfterRestart(t *testing.T) {
	jobDir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	a, err := New(Config{Ctx: ctx, JobDir: jobDir})
	if err != nil {
		t.Fatal(err)
	}
	ja := submit(t, a, testSpec())
	waitDone(t, ja)
	wantResult, errs := ja.Result()
	if errs != nil {
		t.Fatal(errs)
	}
	wantStatus := ja.StatusBytes()
	a.Close()

	b := newTestServer(t, Config{JobDir: jobDir})
	jb := submit(t, b, testSpec())
	if jb.State() != StateDone {
		t.Fatalf("restarted server state = %s, want instant done", jb.State())
	}
	if jb.Source() != SourceCache {
		t.Fatalf("source = %s, want cache", jb.Source())
	}
	gotResult, errs := jb.Result()
	if errs != nil {
		t.Fatal(errs)
	}
	if !bytes.Equal(gotResult, wantResult) {
		t.Fatal("cache-served result differs from original bytes")
	}
	if !bytes.Equal(jb.StatusBytes(), wantStatus) {
		t.Fatalf("cache-served status differs from original:\n%s\nvs\n%s", jb.StatusBytes(), wantStatus)
	}
	if got := b.Snapshot().Summary.Counter(obs.CtrJobsCached); got != 1 {
		t.Fatalf("jobs-result-cached = %d, want 1", got)
	}
}

// TestDamagedJobEntryIsRecomputed proves the job directory never
// serves a wrong byte: whatever happened to a finished job's entry
// between two server processes, the resubmit is computed afresh,
// answers the reference bytes and leaves a new verified entry.
func TestDamagedJobEntryIsRecomputed(t *testing.T) {
	rewrite := func(t *testing.T, path string, mangle func([]byte) []byte) {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mangle(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		damage func(t *testing.T, entry string, ja *Job)
	}{
		{"truncated", func(t *testing.T, entry string, _ *Job) {
			rewrite(t, entry, func(raw []byte) []byte { return raw[:len(raw)/2] })
		}},
		{"payload byte flipped", func(t *testing.T, entry string, _ *Job) {
			// The last sample's final digit: still a well-formed CSV.
			rewrite(t, entry, func(raw []byte) []byte { raw[len(raw)-2] ^= 0x01; return raw })
		}},
		{"stale version", func(t *testing.T, entry string, _ *Job) {
			rewrite(t, entry, func(raw []byte) []byte {
				return bytes.Replace(raw, []byte("gpuport-tracecache 1 "), []byte("gpuport-tracecache 0 "), 1)
			})
		}},
		{"deleted", func(t *testing.T, entry string, _ *Job) {
			if err := os.Remove(entry); err != nil {
				t.Fatal(err)
			}
		}},
		{"old layout", func(t *testing.T, entry string, ja *Job) {
			// An older daemon left the status body and the result CSV
			// as two unverified files.
			if err := os.Remove(entry); err != nil {
				t.Fatal(err)
			}
			result, _ := ja.Result()
			for _, f := range []struct {
				kind, ext string
				body      []byte
			}{{"status", "json", ja.StatusBytes()}, {"result", "csv", result}} {
				path := filepath.Join(filepath.Dir(entry), ja.ID()+"."+f.kind+"."+f.ext)
				if err := os.WriteFile(path, f.body, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	want := referenceBytes(t, testSpec())
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jobDir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			a, err := New(Config{Ctx: ctx, JobDir: jobDir})
			if err != nil {
				t.Fatal(err)
			}
			ja := submit(t, a, testSpec())
			waitDone(t, ja)
			a.Close()
			entry := filepath.Join(jobDir, ja.ID()+".done")
			des, err := os.ReadDir(jobDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(des) != 1 || des[0].Name() != filepath.Base(entry) {
				t.Fatalf("job dir holds %v, want only %s", des, filepath.Base(entry))
			}
			tc.damage(t, entry, ja)

			b := newTestServer(t, Config{JobDir: jobDir})
			jb := submit(t, b, testSpec())
			waitDone(t, jb)
			if jb.State() != StateDone || jb.Source() != SourceFresh {
				t.Fatalf("state %s from %s, want done from fresh", jb.State(), jb.Source())
			}
			got, errs := jb.Result()
			if errs != nil {
				t.Fatal(errs)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("recomputed result differs from reference")
			}
			payload, err := tracecache.ReadEntry(entry)
			if err != nil {
				t.Fatalf("no verified entry after recompute: %v", err)
			}
			if !bytes.Equal(payload, slices.Concat(jb.StatusBytes(), want)) {
				t.Fatal("new entry is not the status line followed by the result")
			}
		})
	}
}

// TestPersistFailureCounted proves a job whose entry cannot be written
// still finishes: the failure is counted on the daemon recorder and
// the in-memory result is served byte-identical.
func TestPersistFailureCounted(t *testing.T) {
	jobDir := t.TempDir()
	s := newTestServer(t, Config{JobDir: jobDir})
	_, camp, errs := testSpec().Resolve()
	if errs != nil {
		t.Fatal(errs)
	}
	// A directory in the entry's place fails the write's final rename,
	// while the checkpoint beside it still works.
	if err := os.Mkdir(filepath.Join(jobDir, camp.Fingerprint()[:16]+".done"), 0o755); err != nil {
		t.Fatal(err)
	}
	j := submit(t, s, testSpec())
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("state = %s, want done: %s", j.State(), j.StatusBytes())
	}
	if got := s.Snapshot().Summary.Counter(obs.CtrJobsPersistErrors); got != 1 {
		t.Fatalf("%s = %d, want 1", obs.CtrJobsPersistErrors, got)
	}
	got, errs := j.Result()
	if errs != nil {
		t.Fatal(errs)
	}
	if want := referenceBytes(t, testSpec()); !bytes.Equal(got, want) {
		t.Fatal("result served after a persist failure differs from reference")
	}
}

// TestResumeFromCheckpoint proves deterministic resumption: a partial
// checkpoint left behind by an interrupted execution is loaded instead
// of re-measured, and the finished result is byte-identical to an
// uninterrupted run. The partial file is the campaign's own checkpoint
// cut after its first job entry. A kill that tore the next entry
// leaves the same cells to resume: the torn entry fails to verify, so
// its cells are measured again, not loaded.
func TestResumeFromCheckpoint(t *testing.T) {
	for _, name := range []string{"intact", "torn"} {
		t.Run(name, func(t *testing.T) {
			jobDir := t.TempDir()
			_, camp, errs := testSpec().Resolve()
			if errs != nil {
				t.Fatal(errs)
			}
			id := camp.Fingerprint()[:16]

			// Simulate the interrupted daemon: the campaign entry and
			// the first job's entry are in the job's checkpoint when
			// the server starts.
			o := camp.Options()
			o.Workers = 1
			o.Checkpoint = filepath.Join(t.TempDir(), "full.ckpt")
			if _, err := measure.Collect(o); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(o.Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			_, rest, err := tracecache.CutEntry(raw)
			if err != nil {
				t.Fatal(err)
			}
			job, rest, err := tracecache.CutEntry(rest)
			if err != nil || len(rest) == 0 {
				t.Fatalf("checkpoint holds no second job entry (%v)", err)
			}
			partial := raw[:len(raw)-len(rest)]
			if name == "torn" {
				// Cut the next entry inside its last sample.
				partial = raw[:len(raw)-5]
			}
			if err := os.WriteFile(filepath.Join(jobDir, id+".ckpt"), partial, 0o644); err != nil {
				t.Fatal(err)
			}
			wantResumed := bytes.Count(job, []byte{'\n'})

			s := newTestServer(t, Config{JobDir: jobDir})
			j := submit(t, s, testSpec())
			waitDone(t, j)
			if j.State() != StateDone {
				t.Fatalf("state = %s, want done", j.State())
			}
			if got := j.Resumed(); got != wantResumed {
				t.Fatalf("resumed = %d, want %d", got, wantResumed)
			}
			got, errs := j.Result()
			if errs != nil {
				t.Fatal(errs)
			}
			if want := referenceBytes(t, testSpec()); !bytes.Equal(got, want) {
				t.Fatal("resumed result differs from uninterrupted run")
			}
		})
	}
}

// TestCSVCheckpointFailsCampaign: a <id>.ckpt in the CSV format of
// older checkpoints fails its campaign with an error naming the file,
// and the file is left as it was.
func TestCSVCheckpointFailsCampaign(t *testing.T) {
	jobDir := t.TempDir()
	_, camp, errs := testSpec().Resolve()
	if errs != nil {
		t.Fatal(errs)
	}
	path := filepath.Join(jobDir, camp.Fingerprint()[:16]+".ckpt")
	old := referenceBytes(t, testSpec())
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	j := submit(t, newTestServer(t, Config{JobDir: jobDir}), testSpec())
	waitDone(t, j)
	if st := j.Status(); st.State != StateFailed || !strings.Contains(st.Error, path) {
		t.Fatalf("state %s, error %q; want failed naming %s", st.State, st.Error, path)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("the failed campaign changed %s (%v)", path, err)
	}
}

// TestShutdownMidJobThenResume is the kill test proper: the server is
// closed while a campaign runs, a second server over the same job
// directory finishes the job, and the bytes match an uninterrupted run.
func TestShutdownMidJobThenResume(t *testing.T) {
	jobDir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a, err := New(Config{Ctx: ctx, JobDir: jobDir})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	spec.Chips = nil   // all 6 chips
	spec.Configs = nil // all 96 configs: enough work to interrupt
	ja := submit(t, a, spec)
	deadline := time.Now().Add(30 * time.Second)
	for ja.Status().Progress.SweepJobs == 0 && ja.State() != StateDone {
		if time.Now().After(deadline) {
			t.Fatal("no sweep progress before deadline")
		}
		time.Sleep(time.Millisecond)
	}
	a.Close() // kill mid-flight; checkpoint survives

	b := newTestServer(t, Config{JobDir: jobDir})
	jb := submit(t, b, spec)
	waitDone(t, jb)
	if jb.State() != StateDone {
		t.Fatalf("state after restart = %s, want done", jb.State())
	}
	got, errs := jb.Result()
	if errs != nil {
		t.Fatal(errs)
	}
	if want := referenceBytes(t, spec); !bytes.Equal(got, want) {
		t.Fatal("post-restart result differs from uninterrupted run")
	}
}

// TestCancelQueuedJob cancels a job that never reached a runner.
func TestCancelQueuedJob(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // runners exit immediately: submissions stay queued
	s, err := New(Config{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j := submit(t, s, testSpec())
	if j.State() != StateQueued {
		t.Fatalf("state = %s, want queued", j.State())
	}
	cj, errs := s.Cancel(j.ID())
	if errs != nil {
		t.Fatal(errs)
	}
	if cj.State() != StateCanceled {
		t.Fatalf("state = %s, want canceled", cj.State())
	}
	if _, errs := s.Cancel(j.ID()); errs == nil || errs.Status != 409 {
		t.Fatalf("second cancel = %v, want 409", errs)
	}
	if _, errs := j.Result(); errs == nil || errs.Code != "canceled" {
		t.Fatalf("result of canceled job = %v, want canceled error", errs)
	}
}

// TestCancelRunningJobThenRetry cancels an in-flight campaign, then
// resubmits it: the retry runs fresh (same id) and completes with the
// canonical bytes.
func TestCancelRunningJobThenRetry(t *testing.T) {
	s := newTestServer(t, Config{})
	spec := testSpec()
	spec.Chips = nil
	spec.Configs = nil
	j := submit(t, s, spec)
	deadline := time.Now().Add(30 * time.Second)
	for j.State() == StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, errs := s.Cancel(j.ID()); errs != nil && errs.Status != 409 {
		t.Fatal(errs)
	}
	waitDone(t, j)

	r := submit(t, s, spec)
	if r == j {
		// The job finished before the cancel landed; dedupe returned it.
		if r.State() != StateDone {
			t.Fatalf("deduped job state = %s", r.State())
		}
		return
	}
	waitDone(t, r)
	if r.State() != StateDone {
		t.Fatalf("retry state = %s, want done", r.State())
	}
	got, errs := r.Result()
	if errs != nil {
		t.Fatal(errs)
	}
	if want := referenceBytes(t, spec); !bytes.Equal(got, want) {
		t.Fatal("retried result differs from reference")
	}
}

// TestConcurrentCampaignsShareCacheBitIdentical is the -race stress
// gate: distinct campaigns run concurrently on one trace cache and one
// runner pool, and each result is byte-identical to its serial
// reference run.
func TestConcurrentCampaignsShareCacheBitIdentical(t *testing.T) {
	store, err := tracecache.Open(t.TempDir(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Campaigns: 4, TraceCache: store})

	specs := []Spec{}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, app := range []string{"bfs-wl", "pr-residual"} {
			sp := testSpec()
			sp.Seed = seed
			sp.Apps = []string{app}
			specs = append(specs, sp)
		}
	}
	jobs := make([]*Job, len(specs))
	for i, sp := range specs {
		jobs[i] = submit(t, s, sp)
	}
	// Duplicate submissions land on the same jobs while they run.
	for _, sp := range specs {
		submit(t, s, sp)
	}
	for i, j := range jobs {
		waitDone(t, j)
		if j.State() != StateDone {
			t.Fatalf("job %d state = %s: %s", i, j.State(), j.StatusBytes())
		}
		got, errs := j.Result()
		if errs != nil {
			t.Fatal(errs)
		}
		if want := referenceBytes(t, specs[i]); !bytes.Equal(got, want) {
			t.Fatalf("job %d (seed %d, app %s): concurrent result differs from serial run",
				i, specs[i].Seed, specs[i].Apps[0])
		}
	}
	if store.Len() == 0 {
		t.Fatal("shared trace cache was never populated")
	}
}

// TestSubmitValidation pins the structured 4xx surface of Resolve.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name    string
		mutate  func(*Spec)
		field   string
		message string
	}{
		{"bad chip", func(sp *Spec) { sp.Chips = []string{"H100"} }, "chips", "unknown chip"},
		{"dup chip", func(sp *Spec) { sp.Chips = []string{"M4000", "M4000"} }, "chips", "duplicate"},
		{"bad app", func(sp *Spec) { sp.Apps = []string{"llm"} }, "apps", "unknown application"},
		{"bad input", func(sp *Spec) { sp.Inputs = []string{"twitter"} }, "inputs", "unknown input"},
		{"empty configs", func(sp *Spec) { sp.Configs = []string{} }, "configs", "empty"},
		{"bad config", func(sp *Spec) { sp.Configs = []string{"warp-magic"} }, "configs", "unknown flag"},
		{"bad faults", func(sp *Spec) { sp.Faults = "explode=yes" }, "faults", ""},
		{"runs too big", func(sp *Spec) { sp.Runs = 1000 }, "runs", "1..64"},
		{"negative runs", func(sp *Spec) { sp.Runs = -1 }, "runs", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := testSpec()
			tc.mutate(&sp)
			_, _, errs := s.Submit(sp)
			if errs == nil {
				t.Fatal("submit accepted an invalid spec")
			}
			if errs.Status != 400 || errs.Code != "bad_spec" || errs.Field != tc.field {
				t.Fatalf("error = %+v, want 400 bad_spec on %s", errs, tc.field)
			}
			if tc.message != "" && !strings.Contains(errs.Message, tc.message) {
				t.Fatalf("message %q does not mention %q", errs.Message, tc.message)
			}
		})
	}
}
