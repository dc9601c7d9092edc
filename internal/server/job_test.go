package server

import (
	"context"
	"strings"
	"testing"
)

func TestErrorRendering(t *testing.T) {
	withField := &Error{Status: 400, Code: "bad_spec", Field: "chips", Message: "unknown chip"}
	if got := withField.Error(); got != "bad_spec (chips): unknown chip" {
		t.Errorf("Error() = %q", got)
	}
	bare := &Error{Status: 404, Code: "unknown_campaign", Message: "no campaign"}
	if got := bare.Error(); got != "unknown_campaign: no campaign" {
		t.Errorf("Error() = %q", got)
	}
}

func TestJobAccessors(t *testing.T) {
	s := newTestServer(t, Config{})
	j := submit(t, s, testSpec())
	waitDone(t, j)
	st := statusOf(t, j)
	if len(st.Fingerprint) != 64 || !strings.HasPrefix(st.Fingerprint, j.ID()) || st.ID != j.ID() {
		t.Errorf("fingerprint %q does not extend id %q (status id %q)", st.Fingerprint, j.ID(), st.ID)
	}
	res := st.Result
	if res == nil || res.Measured != res.Cells || res.Cells != st.Cells {
		t.Errorf("result = %+v, want every one of the %d cells measured", res, st.Cells)
	}
}

func TestJobWaitCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := New(Config{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j := submit(t, s, testSpec()) // runners are gone; never finishes
	if err := j.Wait(ctx); err == nil {
		t.Fatal("Wait with canceled ctx returned nil")
	}
}

func TestSubscribeOnTerminalJob(t *testing.T) {
	s := newTestServer(t, Config{})
	j := submit(t, s, testSpec())
	waitDone(t, j)
	ch, cancel := j.subscribe()
	defer cancel()
	if _, open := <-ch; open {
		t.Fatal("subscription to a terminal job should be closed immediately")
	}
}

// TestFaultyCampaignStatus runs a campaign under a whole-chip dropout:
// the job completes with a partial dataset and the status body carries
// the deterministic failure accounting.
func TestFaultyCampaignStatus(t *testing.T) {
	s := newTestServer(t, Config{})
	spec := testSpec()
	spec.Faults = "dropout=1,seed=4"
	j := submit(t, s, spec)
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("state = %s: %s", j.State(), j.StatusBytes())
	}
	st := statusOf(t, j)
	if st.Result == nil {
		t.Fatal("done status missing result summary")
	}
	if st.Result.Measured >= st.Result.Cells {
		t.Fatalf("dropout=1 measured %d of %d cells, want a partial dataset", st.Result.Measured, st.Result.Cells)
	}
	if len(st.Result.Failures) == 0 || len(st.Result.FailuresByKind) == 0 {
		t.Fatalf("failure accounting missing: %s", j.StatusBytes())
	}
	if st.Result.Coverage == "1.0000" {
		t.Errorf("coverage = %s, want < 1", st.Result.Coverage)
	}
	// The same faulty campaign is still byte-deterministic end to end.
	again := newTestServer(t, Config{})
	k := submit(t, again, spec)
	waitDone(t, k)
	a, errs := j.Result()
	if errs != nil {
		t.Fatal(errs)
	}
	b, errs := k.Result()
	if errs != nil {
		t.Fatal(errs)
	}
	if string(a) != string(b) {
		t.Fatal("faulty campaign result not deterministic across servers")
	}
}
