package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"gpuport/internal/tracecache"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden compares got with testdata/<name>, rewriting under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/server -update` to create goldens)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: response is not byte-identical to golden\ngot:  %s\nwant: %s", name, got, want)
	}
}

// httpServer boots a server plus its HTTP front end.
func httpServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// pausedServer boots a server whose runners have already exited, so
// submissions stay queued forever: deterministic "not ready" states.
func pausedServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := New(Config{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// testSpecJSON is the wire form of testSpec, used by the golden suite.
const testSpecJSON = `{"seed":7,"runs":2,"chips":["M4000","GTX1080"],"apps":["bfs-wl"],"inputs":["rand-8k"],"configs":["baseline","sg"]}`

// TestHTTPGoldenLifecycle pins the submit, status and result bodies of
// one campaign byte-for-byte.
func TestHTTPGoldenLifecycle(t *testing.T) {
	s, ts := httpServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/campaigns", testSpecJSON)
	if resp.StatusCode != 200 {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderSource); got != SourceFresh {
		t.Errorf("%s = %q, want fresh", HeaderSource, got)
	}
	golden(t, "submit_queued.golden.json", body)

	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	j, ok := s.Get(st.ID)
	if !ok {
		t.Fatalf("submitted job %q not registered", st.ID)
	}
	waitDone(t, j)

	resp, result := get(t, ts.URL+"/v1/campaigns/"+st.ID+"/result")
	if resp.StatusCode != 200 {
		t.Fatalf("result status = %d: %s", resp.StatusCode, result)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("result content-type = %q", ct)
	}
	if got := resp.Header.Get(HeaderResumed); got != "0" {
		t.Errorf("%s = %q, want 0", HeaderResumed, got)
	}
	golden(t, "result.golden.csv", result)
	if want := referenceBytes(t, testSpec()); !bytes.Equal(result, want) {
		t.Fatal("HTTP result differs from direct measure run")
	}

	resp, status := get(t, ts.URL+"/v1/campaigns/"+st.ID)
	if resp.StatusCode != 200 {
		t.Fatalf("status status = %d: %s", resp.StatusCode, status)
	}
	golden(t, "status_done.golden.json", status)
}

// TestHTTPCacheServedResponses proves a restarted server answers with
// the exact bytes of the original run, flagged as cache in headers.
func TestHTTPCacheServedResponses(t *testing.T) {
	jobDir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a, err := New(Config{Ctx: ctx, JobDir: jobDir})
	if err != nil {
		t.Fatal(err)
	}
	ja := submit(t, a, testSpec())
	waitDone(t, ja)
	wantStatus := ja.StatusBytes()
	wantResult, errs := ja.Result()
	if errs != nil {
		t.Fatal(errs)
	}
	a.Close()

	_, ts := httpServer(t, Config{JobDir: jobDir})
	resp, body := postJSON(t, ts.URL+"/v1/campaigns", testSpecJSON)
	if resp.StatusCode != 200 {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderSource); got != SourceCache {
		t.Errorf("%s = %q, want cache", HeaderSource, got)
	}
	if !bytes.Equal(body, wantStatus) {
		t.Fatal("cache-served submit body differs from original status bytes")
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	_, result := get(t, ts.URL+"/v1/campaigns/"+st.ID+"/result")
	if !bytes.Equal(result, wantResult) {
		t.Fatal("cache-served result differs from original bytes")
	}
}

// TestHTTPErrorTable pins the structured 4xx surface of the API.
func TestHTTPErrorTable(t *testing.T) {
	_, ts := pausedServer(t)
	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		status   int
		code     string
		field    string
		contains string
	}{
		{"malformed json", "POST", "/v1/campaigns", `{"seed":`, 400, "bad_json", "", "unexpected EOF"},
		{"unknown field", "POST", "/v1/campaigns", `{"sede":1}`, 400, "bad_json", "", "unknown field"},
		{"bad chip", "POST", "/v1/campaigns", `{"chips":["H100"]}`, 400, "bad_spec", "chips", "unknown chip"},
		{"empty config subspace", "POST", "/v1/campaigns", `{"configs":[]}`, 400, "bad_spec", "configs", "empty"},
		{"malformed graph spec", "POST", "/v1/campaigns", `{"inputs":["twitter-2010"]}`, 400, "bad_spec", "inputs", "unknown input"},
		{"bad fault profile", "POST", "/v1/campaigns", `{"faults":"explode=yes"}`, 400, "bad_spec", "faults", "unknown spec key"},
		{"runs out of range", "POST", "/v1/campaigns", `{"runs":65}`, 400, "bad_spec", "runs", "1..64"},
		{"retries out of range", "POST", "/v1/campaigns", `{"faults":"transient=1,retries=65"}`, 400, "bad_spec", "faults", "at most 64"},
		{"status of unknown id", "GET", "/v1/campaigns/deadbeef00000000", "", 404, "unknown_campaign", "", "deadbeef"},
		{"result of unknown id", "GET", "/v1/campaigns/deadbeef00000000/result", "", 404, "unknown_campaign", "", ""},
		{"events of unknown id", "GET", "/v1/campaigns/deadbeef00000000/events", "", 404, "unknown_campaign", "", ""},
		{"cancel of unknown id", "DELETE", "/v1/campaigns/deadbeef00000000", "", 404, "unknown_campaign", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			var e Error
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body is not JSON: %s", body)
			}
			if e.Code != tc.code || e.Field != tc.field {
				t.Errorf("error = %+v, want code %s field %q", e, tc.code, tc.field)
			}
			if tc.contains != "" && !strings.Contains(e.Message, tc.contains) {
				t.Errorf("message %q does not mention %q", e.Message, tc.contains)
			}
			if !bytes.HasSuffix(body, []byte("\n")) {
				t.Error("error body missing trailing newline")
			}
		})
	}
}

// TestHTTPResultNotReady pins the 409 for a queued campaign.
func TestHTTPResultNotReady(t *testing.T) {
	_, ts := pausedServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/campaigns", testSpecJSON)
	if resp.StatusCode != 200 {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	resp, body = get(t, ts.URL+"/v1/campaigns/"+st.ID+"/result")
	if resp.StatusCode != 409 {
		t.Fatalf("result status = %d, want 409: %s", resp.StatusCode, body)
	}
	if want := `{"code":"not_ready","message":"campaign is queued"}` + "\n"; string(body) != want {
		t.Errorf("409 body = %q, want %q", body, want)
	}
}

// TestHTTPResultWait exercises the blocking form of the result fetch.
func TestHTTPResultWait(t *testing.T) {
	_, ts := httpServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/campaigns", testSpecJSON)
	if resp.StatusCode != 200 {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	resp, result := get(t, ts.URL+"/v1/campaigns/"+st.ID+"/result?wait=1")
	if resp.StatusCode != 200 {
		t.Fatalf("wait result status = %d: %s", resp.StatusCode, result)
	}
	if want := referenceBytes(t, testSpec()); !bytes.Equal(result, want) {
		t.Fatal("waited result differs from direct measure run")
	}
}

// TestHTTPResultWaitFlag: ?wait takes a boolean. A false one answers
// at once, as no flag does, and a malformed one is a structured 400.
func TestHTTPResultWaitFlag(t *testing.T) {
	_, ts := pausedServer(t) // the job stays queued, so a wait would block
	_, body := postJSON(t, ts.URL+"/v1/campaigns", testSpecJSON)
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	for _, tc := range []struct {
		query  string
		status int
		code   string
	}{
		{"", 409, "not_ready"},
		{"?wait=", 409, "not_ready"},
		{"?wait=0", 409, "not_ready"},
		{"?wait=false", 409, "not_ready"},
		{"?wait=bogus", 400, "bad_wait"},
	} {
		t.Run("result"+tc.query, func(t *testing.T) {
			resp, err := client.Get(ts.URL + "/v1/campaigns/" + st.ID + "/result" + tc.query)
			if err != nil {
				t.Fatal(err) // a wait that blocks times out here
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			var e Error
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body is not JSON: %s", body)
			}
			if resp.StatusCode != tc.status || e.Code != tc.code {
				t.Fatalf("%d %s, want %d %s: %s", resp.StatusCode, e.Code, tc.status, tc.code, body)
			}
		})
	}
}

// TestHTTPEventStream reads the NDJSON progress stream to its end: every
// line parses as an Event and the final line is the terminal state.
func TestHTTPEventStream(t *testing.T) {
	_, ts := httpServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/campaigns", testSpecJSON)
	if resp.StatusCode != 200 {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	stream, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content-type = %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("stream produced no events")
	}
	last := events[len(events)-1]
	if !last.State.terminal() {
		t.Fatalf("last event = %+v, want terminal state", last)
	}
	for _, ev := range events[:len(events)-1] {
		if ev.State == "" && ev.Total == 0 {
			t.Errorf("event %+v has neither phase totals nor a state", ev)
		}
	}
}

// TestHTTPCancel cancels a queued campaign over the API.
func TestHTTPCancel(t *testing.T) {
	s, ts := pausedServer(t)
	_, body := postJSON(t, ts.URL+"/v1/campaigns", testSpecJSON)
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("DELETE", ts.URL+"/v1/campaigns/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	j, _ := s.Get(st.ID)
	if j.State() != StateCanceled {
		t.Fatalf("state = %s, want canceled", j.State())
	}
	_, statusBody := get(t, ts.URL+"/v1/campaigns/"+st.ID)
	var canceled Status
	if err := json.Unmarshal(statusBody, &canceled); err != nil {
		t.Fatal(err)
	}
	if canceled.State != StateCanceled {
		t.Fatalf("status body state = %s, want canceled", canceled.State)
	}
}

// TestHTTPList exercises the campaign listing.
func TestHTTPList(t *testing.T) {
	_, ts := pausedServer(t)
	postJSON(t, ts.URL+"/v1/campaigns", testSpecJSON)
	postJSON(t, ts.URL+"/v1/campaigns", `{"seed":8,"chips":["M4000"],"apps":["bfs-wl"],"inputs":["rand-8k"],"configs":["baseline"]}`)
	resp, body := get(t, ts.URL+"/v1/campaigns")
	if resp.StatusCode != 200 {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	var list struct {
		Campaigns []Status `json:"campaigns"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Campaigns) != 2 {
		t.Fatalf("list has %d campaigns, want 2", len(list.Campaigns))
	}
	if list.Campaigns[0].Spec.Seed != 7 || list.Campaigns[1].Spec.Seed != 8 {
		t.Fatalf("list not in submission order: %s", body)
	}
}

// TestHTTPListSameWhenCacheServed pins the listing of a finished
// campaign: a server that serves it from the job directory lists the
// same bytes, result summary included, as the server that ran it.
func TestHTTPListSameWhenCacheServed(t *testing.T) {
	jobDir := t.TempDir()
	list := func(source string) []byte {
		s, ts := httpServer(t, Config{JobDir: jobDir})
		j := submit(t, s, testSpec())
		waitDone(t, j)
		if j.Source() != source {
			t.Fatalf("source = %s, want %s", j.Source(), source)
		}
		resp, body := get(t, ts.URL+"/v1/campaigns")
		if resp.StatusCode != 200 {
			t.Fatalf("list status = %d: %s", resp.StatusCode, body)
		}
		s.Close() // the entry is written before the runner exits
		return body
	}
	fresh := list(SourceFresh)
	if !bytes.Contains(fresh, []byte(`"result":`)) {
		t.Fatalf("fresh list has no result summary: %s", fresh)
	}
	if cached := list(SourceCache); !bytes.Equal(cached, fresh) {
		t.Fatalf("cache-served list differs from the fresh one:\n%s\nvs\n%s", cached, fresh)
	}
}

// TestHTTPListEntryIsStatusBody: whatever state a job is in, its
// element of the campaign list is the body its status endpoint serves,
// byte for byte. The cache-served job is resubmitted with a priority
// that its persisted entry does not carry.
func TestHTTPListEntryIsStatusBody(t *testing.T) {
	paused := func(t *testing.T) (*Server, string, *Job) {
		s, ts := pausedServer(t)
		return s, ts.URL, submit(t, s, testSpec())
	}
	finished := func(t *testing.T, cfg Config, spec Spec) (string, *Job) {
		s, ts := httpServer(t, cfg)
		j := submit(t, s, spec)
		waitDone(t, j)
		return ts.URL, j
	}
	cases := []struct {
		name  string
		state State
		start func(t *testing.T) (url string, j *Job)
	}{
		{"queued", StateQueued, func(t *testing.T) (string, *Job) {
			_, url, j := paused(t)
			return url, j
		}},
		{"running", StateRunning, func(t *testing.T) (string, *Job) {
			// The paused server has no runner, so the dequeued job stays
			// running with no progress.
			s, url, j := paused(t)
			if s.next() != j {
				t.Fatal("the queue did not hand out the submitted job")
			}
			return url, j
		}},
		{"done", StateDone, func(t *testing.T) (string, *Job) {
			return finished(t, Config{}, testSpec())
		}},
		{"failed", StateFailed, func(t *testing.T) (string, *Job) {
			jobDir := t.TempDir()
			_, camp, errs := testSpec().Resolve()
			if errs != nil {
				t.Fatal(errs)
			}
			ckpt := filepath.Join(jobDir, camp.Fingerprint()[:16]+".ckpt")
			if err := os.WriteFile(ckpt, referenceBytes(t, testSpec()), 0o644); err != nil {
				t.Fatal(err)
			}
			return finished(t, Config{JobDir: jobDir}, testSpec())
		}},
		{"canceled", StateCanceled, func(t *testing.T) (string, *Job) {
			s, url, j := paused(t)
			if _, errs := s.Cancel(j.ID()); errs != nil {
				t.Fatal(errs)
			}
			return url, j
		}},
		{"cache-served", StateDone, func(t *testing.T) (string, *Job) {
			jobDir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			first, err := New(Config{Ctx: ctx, JobDir: jobDir})
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, submit(t, first, testSpec()))
			first.Close()
			spec := testSpec()
			spec.Priority = 5
			url, j := finished(t, Config{JobDir: jobDir}, spec)
			if j.Source() != SourceCache {
				t.Fatalf("source = %s, want cache", j.Source())
			}
			return url, j
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			url, j := tc.start(t)
			if got := j.State(); got != tc.state {
				t.Fatalf("state = %s, want %s", got, tc.state)
			}
			_, status := get(t, url+"/v1/campaigns/"+j.ID())
			_, list := get(t, url+"/v1/campaigns")
			var doc struct {
				Campaigns []json.RawMessage `json:"campaigns"`
			}
			if err := json.Unmarshal(list, &doc); err != nil {
				t.Fatal(err)
			}
			if len(doc.Campaigns) != 1 {
				t.Fatalf("list holds %d campaigns, want 1: %s", len(doc.Campaigns), list)
			}
			if got := append(doc.Campaigns[0], '\n'); !bytes.Equal(got, status) {
				t.Errorf("list element differs from the status body:\n%s\nvs\n%s", got, status)
			}
		})
	}
}

// TestHTTPServedBytesAreTheEntry finishes a job fresh: the status line
// and the result it serves are, together, exactly its <id>.done entry.
func TestHTTPServedBytesAreTheEntry(t *testing.T) {
	jobDir := t.TempDir()
	_, ts := httpServer(t, Config{JobDir: jobDir})
	_, body := postJSON(t, ts.URL+"/v1/campaigns", testSpecJSON)
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	resp, result := get(t, ts.URL+"/v1/campaigns/"+st.ID+"/result?wait=1")
	if resp.StatusCode != 200 || resp.Header.Get(HeaderSource) != SourceFresh {
		t.Fatalf("result %d from %q, want 200 from fresh: %s", resp.StatusCode, resp.Header.Get(HeaderSource), result)
	}
	_, status := get(t, ts.URL+"/v1/campaigns/"+st.ID)
	entry, err := tracecache.ReadEntry(filepath.Join(jobDir, st.ID+".done"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(slices.Concat(status, result), entry) {
		t.Fatal("the served status line and result are not the persisted entry")
	}
}

// TestHTTPMetricsAndTrace checks the observability endpoints carry the
// job counters and a Chrome trace after a campaign completes.
func TestHTTPMetricsAndTrace(t *testing.T) {
	s, ts := httpServer(t, Config{})
	j := submit(t, s, testSpec())
	waitDone(t, j)

	resp, metrics := get(t, ts.URL+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	for _, want := range []string{
		fmt.Sprintf("gpuport_counter_total{name=%q} 1", "jobs-submitted"),
		fmt.Sprintf("gpuport_counter_total{name=%q} 1", "jobs-completed"),
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	resp, trace := get(t, ts.URL+"/debug/obs-trace")
	if resp.StatusCode != 200 {
		t.Fatalf("obs-trace status = %d", resp.StatusCode)
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &tr); err != nil {
		t.Fatalf("obs-trace is not Chrome trace JSON: %v", err)
	}
	if !strings.Contains(string(trace), `"campaign"`) {
		t.Error("obs-trace missing the campaign span")
	}
}

// TestHTTPHealthz checks the liveness probe.
func TestHTTPHealthz(t *testing.T) {
	_, ts := pausedServer(t)
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
}
