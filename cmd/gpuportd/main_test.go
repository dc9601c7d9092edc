package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuport/internal/measure"
	"gpuport/internal/server"
)

// lineCapture forwards the first full stdout line (the listen banner)
// to a channel.
type lineCapture struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	ch   chan string
	sent bool
}

func (lc *lineCapture) Write(p []byte) (int, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.buf.Write(p)
	if !lc.sent {
		if line, _, ok := bytes.Cut(lc.buf.Bytes(), []byte("\n")); ok {
			lc.ch <- string(line)
			lc.sent = true
		}
	}
	return len(p), nil
}

// TestDaemonEndToEnd boots the daemon on an ephemeral port, drives a
// campaign over real HTTP and checks the result equals the CLI path
// (a direct measure campaign run) byte-for-byte.
func TestDaemonEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lc := &lineCapture{ch: make(chan string, 1)}
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{
			"-listen", "127.0.0.1:0",
			"-jobdir", t.TempDir(),
			"-trace-cache", t.TempDir(),
			"-campaigns", "2",
		}, lc)
	}()

	var base string
	select {
	case line := <-lc.ch:
		base = strings.TrimPrefix(line, "gpuportd listening on ")
	case err := <-errc:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never printed its listen banner")
	}
	if !strings.HasPrefix(base, "http://") {
		t.Fatalf("unexpected banner %q", base)
	}

	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	specJSON := `{"seed":11,"runs":2,"chips":["M4000","MALI"],"apps":["sssp-nf"],"inputs":["rand-8k"],"configs":["baseline","wg,sz256"]}`
	resp, err := http.Post(base+"/v1/campaigns", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var st server.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(base + "/v1/campaigns/" + st.ID + "/result?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	result, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("result = %d: %s", resp.StatusCode, result)
	}

	var spec server.Spec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		t.Fatal(err)
	}
	_, camp, serr := spec.Resolve()
	if serr != nil {
		t.Fatal(serr)
	}
	ds, err := measure.Collect(camp.Options())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ds.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(result, want.Bytes()) {
		t.Fatal("daemon result differs from direct campaign run")
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestDaemonRejectsArgs pins the flag surface: stray positional
// arguments are an error, not silently ignored.
func TestDaemonRejectsArgs(t *testing.T) {
	err := run(context.Background(), []string{"sweep"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unexpected argument") {
		t.Fatalf("err = %v, want unexpected argument", err)
	}
}

// TestHTTPServerTimeouts pins the front end's connection timeouts: a
// header and an idle deadline, and no read or write deadline, which
// would cut off the long-lived wait, event and stream responses.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", hs.IdleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v, want none", hs.ReadTimeout, hs.WriteTimeout)
	}
}
