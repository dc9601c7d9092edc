// Command gpuportd is the sweep-as-a-service daemon: it accepts
// portability-study campaigns (chip set, app set, inputs, config
// subspace, fault profile) over HTTP/JSON, runs them concurrently on a
// shared trace cache, streams progress, persists results and
// checkpoints for instant cache answers and resume-after-restart, and
// exposes Prometheus metrics plus a Chrome trace of its own runners.
//
//	gpuportd -listen 127.0.0.1:8321 -jobdir /var/lib/gpuportd \
//	         -trace-cache /var/cache/gpuport
//
// See the README's "Running the server" section for the API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"gpuport/internal/obs"
	"gpuport/internal/server"
	"gpuport/internal/tracecache"
)

// Connection timeouts of the HTTP front end: a client that never
// finishes its request headers, or leaves a keep-alive connection idle,
// is cut off. There is deliberately no write timeout, because
// result?wait=1, /events and /debug/obs-stream are long-lived responses.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer serves h with the daemon's connection timeouts.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "gpuportd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("gpuportd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8321", "address to serve the HTTP API on (use :0 for an ephemeral port)")
	campaigns := fs.Int("campaigns", 2, "campaigns executed concurrently")
	workers := fs.Int("workers", 0, "per-campaign trace and sweep workers (default GOMAXPROCS)")
	jobDir := fs.String("jobdir", "", "directory for persisted results and checkpoints (enables cache answers and resume)")
	cacheDir := fs.String("trace-cache", "", "directory for the shared content-addressed trace cache (created if missing)")
	cacheMB := fs.Int("trace-cache-mb", 0, "trace cache size cap in MiB (default 256)")
	obsTick := fs.Duration("obs-tick", 10*time.Second, "telemetry sampling period for the time-series store (0 disables ticking)")
	obsSim := fs.Bool("obs-sim", false, "capture the simulated kernel timeline in the debug trace (bulky)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	rec := obs.New().EnableTracing()
	if *obsSim {
		rec.EnableSim()
	}
	cfg := server.Config{
		Ctx:       ctx,
		Campaigns: *campaigns,
		Workers:   *workers,
		JobDir:    *jobDir,
		Obs:       rec,
	}
	if *cacheDir != "" {
		store, err := tracecache.Open(*cacheDir, int64(*cacheMB)<<20)
		if err != nil {
			return err
		}
		cfg.TraceCache = store.SetObs(rec)
	}

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	if *obsTick > 0 {
		// The daemon owns the telemetry clock: the store itself never
		// reads wall time, so tests can tick it virtually instead.
		go func() {
			t := time.NewTicker(*obsTick)
			defer t.Stop()
			start := time.Now()
			for {
				select {
				case <-ctx.Done():
					return
				case now := <-t.C:
					srv.Sample(now.Sub(start).Nanoseconds())
				}
			}
		}()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "gpuportd listening on http://%s\n", ln.Addr())

	hs := newHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case <-ctx.Done():
		// Drain in-flight responses briefly, then stop; checkpointed
		// jobs resume on the next start.
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(sctx) // best-effort: we are exiting either way
		return ctx.Err()
	case err := <-errc:
		return err
	}
}
