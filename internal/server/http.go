package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"gpuport/internal/obs"
)

// maxBodyBytes bounds a request body; campaign specs are small.
const maxBodyBytes = 1 << 20

// Response headers carrying execution provenance. Provenance varies
// between executions of the same campaign (fresh vs cache, resumed
// cell counts), so it never appears in a body - bodies stay
// byte-canonical per (spec, lifecycle state).
const (
	// HeaderSource reports where the answer came from: "fresh" or
	// "cache".
	HeaderSource = "X-Gpuportd-Source"
	// HeaderResumed reports how many cells were restored from the job's
	// checkpoint instead of re-measured.
	HeaderResumed = "X-Gpuportd-Resumed"
)

// Endpoint labels: the obs.AttrEndpoint attribute on request spans and
// the suffix of per-endpoint latency histograms (obs.TSLatencyPrefix).
const (
	endpointSubmit    = "submit"
	endpointList      = "list"
	endpointStatus    = "status"
	endpointResult    = "result"
	endpointEvents    = "events"
	endpointCancel    = "cancel"
	endpointMetrics   = "metrics"
	endpointObsTrace  = "obs-trace"
	endpointObsStream = "obs-stream"
	endpointHealthz   = "healthz"
)

// Handler returns the server's HTTP API:
//
//	POST   /v1/campaigns              submit a campaign spec
//	GET    /v1/campaigns              list known campaigns
//	GET    /v1/campaigns/{id}         canonical status
//	GET    /v1/campaigns/{id}/result  dataset CSV (?wait=1 blocks)
//	GET    /v1/campaigns/{id}/events  NDJSON progress stream
//	DELETE /v1/campaigns/{id}         cancel
//	GET    /metrics                   Prometheus metrics (+ realtime series)
//	GET    /debug/obs-trace           Chrome trace of the daemon
//	GET    /debug/obs-stream          live NDJSON telemetry stream (?max=N)
//	GET    /healthz                   liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.timed(endpointSubmit, s.handleSubmit))
	mux.HandleFunc("GET /v1/campaigns", s.timed(endpointList, s.handleList))
	mux.HandleFunc("GET /v1/campaigns/{id}", s.timed(endpointStatus, s.handleStatus))
	mux.HandleFunc("GET /v1/campaigns/{id}/result", s.timed(endpointResult, s.handleResult))
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.timed(endpointEvents, s.handleEvents))
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.timed(endpointCancel, s.handleCancel))
	mux.HandleFunc("GET /metrics", s.timed(endpointMetrics, s.handleMetrics))
	mux.HandleFunc("GET /debug/obs-trace", s.timed(endpointObsTrace, s.handleObsTrace))
	mux.HandleFunc("GET /debug/obs-stream", s.handleObsStream)
	mux.HandleFunc("GET /healthz", s.timed(endpointHealthz, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = fmt.Fprintln(w, "ok") // best-effort: client may have gone away
	}))
	return mux
}

// timed observes the handler's latency into the endpoint's histogram.
// The clock is the recorder's (time.Now is confined to the
// instrumentation layers), and /metrics writes the histograms under
// the realtime prefix, so latency never touches canonical artifacts.
// The streaming endpoints' "latency" is connection lifetime;
// /debug/obs-stream is not timed at all, since watching the stream
// should not feed it.
func (s *Server) timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	name := obs.TSLatencyPrefix + endpoint
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.rec.NowNS()
		h(w, r)
		d := s.rec.NowNS() - start
		s.mu.Lock()
		defer s.mu.Unlock()
		for i := range s.latency {
			if s.latency[i].Name == name {
				s.latency[i].Observe(d)
				return
			}
		}
		hist := obs.Hist{Name: name}
		hist.Observe(d)
		s.latency = append(s.latency, hist)
	}
}

// writeJSON sends a canonical JSON body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(marshalCanonical(v)) // best-effort: client may have gone away
}

// writeError sends a structured error body with its HTTP status.
func writeError(w http.ResponseWriter, e *Error) {
	writeJSON(w, e.Status, e)
}

// jobHeaders attaches the provenance headers every job response
// carries.
func jobHeaders(w http.ResponseWriter, j *Job) {
	w.Header().Set(HeaderSource, j.Source())
	w.Header().Set(HeaderResumed, strconv.Itoa(j.Resumed()))
}

// unknown is the 404 for an id with no job.
func unknown(id string) *Error {
	return &Error{Status: http.StatusNotFound, Code: "unknown_campaign", Message: fmt.Sprintf("no campaign %q", id)}
}

// decodeSpec reads a submit body: one JSON Spec within the first
// maxBodyBytes, unknown fields rejected.
func decodeSpec(body io.Reader) (Spec, *Error) {
	var spec Spec
	dec := json.NewDecoder(io.LimitReader(body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, &Error{Status: http.StatusBadRequest, Code: "bad_json", Message: err.Error()}
	}
	return spec, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, errs := decodeSpec(r.Body)
	if errs != nil {
		writeError(w, errs)
		return
	}
	j, body, errs := s.Submit(spec)
	if errs != nil {
		writeError(w, errs)
		return
	}
	jobHeaders(w, j)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // best-effort: client may have gone away
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	statuses := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		statuses = append(statuses, j.Status())
	}
	writeJSON(w, http.StatusOK, map[string][]Status{"campaigns": statuses})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, unknown(r.PathValue("id")))
		return
	}
	jobHeaders(w, j)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(j.StatusBytes()) // best-effort: client may have gone away
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, unknown(r.PathValue("id")))
		return
	}
	if r.URL.Query().Get("wait") != "" {
		if err := j.Wait(r.Context()); err != nil {
			writeError(w, &Error{Status: http.StatusRequestTimeout, Code: "wait_interrupted", Message: err.Error()})
			return
		}
	}
	body, errs := j.Result()
	if errs != nil {
		writeError(w, errs)
		return
	}
	jobHeaders(w, j)
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // best-effort: client may have gone away
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, unknown(r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	events, unsubscribe := j.subscribe()
	defer unsubscribe()
	flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-events:
			if !open {
				// Terminal: the stream's last line is the final state,
				// emitted here so slow readers can never miss it.
				_, _ = w.Write(marshalCanonical(Event{State: j.State()})) // best-effort
				flush()
				return
			}
			_, _ = w.Write(marshalCanonical(ev)) // best-effort: disconnect exits via ctx
			flush()
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, errs := s.Cancel(r.PathValue("id"))
	if errs != nil {
		writeError(w, errs)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": j.ID(), "canceling": true})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	gauges := []obs.Counter{
		{Name: obs.TSQueueDepth, Value: int64(s.q.len())},
		{Name: obs.TSRunnersBusy, Value: s.busy},
	}
	hists := append([]obs.Hist(nil), s.latency...)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Deterministic families first, then the realtime (gpuport_rt_)
	// block, which CanonicalMetrics strips.
	_ = obs.WriteMetrics(w, s.Snapshot())   // best-effort: client may have gone away
	_ = obs.WriteRealtime(w, gauges, hists) // best-effort: client may have gone away
}

// handleObsStream serves the recorder's live telemetry as NDJSON: one
// StreamEvent per line, written as spans close and counters move. The
// stream runs until the client disconnects, the server closes, or -
// with ?max=N - after N events (the self-terminating form scripts use).
func (s *Server) handleObsStream(w http.ResponseWriter, r *http.Request) {
	maxEvents := 0
	if v := r.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, &Error{Status: http.StatusBadRequest, Code: "bad_max", Message: fmt.Sprintf("max must be a positive integer, got %q", v)})
			return
		}
		maxEvents = n
	}
	// A deep buffer rides out bursts of span closes from the worker
	// pools; a watcher that still cannot keep up drops events rather
	// than stalling the instrumented paths.
	events, cancel := s.rec.Watch(1024)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	var buf []byte
	sent := 0
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		case ev := <-events:
			buf = ev.AppendNDJSON(buf[:0])
			if _, err := w.Write(buf); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			sent++
			if maxEvents > 0 && sent >= maxEvents {
				return
			}
		}
	}
}

func (s *Server) handleObsTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteChromeTrace(w, s.Snapshot()) // best-effort: client may have gone away
}
