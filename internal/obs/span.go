package obs

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"time"
)

// Track separates the two timelines a run records: the real wall-clock
// of the harness itself, and the simulated (virtual-nanosecond)
// timeline reconstructed from application traces.
type Track uint8

const (
	// TrackReal is the harness timeline: pipeline stages, per-pair and
	// per-job spans, retry events. Real timestamps and durations vary
	// run to run and are therefore stripped by CanonicalTrace.
	TrackReal Track = iota
	// TrackSim is the simulated timeline: kernel launches and host
	// loops on a virtual clock derived purely from the trace, so it is
	// bit-identical across runs.
	TrackSim
)

// String returns the export name of the track.
func (t Track) String() string {
	if t == TrackSim {
		return "sim"
	}
	return "real"
}

// Attr is one typed span or event attribute. Values are stored
// canonically rendered so snapshots compare byte-for-byte.
type Attr struct {
	Key, Value string
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{key, value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr { return Attr{key, strconv.FormatInt(value, 10)} }

// Span is one completed timed section on a track. IDs are
// deterministic: a span's ID is a hash of its parent ID, name and
// attributes, so the same logical span gets the same ID in every run
// regardless of scheduling. Identity must therefore be carried by the
// attributes (app, input, chip, launch index, ...), never by arrival
// order - the instrumented call sites all do this.
type Span struct {
	// ID is the deterministic span identity; Parent is 0 for roots.
	ID, Parent uint64
	// TraceID groups every span of one logical request (a campaign's
	// journey through submit, queue, runner and pipeline) into one
	// connected trace. It is derived from content (NewTraceID over the
	// campaign fingerprint), never from clocks or arrival order, so a
	// trace's identity is bit-identical across runs. 0 means the span
	// belongs to no request trace (the daemon's own housekeeping).
	TraceID uint64
	// Links name other spans this span is causally related to across
	// an async boundary (a runner's campaign span links back to the
	// HTTP request span that enqueued it). Link targets are span IDs,
	// deterministic like everything else here.
	Links []uint64
	Name  string
	Track Track
	// Lane is the export thread: the worker id on the real track
	// (scheduling-dependent, stripped by CanonicalTrace), the
	// canonical pair index on the simulated track (deterministic).
	Lane  int
	Attrs []Attr
	// StartNS/DurNS are nanoseconds since the recorder epoch on the
	// real track, virtual nanoseconds on the simulated track.
	StartNS, DurNS int64
}

// NewTraceID derives a deterministic 64-bit trace identity from the
// given parts (typically a kind tag plus a content fingerprint). The
// same parts yield the same trace ID in every run and process.
func NewTraceID(parts ...string) uint64 {
	h := fnv.New64a()
	for i, p := range parts {
		if i > 0 {
			h.Write([]byte{'|'})
		}
		h.Write([]byte(p))
	}
	id := h.Sum64()
	if id == 0 {
		id = 1 // 0 is reserved for "no trace"
	}
	return id
}

// Event is one instantaneous occurrence attached to a span.
type Event struct {
	// SpanID names the owning span (0 for a free-standing event).
	SpanID uint64
	Name   string
	Track  Track
	Lane   int
	TSNS   int64
	Attrs  []Attr
}

// Hist is a fixed-bound histogram of a deterministic integer quantity.
// Bucket i counts observations <= HistBounds[i]; the final bucket is
// the +Inf overflow. Sum and Count are integers, so merging worker-
// local histograms in any order yields identical snapshots.
type Hist struct {
	Name    string
	Buckets [HistBuckets]int64
	Sum     int64
	Count   int64
}

// Observe adds one observation.
func (h *Hist) Observe(v int64) {
	i := sort.Search(len(HistBounds), func(i int) bool { return v <= HistBounds[i] })
	h.Buckets[i]++
	h.Sum += v
	h.Count++
}

// merge folds o into h.
func (h *Hist) merge(o *Hist) {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.Sum += o.Sum
	h.Count += o.Count
}

// LaneName labels one export thread of a track.
type LaneName struct {
	Track Track
	Lane  int
	Name  string
}

// spanID derives the deterministic identity of a span.
func spanID(parent uint64, name string, attrs []Attr) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", parent, name)
	for _, a := range attrs {
		fmt.Fprintf(h, "|%s=%s", a.Key, a.Value)
	}
	id := h.Sum64()
	if id == 0 {
		id = 1 // 0 is reserved for "no parent"
	}
	return id
}

// EnableTracing turns on span and event capture, and so the stage
// totals (off by default: the counters cost nothing and are always on,
// while a traced full sweep records thousands of spans). Call before
// concurrent use begins.
func (r *Recorder) EnableTracing() *Recorder {
	if r != nil {
		r.st.tracing = true
	}
	return r
}

// EnableSim additionally turns on the simulated kernel timeline, the
// bulkiest capture (one span per kernel launch per traced pair).
// Implies EnableTracing.
func (r *Recorder) EnableSim() *Recorder {
	if r != nil {
		r.st.tracing = true
		r.st.sim = true
	}
	return r
}

// TracingEnabled reports whether spans and events are being captured.
func (r *Recorder) TracingEnabled() bool { return r != nil && r.st.tracing }

// SimEnabled reports whether the simulated timeline is being captured.
func (r *Recorder) SimEnabled() bool { return r != nil && r.st.sim }

// NowNS returns nanoseconds since the recorder's first observation on
// the recorder's clock. Instrumented packages that may not read the
// wall clock themselves (the walltime gate confines time.Now to the
// instrumentation layers) route latency measurements through this.
func (r *Recorder) NowNS() int64 {
	if r == nil {
		return 0
	}
	return r.epochNS()
}

// epochNS returns nanoseconds since the recorder's first observation.
func (r *Recorder) epochNS() int64 {
	now := r.st.now()
	r.st.mu.Lock()
	if r.st.epoch.IsZero() {
		r.st.epoch = now
	}
	d := now.Sub(r.st.epoch)
	r.st.mu.Unlock()
	return d.Nanoseconds()
}

// SpanHandle is an open span. End it exactly once; events and child
// spans may be attached while it is open. A nil handle (tracing
// disabled) is a no-op, so instrumented code never needs checks.
type SpanHandle struct {
	r    *Recorder
	span Span
}

// StartSpan opens a root span on the real track. The attributes are
// part of the span's identity and must make it unique among its
// siblings (see Span). On a scoped view the root is a child of the
// view's parent: it carries the view's trace and parent, and its ID
// hashes that parent.
func (r *Recorder) StartSpan(name string, lane int, attrs ...Attr) *SpanHandle {
	if !r.TracingEnabled() {
		return nil
	}
	return &SpanHandle{r: r, span: Span{
		ID:      spanID(r.parent, name, attrs),
		Parent:  r.parent,
		TraceID: r.trace,
		Name:    name,
		Lane:    lane,
		Attrs:   attrs,
		StartNS: r.epochNS(),
	}}
}

// StartSpan opens a child span of h on the real track. The child
// inherits h's trace ID as it is at creation time.
func (h *SpanHandle) StartSpan(name string, lane int, attrs ...Attr) *SpanHandle {
	if h == nil {
		return nil
	}
	return &SpanHandle{r: h.r, span: Span{
		ID:      spanID(h.span.ID, name, attrs),
		Parent:  h.span.ID,
		TraceID: h.span.TraceID,
		Name:    name,
		Lane:    lane,
		Attrs:   attrs,
		StartNS: h.r.epochNS(),
	}}
}

// InTrace binds the span to a request trace. It returns h for
// chaining. The trace ID is presentation, not identity: it does not
// participate in the span's ID, so it may be set after creation (a
// submit handler only learns the campaign fingerprint mid-request).
// Children opened after InTrace inherit the trace.
func (h *SpanHandle) InTrace(trace uint64) *SpanHandle {
	if h != nil {
		h.span.TraceID = trace
	}
	return h
}

// Link records a causal link from this span to another span (by its
// deterministic ID), connecting work across async boundaries such as
// the submit/runner handoff.
func (h *SpanHandle) Link(id uint64) {
	if h != nil && id != 0 {
		h.span.Links = append(h.span.Links, id)
	}
}

// ID returns the span's deterministic identity (0 on a nil handle).
func (h *SpanHandle) ID() uint64 {
	if h == nil {
		return 0
	}
	return h.span.ID
}

// Event attaches an instantaneous event to the span.
func (h *SpanHandle) Event(name string, attrs ...Attr) {
	if h == nil {
		return
	}
	h.r.event(Event{
		SpanID: h.span.ID,
		Name:   name,
		Track:  TrackReal,
		Lane:   h.span.Lane,
		TSNS:   h.r.epochNS(),
		Attrs:  attrs,
	})
}

// Event records a free-standing event on the real track; spanID may be
// 0 or a span obtained from SpanHandle.ID (this is how packages that
// only hold a span ID, not a handle, attach their events).
func (r *Recorder) Event(name string, spanID uint64, attrs ...Attr) {
	if !r.TracingEnabled() {
		return
	}
	r.event(Event{
		SpanID: spanID,
		Name:   name,
		Track:  TrackReal,
		TSNS:   r.epochNS(),
		Attrs:  attrs,
	})
}

func (r *Recorder) event(e Event) {
	r.st.mu.Lock()
	r.st.events = append(r.st.events, e)
	r.st.mu.Unlock()
}

// End closes the span, recording its duration and notifying any live
// stream watchers (see Watch).
func (h *SpanHandle) End() {
	if h == nil {
		return
	}
	h.span.DurNS = h.r.epochNS() - h.span.StartNS
	h.r.st.mu.Lock()
	h.r.st.keepLocked(h.span)
	h.r.st.publishSpanLocked(h.span)
	h.r.st.mu.Unlock()
}

// keepLocked stores a completed span; a real-track stage span also adds
// its duration to its stage's total (simulated-track names come from
// the applications and never count). Callers hold s.mu.
func (s *store) keepLocked(sp Span) {
	s.spans = append(s.spans, sp)
	for i := range s.stages {
		if sp.Track == TrackReal && s.stages[i].Name == sp.Name {
			s.stages[i].Duration += time.Duration(sp.DurNS)
			s.stages[i].Calls++
		}
	}
}

// SimSpan records one completed span on the simulated track with an
// explicit virtual interval. Returns the span's ID for parenting. On a
// scoped view the span carries the view's trace; a root (parent 0)
// stays unparented, but its ID hashes the view's parent, so the same
// timeline recorded by two campaigns gets two IDs.
func (r *Recorder) SimSpan(lane int, parent uint64, name string, startNS, durNS int64, attrs ...Attr) uint64 {
	if !r.SimEnabled() {
		return 0
	}
	idParent := parent
	if parent == 0 {
		idParent = r.parent
	}
	s := Span{
		ID:      spanID(idParent, name, attrs),
		Parent:  parent,
		TraceID: r.trace,
		Name:    name,
		Track:   TrackSim,
		Lane:    lane,
		Attrs:   attrs,
		StartNS: startNS,
		DurNS:   durNS,
	}
	r.st.mu.Lock()
	r.st.keepLocked(s)
	r.st.publishSpanLocked(s)
	r.st.mu.Unlock()
	return s.ID
}

// NameLane labels an export thread (Chrome trace thread_name metadata).
// Naming the same lane twice keeps the first name.
func (r *Recorder) NameLane(track Track, lane int, name string) {
	if !r.TracingEnabled() {
		return
	}
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	for _, ln := range r.st.lanes {
		if ln.Track == track && ln.Lane == lane {
			return
		}
	}
	r.st.lanes = append(r.st.lanes, LaneName{track, lane, name})
}

// MergeHist folds a worker-local histogram into the named one. Sums
// and counts are integers, so merge order cannot change the snapshot.
func (r *Recorder) MergeHist(name string, h *Hist) {
	if r == nil || h == nil || h.Count == 0 {
		return
	}
	r.st.mu.Lock()
	r.st.histByName(name).merge(h)
	r.st.mu.Unlock()
}

// histByName returns the named histogram, creating it; callers hold mu.
func (s *store) histByName(name string) *Hist {
	i, ok := s.histIdx[name]
	if !ok {
		i = len(s.hists)
		s.histIdx[name] = i
		s.hists = append(s.hists, Hist{Name: name})
	}
	return &s.hists[i]
}

// Snapshot is the full immutable state of a Recorder: the flat summary
// plus spans, events, histograms and lane labels, all in deterministic
// order (spans by track and ID, events by track, span, name and
// attributes, histograms and lanes sorted). Only spans that have Ended
// by snapshot time are included.
type Snapshot struct {
	Summary  *Summary
	Spans    []Span
	Events   []Event
	Hists    []Hist
	Lanes    []LaneName
	Counters []Counter // sorted by name (Summary keeps first-use order)
}

// Snapshot captures the recorder in one critical section, so its
// summary, spans, events, histograms and lanes describe one instant.
// The recorder remains usable.
func (r *Recorder) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.st.mu.Lock()
	s := &Snapshot{
		Summary: r.st.summaryLocked(),
		Spans:   append([]Span(nil), r.st.spans...),
		Events:  append([]Event(nil), r.st.events...),
		Hists:   append([]Hist(nil), r.st.hists...),
		Lanes:   append([]LaneName(nil), r.st.lanes...),
	}
	r.st.mu.Unlock()
	s.Counters = append([]Counter(nil), s.Summary.Counters...)
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Spans, func(i, j int) bool {
		a, b := s.Spans[i], s.Spans[j]
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.StartNS < b.StartNS
	})
	sort.Slice(s.Events, func(i, j int) bool { return eventKey(s.Events[i]) < eventKey(s.Events[j]) })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	sort.Slice(s.Lanes, func(i, j int) bool {
		a, b := s.Lanes[i], s.Lanes[j]
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		return a.Lane < b.Lane
	})
	return s
}

// eventKey is the deterministic sort key of an event. Real-track
// timestamps are scheduling-dependent and deliberately excluded:
// identity comes from the owning span, name and attributes.
func eventKey(e Event) string {
	k := fmt.Sprintf("%d|%020d|%s", e.Track, e.SpanID, e.Name)
	for _, a := range e.Attrs {
		k += "|" + a.Key + "=" + a.Value
	}
	if e.Track == TrackSim {
		k += fmt.Sprintf("|%020d", e.TSNS)
	}
	return k
}
