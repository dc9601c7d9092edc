// Package obs is a lightweight observability layer for the measurement
// pipeline: always-on integer counters (cache hits, misses, ...) and,
// when tracing is enabled, spans, whose stage spans (trace vs. sweep
// vs. assemble) give each stage's wall-clock total, accumulated
// concurrently and summarised deterministically.
//
// It deliberately measures only the harness, never the simulated
// experiment: stage durations are real wall-clock and therefore vary
// run to run, so they are reported alongside the dataset (the CLI's -v
// summary) but never feed into it.
package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Stage is one pipeline stage's accumulated wall-clock.
type Stage struct {
	Name     string
	Duration time.Duration
	// Calls counts the stage spans that contributed to Duration.
	Calls int
}

// Counter is one named monotonic count.
type Counter struct {
	Name  string
	Value int64
}

// Summary is an immutable snapshot of a Recorder: the stages that have
// ended a span, in pipeline order, and the counters in first-use order
// (deterministic for a fixed code path).
type Summary struct {
	Stages   []Stage
	Counters []Counter
}

// Counter returns the value of the named counter (0 when absent).
func (s *Summary) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// StageDuration returns the accumulated duration of the named stage
// (0 when absent).
func (s *Summary) StageDuration(name string) time.Duration {
	if s == nil {
		return 0
	}
	for _, st := range s.Stages {
		if st.Name == name {
			return st.Duration
		}
	}
	return 0
}

// Format writes the summary as "stage trace 1.2s | stage sweep 3.4s |
// hits 51" lines, one item per line, for -v logging. The first write
// error is returned.
func (s *Summary) Format(w io.Writer) error {
	if s == nil {
		return nil
	}
	for _, st := range s.Stages {
		if _, err := fmt.Fprintf(w, "pipeline: stage %-10s %12s  (%d sections)\n", st.Name, st.Duration.Round(time.Microsecond), st.Calls); err != nil {
			return err
		}
	}
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "pipeline: %-16s %8d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	return nil
}

// Recorder accumulates counters and histograms - and, when tracing is
// enabled, hierarchical spans, events and stage totals (see span.go).
// Safe for concurrent use; the zero value is NOT usable, call New.
// A Recorder is a handle on its store: Scope returns another handle on
// the same store, which files the spans it opens under a request trace.
type Recorder struct {
	st *store
	// trace and parent stamp the spans a scoped view opens (see Scope);
	// both are 0 on a recorder from New.
	trace, parent uint64
}

// store is the state a recorder shares with its scoped views.
type store struct {
	// now is the clock; tests may swap it before concurrent use begins.
	now func() time.Time
	// tracing/sim gate span capture; set before concurrent use begins.
	tracing, sim bool

	mu       sync.Mutex
	stages   []Stage        // guarded by mu; in pipeline order
	counters []Counter      // guarded by mu
	countIdx map[string]int // guarded by mu

	// epoch anchors real-track timestamps; set on first observation.
	epoch   time.Time      // guarded by mu
	spans   []Span         // guarded by mu
	events  []Event        // guarded by mu
	hists   []Hist         // guarded by mu
	histIdx map[string]int // guarded by mu
	lanes   []LaneName     // guarded by mu

	// Live streaming (see stream.go): the registered watchers.
	watchers  map[int]chan StreamEvent // guarded by mu
	nextWatch int                      // guarded by mu
}

// New returns an empty recorder using the real clock.
func New() *Recorder {
	return &Recorder{st: &store{
		now:      time.Now,
		stages:   []Stage{{Name: StageTrace}, {Name: StageSweep}, {Name: StageAssemble}},
		countIdx: map[string]int{},
		histIdx:  map[string]int{},
	}}
}

// NewWithClock returns a recorder on an injected clock (tests).
func NewWithClock(now func() time.Time) *Recorder {
	r := New()
	r.st.now = now
	return r
}

// Scope returns a view of r that records into the same store on the
// same clock. Every span the view opens carries the trace ID, and
// every real-track root it opens is a child of parent, ID included.
// Simulated-track roots stay unparented but hash parent into their
// ID too, so two views under different parents never share a span ID.
// On r itself parent is 0, and IDs are those of an unscoped run. This
// is how a campaign's pipeline records into the daemon's recorder as
// part of the campaign's request trace.
func (r *Recorder) Scope(trace, parent uint64) *Recorder {
	if r == nil {
		return nil
	}
	return &Recorder{st: r.st, trace: trace, parent: parent}
}

// Add increments the named counter by delta. A nil recorder is a no-op,
// so instrumented code never needs nil checks.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	i, ok := r.st.countIdx[name]
	if !ok {
		i = len(r.st.counters)
		r.st.countIdx[name] = i
		r.st.counters = append(r.st.counters, Counter{Name: name})
	}
	r.st.counters[i].Value += delta
	r.st.publishCounterLocked(name, delta, r.st.counters[i].Value)
}

// Summary snapshots the recorder. The recorder remains usable; later
// snapshots include earlier activity.
func (r *Recorder) Summary() *Summary {
	if r == nil {
		return nil
	}
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	s := &Summary{Counters: append([]Counter(nil), r.st.counters...)}
	for _, st := range r.st.stages {
		if st.Calls > 0 {
			s.Stages = append(s.Stages, st)
		}
	}
	return s
}
