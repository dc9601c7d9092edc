package obs

import (
	"encoding/json"
	"fmt"
)

// Live telemetry streaming. A Recorder can be watched: every span
// close and every counter delta is fanned out to subscribers as a
// StreamEvent, the unit of the NDJSON /debug/obs-stream endpoint.
// Publishing is non-blocking - a slow watcher drops intermediate
// events, never stalls the instrumented code - and costs nothing when
// nobody watches (one integer check under a lock the hot paths
// already hold).

// StreamEvent kinds.
const (
	// StreamSpan is a span-close event: the span's identity, trace
	// membership and measured duration.
	StreamSpan = "span"
	// StreamCounter is a counter-delta event: the increment just
	// applied and the resulting total.
	StreamCounter = "counter"
)

// StreamEvent is one live telemetry event. The JSON encoding is
// canonical by construction: fields marshal in declaration order and
// the attrs map marshals with sorted keys. DurNS is wall clock on the
// real track and therefore varies run to run; every other field is
// deterministic.
type StreamEvent struct {
	Kind   string            `json:"kind"`
	Track  string            `json:"track,omitempty"`
	Name   string            `json:"name"`
	Trace  string            `json:"trace,omitempty"`
	Span   string            `json:"span,omitempty"`
	Parent string            `json:"parent,omitempty"`
	DurNS  int64             `json:"dur_ns,omitempty"`
	Delta  int64             `json:"delta,omitempty"`
	Total  int64             `json:"total,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// AppendNDJSON appends the event's canonical NDJSON line (JSON object
// plus trailing newline) to dst and returns the extended slice.
func (e StreamEvent) AppendNDJSON(dst []byte) []byte {
	b, err := json.Marshal(e)
	if err != nil {
		// StreamEvent contains no unmarshalable types; reaching this is
		// a programming error worth surfacing loudly in tests.
		panic(fmt.Sprintf("obs: stream event marshal: %v", err))
	}
	dst = append(dst, b...)
	return append(dst, '\n')
}

// Watch subscribes to the recorder's live event stream. Events are
// delivered on the returned channel (buffered to buf, minimum 1);
// events published while the buffer is full are dropped. The cancel
// function unsubscribes and closes the channel. A watcher of r sees
// the events of every scoped view of r as well.
func (r *Recorder) Watch(buf int) (<-chan StreamEvent, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan StreamEvent, buf)
	if r == nil {
		close(ch)
		return ch, func() {}
	}
	st := r.st
	st.mu.Lock()
	if st.watchers == nil {
		st.watchers = map[int]chan StreamEvent{}
	}
	id := st.nextWatch
	st.nextWatch++
	st.watchers[id] = ch
	st.mu.Unlock()
	return ch, func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		if _, ok := st.watchers[id]; ok {
			delete(st.watchers, id)
			close(ch)
		}
	}
}

// deliverLocked fans an event out to the watchers. Callers hold s.mu.
func (s *store) deliverLocked(e StreamEvent) {
	for _, ch := range s.watchers {
		select {
		case ch <- e:
		default:
		}
	}
}

// publishSpanLocked emits a span-close event. Callers hold s.mu.
func (s *store) publishSpanLocked(sp Span) {
	if len(s.watchers) == 0 {
		return
	}
	e := StreamEvent{
		Kind:  StreamSpan,
		Track: sp.Track.String(),
		Name:  sp.Name,
		Span:  hexID(sp.ID),
		DurNS: sp.DurNS,
	}
	if sp.TraceID != 0 {
		e.Trace = hexID(sp.TraceID)
	}
	if sp.Parent != 0 {
		e.Parent = hexID(sp.Parent)
	}
	if len(sp.Attrs) > 0 {
		e.Attrs = make(map[string]string, len(sp.Attrs))
		for _, a := range sp.Attrs {
			e.Attrs[a.Key] = a.Value
		}
	}
	s.deliverLocked(e)
}

// publishCounterLocked emits a counter-delta event. Callers hold s.mu.
func (s *store) publishCounterLocked(name string, delta, total int64) {
	if len(s.watchers) == 0 {
		return
	}
	s.deliverLocked(StreamEvent{Kind: StreamCounter, Name: name, Delta: delta, Total: total})
}

// Adopt folds another recorder's snapshot into r as one connected
// trace: adopted spans are stamped with the trace ID, real-track roots
// are re-parented under parent (the adopting span), stage spans add to
// r's stage totals, and events, histograms, counters and simulated-
// track lane names are carried over (only histograms and counters when
// r is not tracing). Real-track lane names are NOT adopted - worker
// lanes are scheduling artifacts of the donor and would collide with
// the adopter's own lanes. Adopted spans keep the donor's IDs: unlike
// a scoped view (see Scope), which hashes its parent into the IDs of
// the roots it opens, Adopt only restamps trace and parent.
//
// Adopted spans and events are not published to watchers.
func (r *Recorder) Adopt(s *Snapshot, trace, parent uint64) {
	if r == nil || s == nil {
		return
	}
	if r.TracingEnabled() {
		r.st.mu.Lock()
		for _, sp := range s.Spans {
			sp.TraceID = trace
			if sp.Parent == 0 && sp.Track == TrackReal {
				sp.Parent = parent
			}
			r.st.keepLocked(sp)
		}
		r.st.events = append(r.st.events, s.Events...)
		r.st.mu.Unlock()
		for _, ln := range s.Lanes {
			if ln.Track == TrackSim {
				r.NameLane(ln.Track, ln.Lane, ln.Name)
			}
		}
	}
	for i := range s.Hists {
		r.MergeHist(s.Hists[i].Name, &s.Hists[i])
	}
	for _, c := range s.Counters {
		r.Add(c.Name, c.Value)
	}
}
