package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus-style text exposition of a snapshot. Every family is
// emitted in sorted label order and histograms use the fixed HistBounds
// ladder, so the exposition of a deterministic run is byte-stable. The
// single wall-clock family, gpuport_stage_seconds, is the one thing
// that varies run to run; CanonicalMetrics strips it.

// stageSecondsFamily is the wall-clock gauge family name; it is the
// marker CanonicalMetrics keys on.
const stageSecondsFamily = "gpuport_stage_seconds"

// RealtimePrefix marks metric families whose values derive from wall
// clock or live server state (WriteRealtime's block: request
// latencies, queue and runner gauges). Everything under the prefix is
// stripped by CanonicalMetrics, the same contract gpuport_stage_seconds
// has.
const RealtimePrefix = "gpuport_rt_"

// WriteMetrics writes the snapshot as Prometheus text exposition.
func WriteMetrics(w io.Writer, s *Snapshot) error {
	if s == nil {
		s = &Snapshot{}
	}
	bw := bufio.NewWriter(w)

	if len(s.Counters) > 0 {
		fmt.Fprintf(bw, "# TYPE gpuport_counter_total counter\n")
		for _, c := range s.Counters {
			fmt.Fprintf(bw, "gpuport_counter_total{name=%q} %d\n", c.Name, c.Value)
		}
	}

	writeHists(bw, "gpuport_hist", s.Hists)

	// Span population per (track, name): deterministic (identities and
	// counts are scheduling-independent), unlike span durations, which
	// are deliberately not exported here.
	if len(s.Spans) > 0 {
		type key struct {
			track Track
			name  string
		}
		counts := map[key]int64{}
		for _, sp := range s.Spans {
			counts[key{sp.Track, sp.Name}]++
		}
		keys := make([]key, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].track != keys[j].track {
				return keys[i].track < keys[j].track
			}
			return keys[i].name < keys[j].name
		})
		fmt.Fprintf(bw, "# TYPE gpuport_span_total counter\n")
		for _, k := range keys {
			fmt.Fprintf(bw, "gpuport_span_total{track=%q,name=%q} %d\n", k.track.String(), k.name, counts[k])
		}
	}

	if len(s.Events) > 0 {
		counts := map[string]int64{}
		for _, ev := range s.Events {
			counts[ev.Name]++
		}
		names := make([]string, 0, len(counts))
		for n := range counts {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(bw, "# TYPE gpuport_event_total counter\n")
		for _, n := range names {
			fmt.Fprintf(bw, "gpuport_event_total{name=%q} %d\n", n, counts[n])
		}
	}

	if s.Summary != nil && len(s.Summary.Stages) > 0 {
		stages := append([]Stage(nil), s.Summary.Stages...)
		sort.Slice(stages, func(i, j int) bool { return stages[i].Name < stages[j].Name })
		fmt.Fprintf(bw, "# TYPE gpuport_stage_sections_total counter\n")
		for _, st := range stages {
			fmt.Fprintf(bw, "gpuport_stage_sections_total{stage=%q} %d\n", st.Name, st.Calls)
		}
		fmt.Fprintf(bw, "# TYPE %s gauge\n", stageSecondsFamily)
		for _, st := range stages {
			fmt.Fprintf(bw, "%s{stage=%q} %.9f\n", stageSecondsFamily, st.Name, st.Duration.Seconds())
		}
	}
	return bw.Flush()
}

// writeHists writes one histogram family: each histogram's cumulative
// buckets over the fixed HistBounds ladder, then +Inf, sum and count.
func writeHists(bw *bufio.Writer, family string, hists []Hist) {
	if len(hists) == 0 {
		return
	}
	fmt.Fprintf(bw, "# TYPE %s histogram\n", family)
	for _, h := range hists {
		var cum int64
		for i, b := range HistBounds {
			cum += h.Buckets[i]
			fmt.Fprintf(bw, "%s_bucket{name=%q,le=%q} %d\n", family, h.Name, strconv.FormatInt(b, 10), cum)
		}
		fmt.Fprintf(bw, "%s_bucket{name=%q,le=\"+Inf\"} %d\n", family, h.Name, h.Count)
		fmt.Fprintf(bw, "%s_sum{name=%q} %d\n", family, h.Name, h.Sum)
		fmt.Fprintf(bw, "%s_count{name=%q} %d\n", family, h.Name, h.Count)
	}
}

// WriteRealtime writes live gauges and histograms as Prometheus text
// exposition under RealtimePrefix: gpuport_rt_gauge and gpuport_rt_hist,
// each sorted by name. CanonicalMetrics strips the whole block, since
// its values vary run to run, but the layout is canonical: the same
// input always writes the same bytes.
func WriteRealtime(w io.Writer, gauges []Counter, hists []Hist) error {
	gauges = append([]Counter(nil), gauges...)
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].Name < gauges[j].Name })
	hists = append([]Hist(nil), hists...)
	sort.Slice(hists, func(i, j int) bool { return hists[i].Name < hists[j].Name })

	bw := bufio.NewWriter(w)
	if len(gauges) > 0 {
		fmt.Fprintf(bw, "# TYPE %sgauge gauge\n", RealtimePrefix)
		for _, g := range gauges {
			fmt.Fprintf(bw, "%sgauge{name=%q} %d\n", RealtimePrefix, g.Name, g.Value)
		}
	}
	writeHists(bw, RealtimePrefix+"hist", hists)
	return bw.Flush()
}

// CanonicalMetrics strips the wall-clock lines (the stage-seconds
// gauge family, every RealtimePrefix family, and their TYPE headers)
// from an exposition, leaving the deterministic remainder for byte
// comparison.
func CanonicalMetrics(raw []byte) []byte {
	var out bytes.Buffer
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if strings.HasPrefix(line, stageSecondsFamily) ||
			strings.HasPrefix(line, "# TYPE "+stageSecondsFamily) ||
			strings.HasPrefix(line, RealtimePrefix) ||
			strings.HasPrefix(line, "# TYPE "+RealtimePrefix) {
			continue
		}
		out.WriteString(line)
	}
	return out.Bytes()
}
