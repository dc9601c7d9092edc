// Command obsview summarises and compares the telemetry gpuport and
// gpuportd export. It answers the questions a trace viewer is too
// heavyweight for in a terminal workflow: "where did this run spend
// its time", "what changed between these two runs", "what is the
// daemon doing right now", and "what latencies did this run observe".
//
// Usage:
//
//	obsview summary trace.json        top spans by self time, per track,
//	                                  plus the run's counters
//	obsview diff old.json new.json    per-span self-time and count
//	                                  deltas, plus counter deltas
//	obsview tail stream.ndjson        follow a /debug/obs-stream capture
//	                                  ("-" for stdin), rolling top table
//	obsview slo stream.ndjson         report the SLO indicators a
//	                                  stream capture observed; nonzero
//	                                  exit when one has no samples
//
// Flags (before the subcommand):
//
//	-top N    rows per table (default 15)
//
// tail flags (after the subcommand): -every N re-renders the table
// every N closed spans (0 = once, at end of stream).
//
// slo flags (after the subcommand): -bench and -report write the
// observations as go-bench lines and the human report to files. slo
// sets no bounds: `make obs-slo` bounds the go-bench lines with
// benchcheck -maxratio against the committed BENCH_slo.json.
//
// Self time is a span's duration minus the duration of its children
// (linked through the id/parent span attributes the exporter writes),
// so a long phase span does not drown out the work inside it. Real-
// track times are wall-clock microseconds; simulated-track times are
// virtual units derived from the traces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"gpuport/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "obsview:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("obsview", flag.ContinueOnError)
	top := fs.Int("top", 15, "rows per table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: obsview [-top N] summary <trace.json> | diff <old.json> <new.json> | tail <stream.ndjson> | slo <stream.ndjson>")
	}
	switch rest[0] {
	case "summary":
		if len(rest) != 2 {
			return fmt.Errorf("usage: obsview summary <trace.json>")
		}
		td, err := loadTrace(rest[1])
		if err != nil {
			return err
		}
		return td.summary(w, *top)
	case "diff":
		if len(rest) != 3 {
			return fmt.Errorf("usage: obsview diff <old.json> <new.json>")
		}
		a, err := loadTrace(rest[1])
		if err != nil {
			return err
		}
		b, err := loadTrace(rest[2])
		if err != nil {
			return err
		}
		return diff(w, a, b, *top)
	case "tail":
		tfs := flag.NewFlagSet("obsview tail", flag.ContinueOnError)
		every := tfs.Int("every", 0, "re-render every N closed spans (0 = only at end of stream)")
		if err := tfs.Parse(rest[1:]); err != nil {
			return err
		}
		if tfs.NArg() != 1 {
			return fmt.Errorf("usage: obsview tail [-every N] <stream.ndjson | ->")
		}
		return tail(w, tfs.Arg(0), *top, *every)
	case "slo":
		sfs := flag.NewFlagSet("obsview slo", flag.ContinueOnError)
		benchPath := sfs.String("bench", "", "write observations as go-bench lines to this file")
		reportPath := sfs.String("report", "", "write the report to this file too")
		if err := sfs.Parse(rest[1:]); err != nil {
			return err
		}
		if sfs.NArg() != 1 {
			return fmt.Errorf("usage: obsview slo [-bench f] [-report f] <stream.ndjson | ->")
		}
		return slo(w, sfs.Arg(0), *benchPath, *reportPath)
	default:
		return fmt.Errorf("unknown command %q (summary, diff, tail or slo)", rest[0])
	}
}

// traceEvent is the subset of a Chrome trace-event entry obsview reads.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// spanGroup aggregates every span sharing (pid, name).
type spanGroup struct {
	pid         int
	name        string
	count       int
	total, self float64
}

// traceData is one loaded trace file, aggregated.
type traceData struct {
	path     string
	procs    map[int]string // pid -> process_name metadata
	groups   map[[2]string]*spanGroup
	counters map[string]float64
	events   map[string]int // instant-event name -> count
}

func loadTrace(path string) (*traceData, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: not a Chrome trace: %w", path, err)
	}
	td := &traceData{
		path:     path,
		procs:    map[int]string{},
		groups:   map[[2]string]*spanGroup{},
		counters: map[string]float64{},
		events:   map[string]int{},
	}
	// First pass: per-parent child durations, for self time.
	childDur := map[string]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if parent, ok := ev.Args["parent"].(string); ok {
			childDur[parent] += ev.Dur
		}
	}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				if name, ok := ev.Args["name"].(string); ok {
					td.procs[ev.Pid] = name
				}
			}
		case "C":
			if v, ok := ev.Args["value"].(float64); ok {
				td.counters[ev.Name] = v
			}
		case "i":
			td.events[ev.Name]++
		case "X":
			key := [2]string{fmt.Sprint(ev.Pid), ev.Name}
			g := td.groups[key]
			if g == nil {
				g = &spanGroup{pid: ev.Pid, name: ev.Name}
				td.groups[key] = g
			}
			g.count++
			g.total += ev.Dur
			self := ev.Dur
			if id, ok := ev.Args["id"].(string); ok {
				self -= childDur[id]
			}
			if self < 0 {
				self = 0 // overlapping children (nested loops) can exceed the parent
			}
			g.self += self
		}
	}
	return td, nil
}

// track returns the display name of a pid's track.
func (td *traceData) track(pid int) string {
	if name := td.procs[pid]; name != "" {
		return name
	}
	return fmt.Sprintf("pid %d", pid)
}

// byTrack returns the trace's span groups per pid, each sorted by self
// time descending.
func (td *traceData) byTrack() map[int][]*spanGroup {
	out := map[int][]*spanGroup{}
	for _, g := range td.groups {
		out[g.pid] = append(out[g.pid], g)
	}
	for _, gs := range out {
		sort.Slice(gs, func(i, j int) bool {
			if gs[i].self != gs[j].self {
				return gs[i].self > gs[j].self
			}
			return gs[i].name < gs[j].name
		})
	}
	return out
}

func sortedPids(m map[int][]*spanGroup) []int {
	pids := make([]int, 0, len(m))
	for pid := range m {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	return pids
}

func (td *traceData) summary(w io.Writer, top int) error {
	tracks := td.byTrack()
	for _, pid := range sortedPids(tracks) {
		t := report.NewTable(fmt.Sprintf("Top spans by self time: %s", td.track(pid)),
			"Span", "Count", "Total", "Self").RightAlign(1, 2, 3)
		for i, g := range tracks[pid] {
			if i >= top {
				t.Row(fmt.Sprintf("... %d more", len(tracks[pid])-top), "", "", "")
				break
			}
			t.Row(g.name, g.count, report.F(g.total, 0), report.F(g.self, 0))
		}
		t.Render(w)
		fmt.Fprintln(w)
	}
	if len(td.counters) > 0 {
		t := report.NewTable("Counters", "Counter", "Value").RightAlign(1)
		for _, name := range sortedKeys(td.counters) {
			t.Row(name, report.F(td.counters[name], 0))
		}
		t.Render(w)
		fmt.Fprintln(w)
	}
	if len(td.events) > 0 {
		t := report.NewTable("Events", "Event", "Count").RightAlign(1)
		names := make([]string, 0, len(td.events))
		for name := range td.events {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t.Row(name, td.events[name])
		}
		t.Render(w)
	}
	return nil
}

func diff(w io.Writer, a, b *traceData, top int) error {
	fmt.Fprintf(w, "diff: %s -> %s\n\n", a.path, b.path)
	type delta struct {
		pid        int
		name       string
		dCount     int
		dSelf      float64
		oldS, newS float64
	}
	keys := map[[2]string]bool{}
	for k := range a.groups {
		keys[k] = true
	}
	for k := range b.groups {
		keys[k] = true
	}
	perPid := map[int][]delta{}
	for k := range keys {
		ga, gb := a.groups[k], b.groups[k]
		d := delta{}
		if ga != nil {
			d.pid, d.name = ga.pid, ga.name
			d.dCount -= ga.count
			d.dSelf -= ga.self
			d.oldS = ga.self
		}
		if gb != nil {
			d.pid, d.name = gb.pid, gb.name
			d.dCount += gb.count
			d.dSelf += gb.self
			d.newS = gb.self
		}
		perPid[d.pid] = append(perPid[d.pid], d)
	}
	pids := make([]int, 0, len(perPid))
	for pid := range perPid {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		ds := perPid[pid]
		sort.Slice(ds, func(i, j int) bool {
			if math.Abs(ds[i].dSelf) != math.Abs(ds[j].dSelf) {
				return math.Abs(ds[i].dSelf) > math.Abs(ds[j].dSelf)
			}
			return ds[i].name < ds[j].name
		})
		t := report.NewTable(fmt.Sprintf("Self-time deltas: %s", b.track(pid)),
			"Span", "Count Δ", "Self (old)", "Self (new)", "Self Δ").RightAlign(1, 2, 3, 4)
		rows := 0
		for _, d := range ds {
			if d.dCount == 0 && d.dSelf == 0 {
				continue
			}
			if rows >= top {
				t.Row("...", "", "", "", "")
				break
			}
			t.Row(d.name, signed(d.dCount), report.F(d.oldS, 0), report.F(d.newS, 0), signedF(d.dSelf))
			rows++
		}
		if rows == 0 {
			t.Row("(no span differences)", "", "", "", "")
		}
		t.Render(w)
		fmt.Fprintln(w)
	}

	names := map[string]bool{}
	for n := range a.counters {
		names[n] = true
	}
	for n := range b.counters {
		names[n] = true
	}
	t := report.NewTable("Counter deltas", "Counter", "Old", "New", "Δ").RightAlign(1, 2, 3)
	rows := 0
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		if a.counters[n] == b.counters[n] {
			continue
		}
		t.Row(n, report.F(a.counters[n], 0), report.F(b.counters[n], 0), signedF(b.counters[n]-a.counters[n]))
		rows++
	}
	if rows == 0 {
		t.Row("(no counter differences)", "", "", "")
	}
	t.Render(w)
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func signed(n int) string {
	if n > 0 {
		return fmt.Sprintf("+%d", n)
	}
	return fmt.Sprint(n)
}

func signedF(v float64) string {
	if v > 0 {
		return "+" + report.F(v, 0)
	}
	return report.F(v, 0)
}
