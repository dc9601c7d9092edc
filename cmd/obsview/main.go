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
//	                                  ("-" for stdin), summary's tables
//	obsview slo stream.ndjson         report the SLO indicators a
//	                                  stream capture observed; nonzero
//	                                  exit when one has no samples
//
// Flags (before the subcommand):
//
//	-top N    rows per table (default 15)
//
// tail flags (after the subcommand): -every N re-renders the tables
// every N closed spans (0 = once, at end of stream).
//
// slo flags (after the subcommand): -bench and -report write the
// observations as go-bench lines and the human report to files. slo
// sets no bounds: `make obs-slo` bounds the go-bench lines with
// benchcheck -maxratio against the committed BENCH_slo.json.
//
// Self time is a span's duration minus the duration of its children
// (linked through the span and parent IDs the exporter writes),
// floored at zero per span, so a long phase span does not drown out
// the work inside it and an async child that outlives its parent
// costs no other span of the parent's name. summary, diff and tail
// fold spans through one table (spanTable), so they agree. Real-track
// times are wall-clock microseconds; simulated-track times are
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
	"strings"

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
		t, err := loadTrace(rest[1])
		if err != nil {
			return err
		}
		return t.render(w, "", *top)
	case "diff":
		if len(rest) != 3 {
			return fmt.Errorf("usage: obsview diff <old.json> <new.json>")
		}
		return diff(w, rest[1], rest[2], *top)
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

// spanGroup aggregates every span sharing (track, name).
type spanGroup struct {
	name        string
	count       int
	total, self float64
}

// selfLeft is a folded span's group and the self time that children
// folded after it may still claim.
type selfLeft struct {
	g    *spanGroup
	self float64
}

// spanTable is the one fold obsview reads spans through, from a trace
// file (loadTrace) or a stream (foldEvent): spans grouped by (track,
// name), plus counters and instant-event counts.
type spanTable struct {
	groups   map[[2]string]*spanGroup
	pending  map[string]float64   // parent ID -> durations of its children folded before it
	left     map[string]*selfLeft // span ID -> what its later children may claim
	counters map[string]float64
	events   map[string]int // instant-event name -> count
	spans    int
}

func newSpanTable() *spanTable {
	return &spanTable{
		groups:   map[[2]string]*spanGroup{},
		pending:  map[string]float64{},
		left:     map[string]*selfLeft{},
		counters: map[string]float64{},
		events:   map[string]int{},
	}
}

// fold adds one closed span. Its self time is its duration less its
// children's, floored at zero per span, whichever of parent and child
// is folded first: the children folded before it are subtracted now,
// and each child folded after it takes what it can of the rest. For
// any delivery order that equals subtracting every child at once. An
// empty id or parent means the span has none.
func (t *spanTable) fold(track, name, id, parent string, dur float64) {
	t.spans++
	key := [2]string{track, name}
	g := t.groups[key]
	if g == nil {
		g = &spanGroup{name: name}
		t.groups[key] = g
	}
	g.count++
	g.total += dur
	self := max(dur-t.pending[id], 0)
	g.self += self
	if id != "" {
		t.left[id] = &selfLeft{g, self}
	}
	if parent == "" {
		return
	}
	if p := t.left[parent]; p != nil {
		take := min(p.self, dur)
		p.g.self -= take
		p.self -= take
	} else {
		t.pending[parent] += dur
	}
}

// traceEvent is the subset of a Chrome trace-event entry obsview reads.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// loadTrace folds a Chrome trace file. A span's track is its process
// name ("pid N" when it has none); obs.WriteChromeTrace writes the
// process names before any span.
func loadTrace(path string) (*spanTable, error) {
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
	t := newSpanTable()
	procs := map[int]string{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				if name, ok := ev.Args["name"].(string); ok {
					procs[ev.Pid] = name
				}
			}
		case "C":
			if v, ok := ev.Args["value"].(float64); ok {
				t.counters[ev.Name] = v
			}
		case "i":
			t.events[ev.Name]++
		case "X":
			track := procs[ev.Pid]
			if track == "" {
				track = fmt.Sprintf("pid %d", ev.Pid)
			}
			id, _ := ev.Args["id"].(string)
			parent, _ := ev.Args["parent"].(string)
			t.fold(track, ev.Name, id, parent, ev.Dur)
		}
	}
	return t, nil
}

// render writes head, then one table per track (in track-name order)
// of at most top spans by self time, then the counters and the
// instant-event counts. It writes once, so a failed write is its
// error.
func (t *spanTable) render(w io.Writer, head string, top int) error {
	var b strings.Builder
	b.WriteString(head)
	tracks := map[string][]*spanGroup{}
	for key, g := range t.groups {
		tracks[key[0]] = append(tracks[key[0]], g)
	}
	for _, track := range sortedKeys(tracks) {
		gs := tracks[track]
		sort.Slice(gs, func(i, j int) bool {
			if gs[i].self != gs[j].self {
				return gs[i].self > gs[j].self
			}
			return gs[i].name < gs[j].name
		})
		tb := report.NewTable("Top spans by self time: "+track,
			"Span", "Count", "Total", "Self").RightAlign(1, 2, 3)
		for i, g := range gs {
			if i >= top {
				tb.Row(fmt.Sprintf("... %d more", len(gs)-top), "", "", "")
				break
			}
			tb.Row(g.name, g.count, report.F(g.total, 0), report.F(g.self, 0))
		}
		tb.Render(&b)
		b.WriteString("\n")
	}
	if len(t.counters) > 0 {
		tb := report.NewTable("Counters", "Counter", "Value").RightAlign(1)
		for _, name := range sortedKeys(t.counters) {
			tb.Row(name, report.F(t.counters[name], 0))
		}
		tb.Render(&b)
		b.WriteString("\n")
	}
	if len(t.events) > 0 {
		tb := report.NewTable("Events", "Event", "Count").RightAlign(1)
		for _, name := range sortedKeys(t.events) {
			tb.Row(name, t.events[name])
		}
		tb.Render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// diff writes the per-track self-time and count deltas and the
// counter deltas between two trace files.
func diff(w io.Writer, oldPath, newPath string, top int) error {
	a, err := loadTrace(oldPath)
	if err != nil {
		return err
	}
	b, err := loadTrace(newPath)
	if err != nil {
		return err
	}
	type delta struct {
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
	perTrack := map[string][]delta{}
	for k := range keys {
		ga, gb := a.groups[k], b.groups[k]
		d := delta{name: k[1]}
		if ga != nil {
			d.dCount -= ga.count
			d.dSelf -= ga.self
			d.oldS = ga.self
		}
		if gb != nil {
			d.dCount += gb.count
			d.dSelf += gb.self
			d.newS = gb.self
		}
		perTrack[k[0]] = append(perTrack[k[0]], d)
	}
	var out strings.Builder
	fmt.Fprintf(&out, "diff: %s -> %s\n\n", oldPath, newPath)
	for _, track := range sortedKeys(perTrack) {
		ds := perTrack[track]
		sort.Slice(ds, func(i, j int) bool {
			if math.Abs(ds[i].dSelf) != math.Abs(ds[j].dSelf) {
				return math.Abs(ds[i].dSelf) > math.Abs(ds[j].dSelf)
			}
			return ds[i].name < ds[j].name
		})
		t := report.NewTable("Self-time deltas: "+track,
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
		t.Render(&out)
		out.WriteString("\n")
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
	for _, n := range sortedKeys(names) {
		if a.counters[n] == b.counters[n] {
			continue
		}
		t.Row(n, report.F(a.counters[n], 0), report.F(b.counters[n], 0), signedF(b.counters[n]-a.counters[n]))
		rows++
	}
	if rows == 0 {
		t.Row("(no counter differences)", "", "", "")
	}
	t.Render(&out)
	_, err = io.WriteString(w, out.String())
	return err
}

func sortedKeys[V any](m map[string]V) []string {
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
