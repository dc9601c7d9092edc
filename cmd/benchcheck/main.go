// Command benchcheck parses `go test -bench` text output, records the
// results as JSON, and enforces relative performance gates between
// named benchmarks. It is the one bound syntax behind every `make
// bench-*` target and `make obs-slo`: absolute nanoseconds vary across
// machines, but the *ratios* the design guarantees (parallel tracing
// beats serial, a warm cache beats cold tracing, the zero-rate fault
// layer costs nothing) must hold everywhere they can be observed.
//
// Usage:
//
//	benchcheck [-in bench.out] [-json out.json] \
//	    [-speedup slow,fast,minfactor[,mincpus]]... \
//	    [-maxratio base,probe,maxfactor]...
//
// -speedup asserts ns/op(slow) / ns/op(fast) >= minfactor. The
// optional mincpus guard skips the assertion (with a note) when the
// recording machine ran with fewer CPUs: a 4-worker pool cannot beat
// serial on a single core, so the gate only binds where parallelism
// is physically possible. The CPU count is taken from the -N
// GOMAXPROCS suffix Go appends to benchmark names.
//
// -maxratio asserts ns/op(probe) / ns/op(base) <= maxfactor; it gates
// overhead claims such as "zero-rate fault injection is free". The base
// need not be a sibling benchmark: `make obs-slo` feeds a committed
// record's results in under other names, so "observed <= k x recorded"
// is a -maxratio too.
//
// When the input carries repeats of the same benchmark (go test
// -count=N), assertions bind on the minimum ns/op per name,
// benchstat-style: the minimum is the run least disturbed by the
// machine, so gates compare steady-state figures instead of whichever
// repeat a scheduler hiccup landed on. The JSON record keeps every
// repeat verbatim.
//
// -md appends a markdown results table (benchmark, ns/op, gate,
// verdict) to the named file; pointing it at $GITHUB_STEP_SUMMARY
// surfaces the table on the workflow run page. Skipped gates are
// always listed explicitly - on the SKIP line (with the observed CPU
// count), in the JSON record, and in an end-of-run summary - so a
// guard that never binds anywhere is visible, not silent.
//
// Exit status is non-zero if any binding assertion fails or a named
// benchmark is missing from the input.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// record is the BENCH_*.json document: the parsed results plus the
// assertions that were checked against them, so a stored artifact is
// self-describing.
type record struct {
	Results    []result `json:"results"`
	Assertions []assert `json:"assertions,omitempty"`
}

type assert struct {
	Kind     string  `json:"kind"` // "speedup" or "maxratio"
	Base     string  `json:"base"`
	Probe    string  `json:"probe"`
	Bound    float64 `json:"bound"`
	MinCPUs  int     `json:"min_cpus,omitempty"`
	SeenCPUs int     `json:"seen_cpus,omitempty"` // CPUs the record ran with (CPU-guarded gates)
	Factor   float64 `json:"factor"`              // observed ratio, 0 when skipped
	Status   string  `json:"status"`              // "pass", "fail", "skipped"
}

// multiFlag collects repeatable string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ";") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	inPath := fs.String("in", "", "bench output file (default stdin)")
	jsonPath := fs.String("json", "", "write parsed results as JSON to this file")
	mdPath := fs.String("md", "", "append a markdown results table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	var speedups, maxratios multiFlag
	fs.Var(&speedups, "speedup", "slow,fast,minfactor[,mincpus] assertion (repeatable)")
	fs.Var(&maxratios, "maxratio", "base,probe,maxfactor assertion (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	in := stdin
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	results, err := parse(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results in input")
	}

	rec := record{Results: results}
	folded := fold(results)
	failed := 0
	for _, spec := range speedups {
		a, err := checkSpeedup(folded, spec)
		if err != nil {
			return err
		}
		rec.Assertions = append(rec.Assertions, a)
		failed += report(stdout, a)
	}
	for _, spec := range maxratios {
		a, err := checkMaxRatio(folded, spec)
		if err != nil {
			return err
		}
		rec.Assertions = append(rec.Assertions, a)
		failed += report(stdout, a)
	}
	reportSkips(stdout, rec.Assertions)

	if *mdPath != "" {
		if err := appendMarkdown(*mdPath, folded, rec.Assertions); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "benchcheck: %d results -> %s\n", len(results), *jsonPath)
	}
	if failed > 0 {
		return fmt.Errorf("%d assertion(s) failed", failed)
	}
	return nil
}

// parse reads `go test -bench` text output. A benchmark line is
//
//	BenchmarkName[-procs] <iters> <value> <unit> [<value> <unit>]...
//
// Non-benchmark lines (goos/pkg headers, PASS, ok) are ignored.
func parse(r io.Reader) ([]result, error) {
	var out []result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkX ... FAIL" chatter
		}
		res := result{Name: f[0], Procs: 1, Iterations: iters, Metrics: map[string]float64{}}
		// Go appends "-N" (GOMAXPROCS) to the name when N != 1.
		if i := strings.LastIndexByte(res.Name, '-'); i > 0 {
			if n, err := strconv.Atoi(res.Name[i+1:]); err == nil && n > 0 {
				res.Name, res.Procs = res.Name[:i], n
			}
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", f[i], sc.Text())
			}
			if f[i+1] == "ns/op" {
				res.NsPerOp = v
			} else {
				res.Metrics[f[i+1]] = v
			}
		}
		if res.NsPerOp == 0 {
			return nil, fmt.Errorf("benchmark %s has no ns/op", res.Name)
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// fold collapses -count repeats to one result per name holding the
// minimum ns/op, in first-seen order. Assertions and the markdown
// table bind on folded figures; the JSON record keeps the repeats.
func fold(results []result) []result {
	idx := map[string]int{}
	var out []result
	for _, r := range results {
		if i, ok := idx[r.Name]; ok {
			if r.NsPerOp < out[i].NsPerOp {
				out[i] = r
			}
			continue
		}
		idx[r.Name] = len(out)
		out = append(out, r)
	}
	return out
}

func find(results []result, name string) (result, error) {
	for _, r := range results {
		if r.Name == name {
			return r, nil
		}
	}
	var have []string
	for _, r := range results {
		have = append(have, r.Name)
	}
	sort.Strings(have)
	return result{}, fmt.Errorf("benchmark %q not in input (have: %s)", name, strings.Join(have, ", "))
}

// checkSpeedup parses "slow,fast,minfactor[,mincpus]" and evaluates it.
func checkSpeedup(results []result, spec string) (assert, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 3 && len(parts) != 4 {
		return assert{}, fmt.Errorf("bad -speedup spec %q (want slow,fast,minfactor[,mincpus])", spec)
	}
	bound, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || bound <= 0 {
		return assert{}, fmt.Errorf("bad -speedup factor in %q", spec)
	}
	minCPUs := 0
	if len(parts) == 4 {
		if minCPUs, err = strconv.Atoi(parts[3]); err != nil || minCPUs < 1 {
			return assert{}, fmt.Errorf("bad -speedup mincpus in %q", spec)
		}
	}
	slow, err := find(results, parts[0])
	if err != nil {
		return assert{}, err
	}
	fast, err := find(results, parts[1])
	if err != nil {
		return assert{}, err
	}
	a := assert{Kind: "speedup", Base: slow.Name, Probe: fast.Name, Bound: bound, MinCPUs: minCPUs}
	if minCPUs > 0 {
		a.SeenCPUs = fast.Procs
	}
	if minCPUs > 0 && fast.Procs < minCPUs {
		a.Status = "skipped"
		return a, nil
	}
	a.Factor = slow.NsPerOp / fast.NsPerOp
	a.Status = "fail"
	if a.Factor >= bound {
		a.Status = "pass"
	}
	return a, nil
}

// checkMaxRatio parses "base,probe,maxfactor" and evaluates it.
func checkMaxRatio(results []result, spec string) (assert, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 3 {
		return assert{}, fmt.Errorf("bad -maxratio spec %q (want base,probe,maxfactor)", spec)
	}
	bound, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || bound <= 0 {
		return assert{}, fmt.Errorf("bad -maxratio factor in %q", spec)
	}
	base, err := find(results, parts[0])
	if err != nil {
		return assert{}, err
	}
	probe, err := find(results, parts[1])
	if err != nil {
		return assert{}, err
	}
	a := assert{Kind: "maxratio", Base: base.Name, Probe: probe.Name, Bound: bound}
	a.Factor = probe.NsPerOp / base.NsPerOp
	a.Status = "fail"
	if a.Factor <= bound {
		a.Status = "pass"
	}
	return a, nil
}

func report(w io.Writer, a assert) int {
	switch {
	case a.Status == "skipped":
		fmt.Fprintf(w, "SKIP %s %s vs %s: needs >= %d CPUs, record ran with %d\n",
			a.Kind, a.Probe, a.Base, a.MinCPUs, a.SeenCPUs)
	case a.Kind == "speedup":
		fmt.Fprintf(w, "%s speedup %s vs %s: %.2fx (want >= %.2fx)\n",
			strings.ToUpper(a.Status), a.Probe, a.Base, a.Factor, a.Bound)
	default:
		fmt.Fprintf(w, "%s ratio %s vs %s: %.3fx (want <= %.2fx)\n",
			strings.ToUpper(a.Status), a.Probe, a.Base, a.Factor, a.Bound)
	}
	if a.Status == "fail" {
		return 1
	}
	return 0
}

// reportSkips restates every skipped gate at the end of the run. The
// per-assertion SKIP line can scroll away in CI logs; an unconditional
// closing summary makes "this machine never exercised gate X" a fact
// the reader must step over, not hunt for.
func reportSkips(w io.Writer, asserts []assert) {
	var skipped []assert
	for _, a := range asserts {
		if a.Status == "skipped" {
			skipped = append(skipped, a)
		}
	}
	if len(skipped) == 0 {
		return
	}
	fmt.Fprintf(w, "benchcheck: %d gate(s) not exercised on this machine:\n", len(skipped))
	for _, a := range skipped {
		fmt.Fprintf(w, "  - %s %s vs %s (needs >= %d CPUs, record ran with %d)\n",
			a.Kind, a.Probe, a.Base, a.MinCPUs, a.SeenCPUs)
	}
}

// gateCell renders an assertion as the gate a probe benchmark sits
// behind, for the markdown table.
func gateCell(a assert) string {
	switch a.Kind {
	case "speedup":
		if a.Status == "skipped" {
			return fmt.Sprintf("speedup vs %s >= %.2fx (needs >= %d CPUs, ran with %d)",
				a.Base, a.Bound, a.MinCPUs, a.SeenCPUs)
		}
		return fmt.Sprintf("speedup vs %s: %.2fx (want >= %.2fx)", a.Base, a.Factor, a.Bound)
	default:
		return fmt.Sprintf("ratio vs %s: %.3fx (want <= %.2fx)", a.Base, a.Factor, a.Bound)
	}
}

// appendMarkdown appends a results table - benchmark, ns/op, gate,
// verdict - to path. Appending (not truncating) lets several
// benchcheck invocations share one $GITHUB_STEP_SUMMARY.
func appendMarkdown(path string, results []result, asserts []assert) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("| benchmark | ns/op | gate | verdict |\n|---|---:|---|---|\n")
	for _, r := range results {
		gates, verdict := "-", "recorded"
		for _, a := range asserts {
			if a.Probe != r.Name {
				continue
			}
			if gates == "-" {
				gates, verdict = gateCell(a), strings.ToUpper(a.Status)
			} else {
				gates += "; " + gateCell(a)
			}
			if a.Status == "fail" || (a.Status == "skipped" && verdict != "FAIL") {
				verdict = strings.ToUpper(a.Status)
			}
		}
		fmt.Fprintf(&b, "| %s | %.0f | %s | %s |\n", r.Name, r.NsPerOp, gates, verdict)
	}
	b.WriteString("\n")
	if _, err := f.WriteString(b.String()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
