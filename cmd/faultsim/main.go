// Command faultsim stress-tests the measurement harness: it runs a
// reduced sweep under an injected fault profile (internal/fault) and
// reports what the self-healing machinery absorbed - retries, sample
// quarantines, backoff time - and what was lost, with per-tuple
// coverage for everything missing. With -compare it additionally runs
// the same sweep fault-free and quantifies how far the degraded
// analysis drifts from the clean one, judged against the documented
// tolerance floors in internal/analysis.
//
// Usage:
//
//	faultsim                         light faults on the default sweep
//	faultsim -faults heavy           whole-chip dropout and high rates
//	faultsim -faults transient=0.2,retries=1 -compare
//	faultsim -resume ck              checkpoint/resume the campaign
//
// Flags:
//
//	-faults spec  fault profile: light (default), heavy, none, or
//	              key=value pairs (transient=, hang=, corrupt=,
//	              dropout=, seed=, retries=, backoff=, cap=, timeout=)
//	-seed N       measurement noise seed (default 42)
//	-runs N       timed runs per cell (default 3)
//	-chips N      sweep the first N chips (default 3)
//	-apps N       sweep the first N applications (default 4)
//	-nodes N      size of the generated input graphs (default 600)
//	-workers N    collection workers (default GOMAXPROCS)
//	-resume file  checkpoint file for interrupt/resume; one written by
//	              another campaign is refused
//	-compare      also run fault-free and report analysis drift
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"gpuport/internal/analysis"
	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/fault"
	"gpuport/internal/graph"
	"gpuport/internal/measure"
	"gpuport/internal/report"
	"gpuport/internal/study"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "faultsim: interrupted; completed shards are saved when -resume is set")
		} else {
			fmt.Fprintln(os.Stderr, "faultsim:", err)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("faultsim", flag.ContinueOnError)
	spec := fs.String("faults", "light", "fault profile: none, light, heavy, or key=value pairs")
	seed := fs.Uint64("seed", 42, "measurement noise seed")
	runs := fs.Int("runs", 3, "timed runs per cell")
	nchips := fs.Int("chips", 3, "sweep the first N chips")
	napps := fs.Int("apps", 4, "sweep the first N applications")
	nodes := fs.Int("nodes", 600, "generated input graph size")
	workers := fs.Int("workers", 0, "collection workers (default GOMAXPROCS)")
	resume := fs.String("resume", "", "checkpoint file for interrupt/resume")
	compare := fs.Bool("compare", false, "also run fault-free and report analysis drift")
	if err := fs.Parse(args); err != nil {
		return err
	}
	profile, err := fault.Parse(*spec)
	if err != nil {
		return err
	}
	allChips, allApps := chip.All(), apps.All()
	if *nchips < 1 || *nchips > len(allChips) {
		return fmt.Errorf("-chips wants 1..%d", len(allChips))
	}
	if *napps < 1 || *napps > len(allApps) {
		return fmt.Errorf("-apps wants 1..%d", len(allApps))
	}
	if *nodes < 10 {
		return fmt.Errorf("-nodes wants at least 10")
	}

	opts := measure.Options{
		Seed:    *seed,
		Runs:    *runs,
		Chips:   allChips[:*nchips],
		Apps:    allApps[:*napps],
		Ctx:     ctx,
		Workers: *workers,
		Inputs: []*graph.Graph{
			graph.GenerateUniform("fs-uni", *nodes, 5, 11),
			graph.GenerateRoad("fs-road", isqrt(*nodes), 2),
		},
	}
	faulted := opts
	faulted.Faults = profile
	faulted.Checkpoint = *resume

	d, rep, err := measure.CollectReport(faulted)
	if err != nil {
		return err
	}
	for _, err := range []error{
		report.TuplesSummary(w, d),
		report.Coverage(w, rep),
		report.FaultSummary(w, rep),
		report.PartialTuples(w, d),
	} {
		if err != nil {
			return err
		}
	}

	if !*compare {
		return nil
	}
	if profile == nil {
		fmt.Fprintln(w, "nothing to compare: no faults injected")
		return nil
	}
	clean, err := measure.Collect(opts)
	if err != nil {
		return err
	}
	drift := study.Compare(study.FromDataset(clean), study.FromDataset(d))

	t := report.NewTable("Analysis drift under faults (clean sweep as reference)",
		"Metric", "Value", "Floor", "Verdict").RightAlign(1, 2)
	verdict := func(v, floor float64) string {
		if v >= floor {
			return "ok"
		}
		return "DEGRADED"
	}
	t.Row("per-chip decision agreement", report.F(drift.ChipAgreement*100, 1)+"%",
		report.F(analysis.FaultAgreementFloor*100, 0)+"%",
		verdict(drift.ChipAgreement, analysis.FaultAgreementFloor))
	t.Row("decisions left undecided", report.F(drift.ChipUndecided*100, 1)+"%", "-", "-")
	t.Row("Table III rank correlation (tau)", report.F(drift.RankTau, 3),
		report.F(analysis.FaultRankTauFloor, 2),
		verdict(drift.RankTau, analysis.FaultRankTauFloor))
	return t.Render(w)
}

// isqrt returns the integer square root, used to size the road grid so
// it has roughly -nodes nodes.
func isqrt(n int) int {
	r := 1
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}
