// Command apptrace runs one graph application on one input, validates
// the result against the sequential reference, and reports its
// execution trace: per-kernel launch statistics and the modelled
// runtime on every chip under a chosen optimisation configuration.
//
// Usage:
//
//	apptrace -app bfs-wl -input usa.ny
//	apptrace -app sssp-nf -input soc-pokec -config sg,fg8,oitergb
//	apptrace -app pr-residual -input rand-8k -json trace.json
//	apptrace -app cc-sv -graph my-graph.bin
//
// -input names one of the standard study inputs; -graph loads a binary
// file written by graphgen.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/cost"
	"gpuport/internal/graph"
	"gpuport/internal/opt"
	"gpuport/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "apptrace:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("apptrace", flag.ContinueOnError)
	appName := fs.String("app", "bfs-wl", "application name (see gpuport table 7)")
	inputName := fs.String("input", "usa.ny", "standard input name")
	graphFile := fs.String("graph", "", "binary graph file (overrides -input)")
	cfgStr := fs.String("config", "baseline", "optimisation configuration, e.g. sg,fg8,oitergb")
	jsonOut := fs.String("json", "", "write the raw trace as JSON to this file")
	topN := fs.Int("top", 5, "show the N heaviest kernel launches")
	if err := fs.Parse(args); err != nil {
		return err
	}

	app, err := apps.ByName(*appName)
	if err != nil {
		return err
	}
	var g *graph.Graph
	if *graphFile != "" {
		f, err := os.Open(*graphFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if g, err = graph.ReadBinary(f); err != nil {
			return err
		}
	} else if g, err = graph.InputByName(*inputName); err != nil {
		return err
	}
	cfg, err := opt.Parse(*cfgStr)
	if err != nil {
		return err
	}

	trace, out := app.Run(g)
	if err := app.Check(g, out); err != nil {
		return fmt.Errorf("%s produced a wrong answer on %s: %w", app.Name, g.Name, err)
	}
	var buf strings.Builder
	fmt.Fprintf(&buf, "%s on %s: answer validated against the sequential reference\n\n",
		app.Name, g.Name)

	fmt.Fprintf(&buf, "trace: %d kernel launches, %d host loops, %d total edge work\n",
		trace.TotalLaunches(), len(trace.Loops), trace.TotalEdgeWork())

	// Aggregate per kernel name.
	type agg struct {
		launches                       int
		items, work, pushes, rmws, ras int64
	}
	byKernel := map[string]*agg{}
	var order []string
	for _, l := range trace.Launches {
		a, ok := byKernel[l.Name]
		if !ok {
			a = &agg{}
			byKernel[l.Name] = a
			order = append(order, l.Name)
		}
		a.launches++
		a.items += l.Items
		a.work += l.TotalWork
		a.pushes += l.AtomicPushes
		a.rmws += l.AtomicRMWs
		a.ras += l.RandomAccesses
	}
	t := report.NewTable("per-kernel totals",
		"Kernel", "Launches", "Items", "Edge work", "Pushes", "Data RMWs", "Irregular").
		RightAlign(1, 2, 3, 4, 5, 6)
	for _, name := range order {
		a := byKernel[name]
		t.Row(name, a.launches, a.items, a.work, a.pushes, a.rmws, a.ras)
	}
	t.Render(&buf)

	// Heaviest launches.
	if *topN > 0 {
		heavy := make([]int, 0, len(trace.Launches))
		for i := range trace.Launches {
			heavy = append(heavy, i)
		}
		for i := 0; i < len(heavy); i++ {
			for j := i + 1; j < len(heavy); j++ {
				if trace.Launches[heavy[j]].TotalWork > trace.Launches[heavy[i]].TotalWork {
					heavy[i], heavy[j] = heavy[j], heavy[i]
				}
			}
			if i >= *topN {
				break
			}
		}
		n := *topN
		if n > len(heavy) {
			n = len(heavy)
		}
		ht := report.NewTable(fmt.Sprintf("top %d launches by edge work", n),
			"#", "Kernel", "Items", "Edge work", "Max item", "Pushes").
			RightAlign(0, 2, 3, 4, 5)
		for i := 0; i < n; i++ {
			l := trace.Launches[heavy[i]]
			ht.Row(heavy[i], l.Name, l.Items, l.TotalWork, l.MaxWork, l.AtomicPushes)
		}
		ht.Render(&buf)
	}

	// Modelled runtimes across chips.
	tp := cost.NewTraceProfile(trace)
	ct := report.NewTable(fmt.Sprintf("modelled runtime under [%s] (model ms)", cfg),
		"Chip", "baseline", "configured", "speedup").
		RightAlign(1, 2, 3)
	for _, ch := range chip.All() {
		base := cost.Estimate(ch, opt.Config{}, tp)
		tuned := cost.Estimate(ch, cfg, tp)
		ct.Row(ch.Name, report.F(base/1e6, 3), report.F(tuned/1e6, 3), report.F(base/tuned, 2)+"x")
	}
	ct.Render(&buf)

	if _, err := io.WriteString(w, buf.String()); err != nil {
		return err
	}
	if *jsonOut == "" {
		return nil
	}
	f, err := os.Create(*jsonOut)
	if err != nil {
		return err
	}
	err = trace.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "raw trace written to %s\n", *jsonOut)
	return err
}
