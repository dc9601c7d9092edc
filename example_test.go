package gpuport_test

import (
	"bytes"
	"fmt"
	"log"
	"strings"

	"gpuport"
	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/cost"
	"gpuport/internal/graph"
	"gpuport/internal/measure"
	"gpuport/internal/opt"
)

// Collect a small study and derive a portable optimisation strategy
// for it.
//
// The sweep is restricted to two chips, three applications and one
// input so it finishes in well under a second; the paper's rank-based
// analysis (Algorithm 1) then runs on the collected data and prints the
// flag decisions with their statistics.
func Example_quickstart() {
	// 1. Pick a slice of the study space.
	chips := gpuport.Chips()[:2] // M4000 and GTX1080
	var selected []gpuport.App
	for _, name := range []string{"bfs-wl", "sssp-nf", "pr-residual"} {
		app, err := apps.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		selected = append(selected, app)
	}
	input := graph.GenerateRoad("mini-road", 60, 7)

	// 2. Collect the dataset: every (chip, app, input, configuration)
	// cell is timed three times by the performance model.
	s, err := gpuport.NewStudy(gpuport.Options{
		Seed:   1,
		Runs:   3,
		Chips:  chips,
		Apps:   selected,
		Inputs: []*gpuport.Graph{input},
		// Validate every application against its reference while
		// tracing - the harness refuses to time wrong answers.
		Validate: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d records over %d tests\n\n",
		s.Dataset().Len(), len(s.Dataset().Tuples()))

	// 3. Derive the fully-portable strategy and inspect the decisions.
	global := s.Global()
	fmt.Println("portable (global) recommendation:", global.Strategy.Config(gpuport.Tuple{}))
	for _, dec := range global.Partitions[0].Decisions {
		verdict := "off"
		if dec.Enabled {
			verdict = "ON"
		}
		if !dec.Confident {
			verdict = "undecided"
		}
		fmt.Printf("  %-8s %-9s  p=%.3f  effect-size=%.2f  median-ratio=%.3f  (%d significant pairs)\n",
			dec.Flag, verdict, dec.P, dec.CL, dec.MedianRatio, dec.Comparisons)
	}

	// 4. Compare against per-chip specialisation.
	fmt.Println("\nper-chip recommendations:")
	for _, p := range s.PerChip().Partitions {
		fmt.Printf("  %-8s -> %s\n", p.Key.Chip, p.Config)
	}

	// 5. How much performance does portability cost here?
	evals, excluded := s.Evaluations()
	fmt.Printf("\nstrategy scores (%d non-improvable tests excluded):\n", excluded)
	for _, e := range evals {
		switch e.Name {
		case "baseline", "global", "chip", "oracle":
			fmt.Printf("  %-8s  %.2fx vs baseline, %.2fx behind oracle, %d/%d tests sped up\n",
				e.Name, e.GeoMeanVsBaseline, e.GeoMeanSlowdownVsOracle, e.Speedups, e.Tests())
		}
	}
	// Output:
	// collected 576 records over 6 tests
	//
	// portable (global) recommendation: fg8,oitergb
	//   coop-cv  off        p=0.000  effect-size=0.00  median-ratio=1.086  (9 significant pairs)
	//   sg       undecided  p=0.795  effect-size=0.49  median-ratio=1.064  (100 significant pairs)
	//   wg       off        p=0.000  effect-size=0.00  median-ratio=4.951  (50 significant pairs)
	//   fg       ON         p=0.000  effect-size=0.85  median-ratio=0.579  (169 significant pairs)
	//   fg8      ON         p=0.000  effect-size=1.00  median-ratio=0.451  (144 significant pairs)
	//   oitergb  ON         p=0.000  effect-size=0.96  median-ratio=0.801  (135 significant pairs)
	//   sz256    off        p=0.000  effect-size=0.00  median-ratio=1.407  (200 significant pairs)
	//
	// per-chip recommendations:
	//   GTX1080  -> fg8,oitergb
	//   M4000    -> fg8,oitergb
	//
	// strategy scores (0 non-improvable tests excluded):
	//   baseline  1.00x vs baseline, 1.29x behind oracle, 0/6 tests sped up
	//   global    1.23x vs baseline, 1.04x behind oracle, 4/6 tests sped up
	//   chip      1.23x vs baseline, 1.04x behind oracle, 4/6 tests sped up
	//   oracle    1.29x vs baseline, 1.00x behind oracle, 5/6 tests sped up
}

// Use the library on an environment the paper never measured - a
// hypothetical ninth-generation integrated GPU and a user-supplied
// input - and derive an optimisation policy for it:
//
//  1. describe a new chip by its performance parameters,
//  2. bring your own graph input,
//  3. collect a dataset over the applications you care about,
//  4. let the rank-based analysis pick your compiler flags,
//  5. persist the dataset as CSV for later re-analysis.
func Example_customstrategy() {
	// 1. A hypothetical integrated GPU: middling launch overhead, wide
	// subgroups, no JIT atomic combining, moderate divergence
	// sensitivity. All parameters are plain struct fields.
	custom := chip.Chip{
		Name: "iGPU9", Vendor: "Acme", Arch: "Gen9", OS: "Linux",
		CUs: 16, SubgroupSize: 32,
		LaunchNS: 18000, CopyNS: 6000, GlobalBarrierNS: 4200, GBOccupancyPenalty: 1.1,
		EdgeThroughput: 1.1, ItemOverheadNS: 0.9,
		AtomicNS: 14, AtomicDataNS: 4,
		JITCombinesAtomics: false, CombineEfficiency: 0.45, CoopOverheadNS: 3,
		SubgroupBarrierNS: 2, WorkgroupBarrierNS: 35, WGBarrier256Factor: 2.4,
		FG1CostPerEdge: 0.9, FG8CostPerEdge: 0.3,
		LineFetchNS: 32, CacheLinesPerCU: 6,
		LocalMemNS: 1.2, DivergencePenaltyNS: 1.4, BarrierDivergenceRelief: 0.35,
		Occupancy256: 0.95, MaxWorkgroup: 256, NoiseSigma: 0.03,
	}

	// 2. Your own input: a mid-size power-law graph.
	input := graph.GenerateRMAT("my-graph", 12, 12, 4242)
	props := graph.Analyze(input)
	fmt.Printf("input %s: %d nodes, %d edges, max degree %d, ~diameter %d\n\n",
		props.Name, props.Nodes, props.Edges, props.MaxDegree, props.ApproxDiam)

	// 3. Collect over the applications that matter to you.
	var selected []gpuport.App
	for _, name := range []string{"bfs-hybrid", "sssp-nf", "pr-residual", "cc-sv", "tri-merge"} {
		app, err := apps.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		selected = append(selected, app)
	}
	s, err := gpuport.NewStudy(measure.Options{
		Seed:     99,
		Runs:     3,
		Chips:    []chip.Chip{custom},
		Apps:     selected,
		Inputs:   []*graph.Graph{input},
		Validate: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Derive the policy. With a single chip and input, the "global"
	// strategy is the chip-and-input-specialised one.
	spec := s.Global()
	fmt.Println("recommended compiler flags for iGPU9 on my-graph:")
	fmt.Printf("  %s\n\n", spec.Strategy.Config(gpuport.Tuple{}))
	for _, dec := range spec.Partitions[0].Decisions {
		state := "off"
		switch {
		case !dec.Confident:
			state = "undecided (too few significant samples)"
		case dec.Enabled:
			state = "ON"
		}
		fmt.Printf("  %-8s %-40s P(speedup)=%.2f\n", dec.Flag, state, dec.CL)
	}

	// Per-application nuance: the app-specialised strategies.
	fmt.Println("\nper-application recommendations:")
	for _, p := range s.Specialise(gpuport.Dims{App: true}).Partitions {
		fmt.Printf("  %-12s -> %s\n", p.Key.App, p.Config)
	}

	// 5. Persist and reload the dataset.
	var buf bytes.Buffer
	if err := s.Dataset().WriteCSV(&buf); err != nil {
		log.Fatal(err)
	}
	size := buf.Len()
	reloaded, err := gpuport.ReadDatasetCSV(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndataset round-tripped through CSV: %d records, %d bytes\n",
		reloaded.Len(), size)
	// Output:
	// input my-graph: 4096 nodes, 41372 edges, max degree 788, ~diameter 7
	//
	// recommended compiler flags for iGPU9 on my-graph:
	//   sg,wg,fg8
	//
	//   coop-cv  undecided (too few significant samples)  P(speedup)=NaN
	//   sg       ON                                       P(speedup)=1.00
	//   wg       ON                                       P(speedup)=0.72
	//   fg       ON                                       P(speedup)=0.89
	//   fg8      ON                                       P(speedup)=0.92
	//   oitergb  off                                      P(speedup)=0.10
	//   sz256    off                                      P(speedup)=0.00
	//
	// per-application recommendations:
	//   bfs-hybrid   -> sg
	//   cc-sv        -> sg,fg8
	//   pr-residual  -> sg,wg,fg8
	//   sssp-nf      -> sg,fg
	//   tri-merge    -> sg,wg,fg
	//
	// dataset round-tripped through CSV: 480 records, 47714 bytes
}

// reachSource is a program the library does not ship: mark every node
// reachable from the source and count hops like BFS, but also tally how
// many times each node was relaxed (a simple provenance counter).
const reachSource = `program reach

node dist:  int = INF
node hits:  int

host {
    dist[SRC] = 0
    push(SRC)
    iterate relax
}

kernel relax {
    forall u in worklist {
        let du = dist[u]
        foreach (v, w) in edges(u) {
            hits[v] = hits[v] + 1
            if atomicMin(dist[v], du + 1) {
                push(v)
            }
        }
    }
}
`

// Walk the DSL compiler pipeline whose optimisation space the study
// explores:
//
//  1. write a new algorithm in the IrGL-like DSL (reachability count),
//  2. compile and execute it on a real input, validating the answer,
//  3. model its runtime on every chip under the portable configuration
//     the study recommends,
//  4. emit the OpenCL the compiler would generate for two contrasting
//     configurations, showing how the optimisations rewrite the kernel.
func Example_dslcompiler() {
	exe, err := gpuport.CompileDSL(reachSource)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("compiled custom DSL program 'reach'")

	g, err := graph.InputByName("usa.ny")
	if err != nil {
		log.Fatal(err)
	}
	trace, arrays, err := exe.Run(g)
	if err != nil {
		log.Fatal(err)
	}
	dist := arrays["dist"]
	reached := 0
	for _, d := range dist {
		if int64(d) != 1<<30-1 {
			reached++
		}
	}
	fmt.Printf("ran on %s: reached %d of %d nodes in %d kernel launches\n\n",
		g.Name, reached, g.NumNodes(), trace.TotalLaunches())

	// Model the runtime under the study's portable recommendation.
	portable, _ := opt.Parse("sg,fg8,oitergb")
	tp := cost.NewTraceProfile(trace)
	fmt.Println("modelled speedup of the portable configuration {sg,fg8,oitergb}:")
	for _, ch := range chip.All() {
		base := cost.Estimate(ch, opt.Config{}, tp)
		tuned := cost.Estimate(ch, portable, tp)
		fmt.Printf("  %-8s %5.2fx\n", ch.Name, base/tuned)
	}

	// Show how two configurations rewrite the generated kernel.
	fmt.Println("\n--- generated OpenCL, baseline (excerpt) ---")
	printExcerpt(gpuport.GenerateOpenCL(exe, opt.Config{}))
	fmt.Println("\n--- generated OpenCL, coop-cv,sg,fg8,oitergb (excerpt) ---")
	full, _ := opt.Parse("coop-cv,sg,fg8,oitergb")
	printExcerpt(gpuport.GenerateOpenCL(exe, full))
	// Output:
	// compiled custom DSL program 'reach'
	// ran on usa.ny: reached 12100 of 12100 nodes in 87 kernel launches
	//
	// modelled speedup of the portable configuration {sg,fg8,oitergb}:
	//   M4000     1.34x
	//   GTX1080   1.37x
	//   HD5500    1.33x
	//   IRIS      1.21x
	//   R9        3.87x
	//   MALI      5.06x
	//
	// --- generated OpenCL, baseline (excerpt) ---
	// __kernel void relax(__global const int *row, __global const int *col, __global const int *wt, __global int *dist, __global int *hits, __global const int *in_wl, const int in_size, __global int *out_wl, __global int *out_wl_tail) {
	//     for (int idx = get_global_id(0); idx < in_size; idx += get_global_size(0)) {
	//         const int u = in_wl[idx];
	//         const int du = dist[u];
	//         for (int e = row[u]; e < row[u + 1]; ++e) {
	//             const int v = col[e];
	//             const int w = wt[e];
	//             hits[v] = (hits[v] + 1);
	//             if ((atomic_min(&dist[v], (du + 1)) > (du + 1))) {
	//                 out_wl[atomic_add(out_wl_tail, 1)] = v;
	//             }
	//         }
	//     }
	// }
	//
	// /* host driver (reach):
	//  * while (worklist not empty):
	//  *     clEnqueueNDRangeKernel(...);          // one launch per iteration
	//  *     clEnqueueReadBuffer(out_wl_tail ...); // fixpoint flag copy-back
	//  *     swap(in_wl, out_wl);
	//  */
	//
	// --- generated OpenCL, coop-cv,sg,fg8,oitergb (excerpt) ---
	// __kernel void relax(__global const int *row, __global const int *col, __global const int *wt, __global int *dist, __global int *hits, __global const int *in_wl, const int in_size, __global int *out_wl, __global int *out_wl_tail, gb_t bar) {
	//     // oitergb: persistent kernel; host loop outlined onto the device.
	//     for (;;) {
	//         for (int idx = get_global_id(0); idx < in_size; idx += get_global_size(0)) {
	//             const int u = in_wl[idx];
	//             const int du = dist[u];
	//             const int deg = row[u + 1] - row[u];
	//             // np-sg: subgroup takes medium-degree items; uniform branches required.
	//             if (sub_group_any(deg >= SG_SIZE)) {
	//                 sub_group_barrier(CLK_LOCAL_MEM_FENCE);
	//                 for (int e = row[u] + get_sub_group_local_id(); e < row[u + 1]; e += SG_SIZE) {
	//                     const int v = col[e];
	//                     const int w = wt[e];
	//                     hits[v] = (hits[v] + 1);
	//                     if ((atomic_min(&dist[v], (du + 1)) > (du + 1))) {
	//                         coop_push(out_wl, out_wl_tail, 1, v);
	//                     }
	//                 }
	//                 sub_group_barrier(CLK_LOCAL_MEM_FENCE);
	//             } else
	//             {
	//                 // np-fg: linearise the remaining edges, FG_CHUNK per step.
	//                 for (int base = row[u]; base < row[u + 1]; base += FG_CHUNK) {
	//                     for (int e = base; e < min(base + FG_CHUNK, row[u + 1]); ++e) {
	//     ...
}

// printExcerpt shows the kernel body without drowning the terminal.
func printExcerpt(src string) {
	lines := strings.Split(strings.TrimSuffix(src, "\n"), "\n")
	start := 0
	for i, l := range lines {
		if strings.Contains(l, "__kernel") {
			start = i
			break
		}
	}
	end := start + 24
	if end > len(lines) {
		end = len(lines)
	}
	for _, l := range lines[start:end] {
		fmt.Println(l)
	}
	if end < len(lines) {
		fmt.Println("    ...")
	}
}
