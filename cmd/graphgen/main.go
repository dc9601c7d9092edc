// Command graphgen generates the study's graph inputs (or custom-sized
// variants) and writes them as edge lists or in the library's binary
// format, printing the structural properties Table VIII reports.
//
// Usage:
//
//	graphgen -kind road   -side 110 -seed 1001 -out usa-ny.txt
//	graphgen -kind social -scale 13 -edgefactor 16 -format binary -out soc.bin
//	graphgen -kind random -nodes 8192 -degree 8
//
// With no -out, only the properties are printed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"gpuport/internal/graph"
	"gpuport/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	kind := fs.String("kind", "road", "road | social | random")
	name := fs.String("name", "", "graph name (defaults per kind)")
	seed := fs.Uint64("seed", 1, "generator seed")
	side := fs.Int("side", graph.RoadGridSide, "road: grid side length")
	scale := fs.Int("scale", graph.SocialScale, "social: log2 node count")
	edgeFactor := fs.Int("edgefactor", graph.SocialEdgeFactor, "social: edges per node")
	nodes := fs.Int("nodes", graph.RandomNodes, "random: node count")
	degree := fs.Int("degree", graph.RandomDegree, "random: out-degree")
	out := fs.String("out", "", "output file (empty: properties only)")
	format := fs.String("format", "edgelist", "edgelist | binary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkSize(*kind, *side, *scale, *edgeFactor, *nodes, *degree); err != nil {
		return err
	}

	var g *graph.Graph
	switch *kind {
	case "road":
		if *name == "" {
			*name = "road"
		}
		g = graph.GenerateRoad(*name, *side, *seed)
	case "social":
		if *name == "" {
			*name = "social"
		}
		g = graph.GenerateRMAT(*name, *scale, *edgeFactor, *seed)
	case "random":
		if *name == "" {
			*name = "random"
		}
		g = graph.GenerateUniform(*name, *nodes, *degree, *seed)
	default:
		return fmt.Errorf("unknown kind %q (road, social or random)", *kind)
	}
	if err := g.Validate(); err != nil {
		return err
	}

	if err := report.Inputs(w, []graph.Properties{graph.Analyze(g)}); err != nil {
		return err
	}

	if *out == "" {
		return nil
	}
	// Validate the format before creating the file: rejecting it after
	// os.Create would leave an empty stray output behind.
	switch *format {
	case "edgelist", "binary":
	default:
		return fmt.Errorf("unknown format %q (edgelist or binary)", *format)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if *format == "edgelist" {
		err = graph.WriteEdgeList(f, g)
	} else {
		err = graph.WriteBinary(f, g)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "wrote %s (%s) to %s\n", g.Name, *format, *out)
	return err
}

// checkSize rejects, before generating, the sizes kind's generator
// cannot build: a count below its minimum, or a node count or edge
// bound (what the generator reserves) past int32, the type of the CSR
// offsets in RowPtr. The counts are float64, which is exact wherever
// the comparison is close.
func checkSize(kind string, side, scale, edgeFactor, nodes, degree int) error {
	var n, m float64
	switch kind {
	case "road":
		if side < 1 {
			return errors.New("-side wants at least 1")
		}
		s := float64(side)
		n = s * s
		m = 2 * (2*s*(s-1) + math.Floor(n/1000))
	case "social":
		if scale < 1 {
			return errors.New("-scale wants at least 1")
		}
		if edgeFactor < 0 {
			return errors.New("-edgefactor wants at least 0")
		}
		n = math.Ldexp(1, scale)
		m = 2 * math.Floor(n*float64(edgeFactor)/2)
	case "random":
		if nodes < 1 {
			return errors.New("-nodes wants at least 1")
		}
		if degree < 0 {
			return errors.New("-degree wants at least 0")
		}
		n = float64(nodes)
		m = 2 * n * float64(degree)
	}
	if n > math.MaxInt32 || m > math.MaxInt32 {
		return fmt.Errorf("%s graph of %.0f nodes and up to %.0f edges: CSR offsets are int32, so both must be at most %d", kind, n, m, math.MaxInt32)
	}
	return nil
}
