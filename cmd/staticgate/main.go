// Command staticgate runs the internal/staticlint whole-program
// analysis engine over the module and gates on its findings.
//
// Usage: staticgate [flags] [root]   (root defaults to ".")
//
//	-list             print the analyzers and exit
//	-only a,b,c       run only the named analyzers
//	-json             write the report as byte-stable JSON to stdout
//	-lockgraph BASE   also write the whole-program lock-acquisition
//	                  graph as BASE.json and BASE.dot (byte-stable
//	                  across runs; CI uploads them as artifacts)
//
// A finding is silenced only by a //lint:allow <rule> <reason> comment
// on its line or the line above; lock copies are go vet's copylocks
// check, not this gate's.
//
// Exit status: 0 clean, 1 any unsuppressed finding, 2 usage or load
// errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gpuport/internal/staticlint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("staticgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list analyzers and exit")
		only     = fs.String("only", "", "comma-separated analyzer names to run (default all)")
		jsonOut  = fs.Bool("json", false, "write the report as byte-stable JSON to stdout")
		lockBase = fs.String("lockgraph", "", "write the lock-acquisition graph to BASE.json and BASE.dot")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := staticlint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		names := strings.Split(*only, ",")
		known := map[string]bool{}
		for _, a := range analyzers {
			known[a.Name] = true
		}
		for _, n := range names {
			if !known[n] {
				fmt.Fprintf(stderr, "staticgate: unknown analyzer %q (see -list)\n", n)
				return 2
			}
		}
		analyzers = staticlint.AnalyzersByName(names)
	}

	root := "."
	if fs.NArg() > 0 {
		root = fs.Arg(0)
	}
	prog, err := staticlint.Load(root)
	if err != nil {
		fmt.Fprintln(stderr, "staticgate:", err)
		return 2
	}
	result := staticlint.Run(prog, staticlint.DefaultConfig(), analyzers)

	if *lockBase != "" {
		if err := writeLockGraph(prog, *lockBase); err != nil {
			fmt.Fprintln(stderr, "staticgate:", err)
			return 2
		}
	}

	if *jsonOut {
		raw, err := staticlint.EncodeJSON(result)
		if err != nil {
			fmt.Fprintln(stderr, "staticgate:", err)
			return 2
		}
		if _, err := stdout.Write(raw); err != nil {
			fmt.Fprintln(stderr, "staticgate:", err)
			return 2
		}
	} else {
		fmt.Fprint(stdout, staticlint.RenderText(result))
	}

	if len(result.Diagnostics) > 0 {
		return 1
	}
	return 0
}

// writeLockGraph emits the lock-acquisition graph as base.json and
// base.dot. Both encodings are deterministic for a given program, so
// CI can diff the artifacts across runs and commits.
func writeLockGraph(prog *staticlint.Program, base string) error {
	g := staticlint.BuildLockGraph(prog)
	raw, err := g.EncodeJSON()
	if err != nil {
		return fmt.Errorf("lockgraph: %w", err)
	}
	if err := os.WriteFile(base+".json", raw, 0o644); err != nil {
		return fmt.Errorf("lockgraph: %w", err)
	}
	if err := os.WriteFile(base+".dot", g.EncodeDOT(), 0o644); err != nil {
		return fmt.Errorf("lockgraph: %w", err)
	}
	return nil
}
