package staticlint

// The lockorder analyzer: build the global lock-acquisition graph —
// an edge A -> B means some path acquires lock B while holding lock A,
// directly or through any chain of module-local calls — and fail on
// any cycle, which is the static signature of a potential deadlock.
// The graph itself is a reviewable artifact: staticgate -lockgraph
// emits it as deterministic JSON and DOT, and `make lockgraph`
// renders it locally.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockEdge is one acquisition-order edge with the site that witnesses
// it (the inner Lock call, or the call that transitively acquires).
type LockEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	Site string `json:"site"` // module-relative file:line

	pos token.Pos
}

// LockGraph is the module's lock-acquisition graph.
type LockGraph struct {
	Module string
	edges  map[string]map[string]LockEdge // from -> to -> witness
	nodes  map[string]bool                // every lock ever acquired
}

// funcLockSummary is the per-function state the interprocedural pass
// accumulates.
type funcLockSummary struct {
	acquires map[lockID]bool // transitive: locks this function may take
	callees  map[*types.Func]bool
	// heldCalls are call sites executed with locks held; once the
	// fixpoint settles, each contributes held -> acquires(callee) edges.
	heldCalls []heldCall
}

type heldCall struct {
	callee *types.Func
	held   []lockID
	pos    token.Pos
}

// BuildLockGraph computes the lock-acquisition graph for the whole
// program. Function literals that escape their declaration site (go,
// defer, stored closures) contribute the edges of their own bodies,
// but their acquisitions do not join the declaring function's summary
// — a returned cancel closure does not run under the locks of the
// function that built it.
func BuildLockGraph(prog *Program) *LockGraph {
	facts := collectLockFacts(prog)
	g := &LockGraph{
		Module: prog.ModulePath,
		edges:  map[string]map[string]LockEdge{},
		nodes:  map[string]bool{},
	}
	summaries := map[*types.Func]*funcLockSummary{}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				s := &funcLockSummary{acquires: map[lockID]bool{}, callees: map[*types.Func]bool{}}
				summaries[fn] = s
				g.scanFunc(prog, facts, pkg, fd, s)
			}
		}
	}
	// Fixpoint: propagate acquisitions up the call graph.
	for changed := true; changed; {
		changed = false
		for _, s := range summaries {
			for callee := range s.callees {
				cs := summaries[callee]
				if cs == nil {
					continue
				}
				for id := range cs.acquires {
					if !s.acquires[id] {
						s.acquires[id] = true
						changed = true
					}
				}
			}
		}
	}
	// Transitive edges: a call made with locks held acquires everything
	// its callee (transitively) acquires.
	for _, s := range summaries {
		for _, hc := range s.heldCalls {
			cs := summaries[hc.callee]
			if cs == nil {
				continue
			}
			for id := range cs.acquires {
				for _, h := range hc.held {
					g.addEdge(prog, h, id, hc.pos)
				}
			}
		}
	}
	return g
}

// scanFunc walks one function, recording direct acquisitions, direct
// edges, and the calls made while holding locks.
func (g *LockGraph) scanFunc(prog *Program, facts *lockFacts, pkg *Package, fd *ast.FuncDecl, s *funcLockSummary) {
	w := &lockWalker{facts: facts, pkg: pkg}
	w.onAcquire = func(key string, lock heldLock, pos token.Pos, held lockState) {
		g.nodes[string(lock.id)] = true
		for _, h := range held {
			g.addEdge(prog, h.id, lock.id, pos)
		}
		if w.detached == 0 {
			s.acquires[lock.id] = true
		}
	}
	record := func(callee *types.Func, pos token.Pos, held lockState) {
		if w.detached == 0 {
			s.callees[callee] = true
		}
		if len(held) == 0 {
			return
		}
		ids := make([]lockID, 0, len(held))
		for _, h := range held {
			ids = append(ids, h.id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		s.heldCalls = append(s.heldCalls, heldCall{callee: callee, held: ids, pos: pos})
	}
	w.onCall = record
	w.onContractCall = func(callee *types.Func, requiredKey string, pos token.Pos, held lockState) {
		// onCall fires for contract callees too; nothing extra here.
	}
	w.walkFunc(fd)
}

// addEdge records an edge, keeping the lexicographically smallest
// witness site so the artifact is byte-identical across runs.
func (g *LockGraph) addEdge(prog *Program, from, to lockID, pos token.Pos) {
	if from == to {
		// Identities collapse instances (every *Recorder's mu is one
		// node), so a self-edge usually means two distinct instances,
		// not recursive locking; reporting it would be noise.
		return
	}
	g.nodes[string(from)] = true
	g.nodes[string(to)] = true
	p := prog.Fset.Position(pos)
	e := LockEdge{From: string(from), To: string(to), Site: fmt.Sprintf("%s:%d", prog.FileName(pos), p.Line), pos: pos}
	if g.edges[e.From] == nil {
		g.edges[e.From] = map[string]LockEdge{}
	}
	if old, ok := g.edges[e.From][e.To]; ok && old.Site <= e.Site {
		return
	}
	g.edges[e.From][e.To] = e
}

// Nodes returns every lock in the graph, sorted.
func (g *LockGraph) Nodes() []string {
	out := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Edges returns every edge, sorted by (From, To).
func (g *LockGraph) Edges() []LockEdge {
	var out []LockEdge
	for _, tos := range g.edges {
		for _, e := range tos {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Cycles returns every elementary cycle's canonical rendering, sorted,
// each with the edge list that witnesses it. Detection is a DFS over
// sorted adjacency, so the result is deterministic.
func (g *LockGraph) Cycles() [][]LockEdge {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var stack []string
	var cycles [][]LockEdge
	seen := map[string]bool{}

	adj := func(n string) []string {
		var out []string
		for to := range g.edges[n] {
			out = append(out, to)
		}
		sort.Strings(out)
		return out
	}
	var dfs func(n string)
	dfs = func(n string) {
		color[n] = gray
		stack = append(stack, n)
		for _, to := range adj(n) {
			switch color[to] {
			case white:
				dfs(to)
			case gray:
				// stack[i..] + to closes a cycle.
				i := len(stack) - 1
				for i >= 0 && stack[i] != to {
					i--
				}
				cyc := append(append([]string{}, stack[i:]...), to)
				cyc = canonicalCycle(cyc)
				key := fmt.Sprint(cyc)
				if !seen[key] {
					seen[key] = true
					var edges []LockEdge
					for k := 0; k+1 < len(cyc); k++ {
						edges = append(edges, g.edges[cyc[k]][cyc[k+1]])
					}
					cycles = append(cycles, edges)
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	for _, n := range g.Nodes() {
		if color[n] == white {
			dfs(n)
		}
	}
	sort.Slice(cycles, func(i, j int) bool { return cycleString(cycles[i]) < cycleString(cycles[j]) })
	return cycles
}

// canonicalCycle rotates a cycle (first == last) so its smallest node
// leads, making equal cycles found from different roots compare equal.
func canonicalCycle(cyc []string) []string {
	body := cyc[:len(cyc)-1]
	min := 0
	for i, n := range body {
		if n < body[min] {
			min = i
		}
	}
	out := append(append([]string{}, body[min:]...), body[:min]...)
	return append(out, out[0])
}

// cycleString renders a cycle's node path "A -> B -> A".
func cycleString(edges []LockEdge) string {
	var b bytes.Buffer
	for i, e := range edges {
		if i == 0 {
			b.WriteString(e.From)
		}
		b.WriteString(" -> ")
		b.WriteString(e.To)
	}
	return b.String()
}

// EncodeJSON renders the graph as indented, byte-stable JSON.
func (g *LockGraph) EncodeJSON() ([]byte, error) {
	out := struct {
		Version int        `json:"version"`
		Module  string     `json:"module"`
		Nodes   []string   `json:"nodes"`
		Edges   []LockEdge `json:"edges"`
	}{Version: 1, Module: g.Module, Nodes: g.Nodes(), Edges: g.Edges()}
	if out.Edges == nil {
		out.Edges = []LockEdge{}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EncodeDOT renders the graph in Graphviz DOT form, byte-stable.
func (g *LockGraph) EncodeDOT() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "digraph lockorder {\n")
	fmt.Fprintf(&b, "  label=%q;\n  labelloc=\"t\";\n  rankdir=\"LR\";\n", g.Module+" lock-acquisition order")
	for _, n := range g.Nodes() {
		fmt.Fprintf(&b, "  %q;\n", n)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", e.From, e.To, e.Site)
	}
	b.WriteString("}\n")
	return b.Bytes()
}

func runLockOrder(pass *Pass) {
	g := BuildLockGraph(pass.Prog)
	for _, cyc := range g.Cycles() {
		var sites bytes.Buffer
		for i, e := range cyc {
			if i > 0 {
				sites.WriteString(", ")
			}
			fmt.Fprintf(&sites, "%s->%s at %s", e.From, e.To, e.Site)
		}
		pass.Reportf(cyc[0].pos, "lock acquisition cycle %s (deadlock risk: pick one global order; edges: %s)", cycleString(cyc), sites.String())
	}
}
