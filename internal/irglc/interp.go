package irglc

import (
	"fmt"

	"gpuport/internal/graph"
	"gpuport/internal/irgl"
)

// Infinity mirrors the apps package's unreached marker; the DSL's INF
// literal evaluates to it.
const Infinity int64 = 1<<30 - 1

// Executable is a compiled DSL program ready to run on graphs.
type Executable struct {
	prog *Program
}

// Compile parses and checks a DSL program.
func Compile(src string) (*Executable, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Check(prog); err != nil {
		return nil, err
	}
	// iterate only makes sense over worklist-driven kernels.
	var walk func(b *Block) error
	walk = func(b *Block) error {
		for _, s := range b.Stmts {
			switch st := s.(type) {
			case *Iterate:
				k := prog.KernelByName(st.Kernel)
				fa := k.Body.Stmts[0].(*Forall)
				if !fa.Worklist {
					return errAt(st.Tok, "iterate needs a worklist-driven kernel, %q is topology-driven", st.Kernel)
				}
			case *If:
				if err := walk(st.Then); err != nil {
					return err
				}
				if st.Else != nil {
					if err := walk(st.Else); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	if err := walk(prog.Host); err != nil {
		return nil, err
	}
	return &Executable{prog: prog}, nil
}

// Program exposes the checked AST (used by the code generator).
func (e *Executable) Program() *Program { return e.prog }

// Run executes the program on g through the instrumented runtime and
// returns the trace plus the final contents of every node array.
func (e *Executable) Run(g *graph.Graph) (*irgl.Trace, map[string][]int32, error) {
	n := g.NumNodes()
	ex := &interp{
		prog:   e.prog,
		g:      g,
		rt:     irgl.NewRuntime(e.prog.Name, g),
		wl:     irgl.NewWorklist(n),
		arrays: map[string][]int32{},
		src:    sourceNode(g),
	}
	for _, d := range e.prog.Nodes {
		arr := make([]int32, n)
		if d.Init != nil {
			v, err := ex.eval(d.Init, nil, nil)
			if err != nil {
				return nil, nil, err
			}
			for i := range arr {
				arr[i] = int32(v)
			}
		}
		ex.arrays[d.Name] = arr
	}
	if err := ex.hostBlock(e.prog.Host, map[string]int64{}); err != nil {
		return nil, nil, err
	}
	return ex.rt.Trace(), ex.arrays, nil
}

// sourceNode mirrors apps.SourceNode: the highest-degree node.
func sourceNode(g *graph.Graph) int64 {
	best, bestDeg := int64(0), -1
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		if d := g.Degree(u); d > bestDeg {
			best, bestDeg = int64(u), d
		}
	}
	return best
}

type interp struct {
	prog   *Program
	g      *graph.Graph
	rt     *irgl.Runtime
	wl     *irgl.Worklist
	arrays map[string][]int32
	src    int64
}

type runtimeError struct{ err error }

func (i *interp) fail(t Token, format string, args ...any) {
	panic(runtimeError{errAt(t, format, args...)})
}

func (i *interp) hostBlock(b *Block, vars map[string]int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(runtimeError); ok {
				err = re.err
				return
			}
			panic(r)
		}
	}()
	for _, s := range b.Stmts {
		i.hostStmt(s, vars)
	}
	return nil
}

func (i *interp) hostStmt(s Stmt, vars map[string]int64) {
	switch st := s.(type) {
	case *Let:
		vars[st.Name], _ = i.mustEval(st.Value, vars, nil)
	case *Assign:
		v, _ := i.mustEval(st.Value, vars, nil)
		i.store(st.Target, v, vars, nil)
	case *If:
		c, _ := i.mustEval(st.Cond, vars, nil)
		if c != 0 {
			for _, inner := range st.Then.Stmts {
				i.hostStmt(inner, vars)
			}
		} else if st.Else != nil {
			for _, inner := range st.Else.Stmts {
				i.hostStmt(inner, vars)
			}
		}
	case *Push:
		v, _ := i.mustEval(st.Node, vars, nil)
		i.checkNode(st.Tok, v)
		i.wl.SeedHost(int32(v))
	case *Forall:
		// Host initialisation loop over all nodes: executed by the
		// host (or a trivial memset-style kernel); not instrumented.
		for u := 0; u < i.g.NumNodes(); u++ {
			vars[st.Var] = int64(u)
			for _, inner := range st.Body.Stmts {
				i.hostStmt(inner, vars)
			}
		}
		delete(vars, st.Var)
	case *Iterate:
		kernel := i.prog.KernelByName(st.Kernel)
		i.rt.Iterate(st.Kernel, func(iter int) bool {
			i.launch(kernel)
			return i.wl.Swap() > 0
		})
	default:
		i.fail(tokenOf(s), "statement not allowed on the host")
	}
}

func tokenOf(s Stmt) Token {
	switch st := s.(type) {
	case *Assign:
		return st.Tok
	case *Let:
		return st.Tok
	case *If:
		return st.Tok
	case *Forall:
		return st.Tok
	case *Foreach:
		return st.Tok
	case *Push:
		return st.Tok
	case *Iterate:
		return st.Tok
	default:
		return Token{}
	}
}

// launch executes one kernel over the worklist (or all nodes).
func (i *interp) launch(kernel *Kernel) {
	fa := kernel.Body.Stmts[0].(*Forall)
	k := i.rt.Launch(kernel.Name)
	body := func(it *irgl.Item, u int32) {
		vars := map[string]int64{fa.Var: int64(u)}
		for _, s := range fa.Body.Stmts {
			i.kernelStmt(s, vars, it)
		}
	}
	if fa.Worklist {
		k.ForAll(i.wl.Items(), body)
	} else {
		k.ForAllNodes(body)
	}
	k.End()
}

func (i *interp) kernelStmt(s Stmt, vars map[string]int64, it *irgl.Item) {
	switch st := s.(type) {
	case *Let:
		vars[st.Name], _ = i.mustEval(st.Value, vars, it)
	case *Assign:
		v, _ := i.mustEval(st.Value, vars, it)
		i.store(st.Target, v, vars, it)
	case *If:
		c, _ := i.mustEval(st.Cond, vars, it)
		if c != 0 {
			for _, inner := range st.Then.Stmts {
				i.kernelStmt(inner, vars, it)
			}
		} else if st.Else != nil {
			for _, inner := range st.Else.Stmts {
				i.kernelStmt(inner, vars, it)
			}
		}
	case *Foreach:
		node, _ := i.mustEval(st.Node, vars, it)
		i.checkNode(st.Tok, node)
		dst, ws := it.Edges(int32(node))
		for e, v := range dst {
			vars[st.DstVar] = int64(v)
			vars[st.WVar] = int64(ws[e])
			for _, inner := range st.Body.Stmts {
				i.kernelStmt(inner, vars, it)
			}
		}
		delete(vars, st.DstVar)
		delete(vars, st.WVar)
	case *Push:
		v, _ := i.mustEval(st.Node, vars, it)
		i.checkNode(st.Tok, v)
		it.Push(i.wl, int32(v))
	default:
		i.fail(tokenOf(s), "statement not allowed in kernels")
	}
}

func (i *interp) checkNode(t Token, v int64) {
	if v < 0 || int(v) >= i.g.NumNodes() {
		i.fail(t, "node id %d out of range [0,%d)", v, i.g.NumNodes())
	}
}

func (i *interp) store(target Expr, v int64, vars map[string]int64, it *irgl.Item) {
	switch tgt := target.(type) {
	case *Index:
		at, _ := i.mustEval(tgt.At, vars, it)
		arr := i.arrays[tgt.Array]
		if at < 0 || int(at) >= len(arr) {
			i.fail(tgt.Tok, "index %d out of range for %q", at, tgt.Array)
		}
		arr[at] = int32(v)
	case *Var:
		vars[tgt.Name] = v
	}
}

func (i *interp) mustEval(e Expr, vars map[string]int64, it *irgl.Item) (int64, bool) {
	v, err := i.evalWith(e, vars, it)
	if err != nil {
		panic(runtimeError{err})
	}
	return v, true
}

// eval is the host-side (no item) entry used for initialisers.
func (i *interp) eval(e Expr, vars map[string]int64, it *irgl.Item) (int64, error) {
	return i.evalWith(e, vars, it)
}

func (i *interp) evalWith(e Expr, vars map[string]int64, it *irgl.Item) (int64, error) {
	switch ex := e.(type) {
	case *IntLit:
		switch ex.Kind {
		case KWInf:
			return Infinity, nil
		case KWSrc:
			return i.src, nil
		case KWNumNodes:
			return int64(i.g.NumNodes()), nil
		default:
			return ex.Val, nil
		}
	case *Var:
		v, ok := vars[ex.Name]
		if !ok {
			return 0, errAt(ex.Tok, "variable %q not bound", ex.Name)
		}
		return v, nil
	case *Index:
		at, err := i.evalWith(ex.At, vars, it)
		if err != nil {
			return 0, err
		}
		arr := i.arrays[ex.Array]
		if at < 0 || int(at) >= len(arr) {
			return 0, errAt(ex.Tok, "index %d out of range for %q", at, ex.Array)
		}
		return int64(arr[at]), nil
	case *Call:
		return i.call(ex, vars, it)
	case *Binary:
		l, err := i.evalWith(ex.L, vars, it)
		if err != nil {
			return 0, err
		}
		// Short-circuit logical operators.
		switch ex.Op {
		case AndAnd:
			if l == 0 {
				return 0, nil
			}
			return i.evalWith(ex.R, vars, it)
		case OrOr:
			if l != 0 {
				return 1, nil
			}
			return i.evalWith(ex.R, vars, it)
		}
		r, err := i.evalWith(ex.R, vars, it)
		if err != nil {
			return 0, err
		}
		switch ex.Op {
		case Plus:
			return l + r, nil
		case Minus:
			return l - r, nil
		case Star:
			return l * r, nil
		case Slash:
			if r == 0 {
				return 0, errAt(ex.Tok, "division by zero")
			}
			return l / r, nil
		case Percent:
			if r == 0 {
				return 0, errAt(ex.Tok, "modulo by zero")
			}
			return l % r, nil
		case Eq:
			return b2i(l == r), nil
		case Neq:
			return b2i(l != r), nil
		case Lt:
			return b2i(l < r), nil
		case Leq:
			return b2i(l <= r), nil
		case Gt:
			return b2i(l > r), nil
		case Geq:
			return b2i(l >= r), nil
		}
		return 0, errAt(ex.Tok, "unknown operator")
	case *Unary:
		v, err := i.evalWith(ex.X, vars, it)
		if err != nil {
			return 0, err
		}
		if ex.Op == Not {
			return b2i(v == 0), nil
		}
		return -v, nil
	default:
		return 0, fmt.Errorf("irglc: unknown expression %T", e)
	}
}

func (i *interp) call(c *Call, vars map[string]int64, it *irgl.Item) (int64, error) {
	argv := make([]int64, len(c.Args))
	// The first argument of the atomic builtins is the target element;
	// evaluate only its index here.
	start := 0
	var arr []int32
	var at int64
	if builtins[c.Name].firstIndex {
		idx := c.Args[0].(*Index)
		v, err := i.evalWith(idx.At, vars, it)
		if err != nil {
			return 0, err
		}
		arr = i.arrays[idx.Array]
		if v < 0 || int(v) >= len(arr) {
			return 0, errAt(idx.Tok, "index %d out of range for %q", v, idx.Array)
		}
		at = v
		start = 1
	}
	for k := start; k < len(c.Args); k++ {
		v, err := i.evalWith(c.Args[k], vars, it)
		if err != nil {
			return 0, err
		}
		argv[k] = v
	}
	switch c.Name {
	case "atomicMin":
		if it == nil {
			return 0, errAt(c.Tok, "atomics are kernel-only")
		}
		return b2i(it.AtomicMin(arr, int32(at), int32(argv[1]))), nil
	case "atomicMax":
		if it == nil {
			return 0, errAt(c.Tok, "atomics are kernel-only")
		}
		return b2i(it.AtomicMax(arr, int32(at), int32(argv[1]))), nil
	case "atomicAdd":
		if it == nil {
			return 0, errAt(c.Tok, "atomics are kernel-only")
		}
		return int64(it.AtomicAdd(arr, int32(at), int32(argv[1]))), nil
	case "degree":
		v := argv[0]
		if v < 0 || int(v) >= i.g.NumNodes() {
			return 0, errAt(c.Tok, "degree of out-of-range node %d", v)
		}
		return int64(i.g.Degree(int32(v))), nil
	case "min":
		if argv[0] < argv[1] {
			return argv[0], nil
		}
		return argv[1], nil
	case "max":
		if argv[0] > argv[1] {
			return argv[0], nil
		}
		return argv[1], nil
	default:
		return 0, errAt(c.Tok, "unknown builtin %q", c.Name)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
