package staticlint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// DefaultConfig is the gate configuration for this repository: the
// determinism proof set (the functions whose outputs are golden- or
// bit-identity-tested elsewhere in the tree) and the scopes of the
// supporting rules.
func DefaultConfig() Config {
	return Config{
		DetRoots: []string{
			// The cost model: conform properties and the study's tables
			// assume Estimate is a pure function of its arguments.
			"gpuport/internal/cost.Estimate",
			// Table X: REPORT.md, a byte golden, prints the microbenchmark
			// kernels' times from the ocl simulator.
			"gpuport/internal/microbench.TableX",
			// The report renderer: REPORT.md is a byte golden, and every
			// table, figure and decision listing gpuport prints starts here.
			"gpuport/internal/report.Full",
			"gpuport/internal/report.PaperTable",
			"gpuport/internal/report.PaperFigure",
			"gpuport/internal/report.Decisions",
			// The columnar engine: measure's datasets are bit-identical
			// to the reference path only if build, chip application and
			// per-config assembly are all deterministic.
			"gpuport/internal/cost/columnar.Build",
			"gpuport/internal/cost/columnar.NewEvaluator",
			"gpuport/internal/cost/columnar.Evaluator.Estimate",
			// Content addressing: a fingerprint that drifts invalidates
			// every cached trace.
			"gpuport/internal/graph.Graph.Fingerprint",
			// The trace-cache codec: entries must encode and decode
			// bit-identically across runs and machines.
			"gpuport/internal/tracecache.AppendEntry",
			"gpuport/internal/tracecache.decodeEntry",
			"gpuport/internal/irgl.Trace.AppendJSONCompact",
			// The conformance engine: seeded repro depends on every
			// property being deterministic given its RNG.
			"gpuport/internal/conform.Properties",
			"gpuport/internal/conform.check*",
			// Canonical observability exports: golden-tested
			// byte-for-byte across runs and worker counts. Trace IDs are
			// content-addressed, stream lines and the realtime metrics
			// block are canonical by construction.
			"gpuport/internal/obs.CanonicalTrace",
			"gpuport/internal/obs.CanonicalMetrics",
			"gpuport/internal/obs.NewTraceID",
			"gpuport/internal/obs.StreamEvent.AppendNDJSON",
			"gpuport/internal/obs.WriteRealtime",
			// The campaign server: job identity (content-addressed
			// fingerprints), spec resolution and the scheduling queue
			// must be wall-clock- and randomness-free, or cached
			// answers, dedupe and the byte-canonical HTTP bodies all
			// break.
			"gpuport/internal/measure.Campaign.Fingerprint",
			"gpuport/internal/server.Spec.Resolve",
			"gpuport/internal/server.queue.*",
			"gpuport/internal/server.Job.StatusBytes",
		},
		WalltimeAllowed:      []string{"internal/obs", "internal/tracecache", "cmd/"},
		RandAllowed:          []string{"internal/stats"},
		ErrcheckScope:        []string{"internal/"},
		FloatCmpScope:        []string{"internal/cost", "internal/stats"},
		CtxScope:             []string{"internal/measure", "internal/fault", "internal/server"},
		CtxBackgroundAllowed: []string{"cmd/"},
		MapRangeScope:        []string{"internal/"},
		ObsPath:              "internal/obs",
		ObsLiteralScope:      []string{"internal/server", "cmd/gpuportd"},
		// The daemon's shared-state structs: each must annotate its
		// mutex-protected fields, making the locking discipline checked
		// documentation rather than tribal knowledge.
		LockGuarded: []string{
			"gpuport/internal/server.Server",
			"gpuport/internal/server.Job",
			"gpuport/internal/obs.store",
		},
		GoLeakScope: []string{"internal/server", "internal/measure", "internal/obs"},
	}
}

// Analyzers returns every analyzer, sorted by name.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		{Name: "ctxprop", Doc: "goroutine-spawning functions in the measurement layers must thread a context; context.Background/TODO only at entry points", Run: runCtxProp},
		{Name: "deadcode", Doc: "every function is reachable from a main, init, package-level initialiser, root-package export, interface method name or determinism root", Run: runDeadcode},
		{Name: "detpure", Doc: "proves the determinism roots (cost model, fingerprint, cache codec, conform properties, canonical exports) transitively free of wall clock, global rand and map-order dependence", Run: proveDeterminism},
		{Name: "errcheck", Doc: "no silently dropped errors in internal packages", Run: runErrcheck},
		{Name: "floatcmp", Doc: "no float == / != in the model and stats packages (compare against a tolerance, or guard exact zero)", Run: runFloatCmp},
		{Name: "globalrand", Doc: "math/rand only inside the seeded stats layer", Run: runGlobalRand},
		{Name: "goleak", Doc: "every go statement in the daemon layers has a provable termination path (ctx.Done, WaitGroup, or closed-channel range/select)", Run: runGoLeak},
		{Name: "lockguard", Doc: "fields annotated `guarded by <mu>` (and helpers documenting `requires mu held`) are only touched with the guarding mutex provably held, via interprocedural lock-set dataflow", Run: runLockGuard},
		{Name: "lockorder", Doc: "the global lock-acquisition graph is cycle-free; staticgate -lockgraph emits it as JSON/DOT", Run: runLockOrder},
		{Name: "maprange", Doc: "no map iteration feeding an encoder or an ordered collection without a sort", Run: runMapRange},
		{Name: "mutexlock", Doc: "every Lock has a matching Unlock in the same function (lock copies are go vet's copylocks)", Run: runMutexLock},
		{Name: "nounsafe", Doc: "no unsafe import in any file of the tree, test and tag-excluded files included", Run: runNoUnsafe},
		{Name: "obsliteral", Doc: "string literals in the server layers must not duplicate obs name constants (use the constant)", Run: runObsLiteral},
		{Name: "obsnames", Doc: "obs span/counter/event/attr names must be constants declared in the obs package", Run: runObsNames},
		{Name: "skipref", Doc: "t.Skip/Skipf/SkipNow in test files must carry an issue reference (#N) or URL in a string literal", Run: runSkipRef},
		{Name: "strayfile", Doc: "no extensionless (stray or built) file under cmd/", Run: runStrayFile},
		{Name: "walltime", Doc: "time.Now/Since confined to the instrumentation layers and entry points", Run: runWallTime},
	}
}

// AnalyzersByName filters Analyzers to the given names; unknown names
// are ignored (the caller validates them).
func AnalyzersByName(names []string) []*Analyzer {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []*Analyzer
	for _, a := range Analyzers() {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out
}

// calleeFunc resolves the static callee of a call, or nil for builtins,
// conversions and calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// eachScopedFile invokes fn for every file of every package whose
// module-relative path is in scope.
func eachScopedFile(pass *Pass, scope []string, fn func(pkg *Package, file *ast.File)) {
	for _, pkg := range pass.Prog.Packages {
		if !InScope(pkg.Rel, scope) {
			continue
		}
		for _, file := range pkg.Files {
			fn(pkg, file)
		}
	}
}

// --- walltime -------------------------------------------------------

func runWallTime(pass *Pass) {
	for _, pkg := range pass.Prog.Packages {
		if InScope(pkg.Rel, pass.Config.WalltimeAllowed) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				f, ok := pkg.Info.Uses[id].(*types.Func)
				if ok && f.Pkg() != nil && f.Pkg().Path() == "time" && (f.Name() == "Now" || f.Name() == "Since") {
					pass.Reportf(id.Pos(), "time.%s outside the instrumentation layers (the model is deterministic; route timing through internal/obs)", f.Name())
				}
				return true
			})
		}
	}
}

// --- globalrand -----------------------------------------------------

func runGlobalRand(pass *Pass) {
	for _, pkg := range pass.Prog.Packages {
		if InScope(pkg.Rel, pass.Config.RandAllowed) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pkg.Info.Uses[id]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				if p := obj.Pkg().Path(); p == "math/rand" || p == "math/rand/v2" {
					pass.Reportf(id.Pos(), "math/rand reference (%s.%s) outside internal/stats; all randomness flows through the seeded stats.RNG", p, obj.Name())
				}
				return true
			})
		}
	}
}

// --- errcheck -------------------------------------------------------

// infallibleSinks are types whose write-path error results are
// documented never to be non-nil (strings.Builder, bytes.Buffer, the
// hash.Hash family) plus bufio.Writer, whose first error is latched
// and re-returned by Flush — and Flush itself is NOT exempt, so the
// rule still forces the one check that matters.
var infallibleSinks = map[string]bool{
	"strings.Builder": true,
	"bytes.Buffer":    true,
	"hash.Hash":       true,
	"hash.Hash32":     true,
	"hash.Hash64":     true,
	"bufio.Writer":    true,
}

// runErrcheck flags calls whose error result vanishes: a call
// statement (plain, go or defer) returning an error that nobody
// reads. Assigning the error — even to _ — is visible intent and
// passes; the rule targets silent drops. Writes into infallible or
// sticky sinks are exempt, whether as methods (b.WriteString) or as
// the writer argument of fmt.Fprint*/io.WriteString.
func runErrcheck(pass *Pass) {
	eachScopedFile(pass, pass.Config.ErrcheckScope, func(pkg *Package, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = n.Call
			case *ast.GoStmt:
				call = n.Call
			}
			if call == nil || !returnsError(pkg.Info, call) {
				return true
			}
			if f := calleeFunc(pkg.Info, call); f != nil {
				// Method on a sink: judge by the receiver expression's
				// static type (h.Write where h is a hash.Hash64 is the
				// hash's method even though Write is declared on
				// io.Writer).
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && f.Name() != "Flush" {
					if tv, ok := pkg.Info.Types[sel.X]; ok && tv.Type != nil && infallibleSinks[sinkKey(tv.Type)] {
						return true
					}
				}
				if writesToInfallibleSink(pkg.Info, f, call) {
					return true
				}
			}
			pass.Reportf(call.Pos(), "error result silently dropped (assign it and handle or propagate it)")
			return true
		})
	})
}

// writesToInfallibleSink reports whether the call is a formatted write
// whose destination argument is an infallible or sticky sink.
func writesToInfallibleSink(info *types.Info, f *types.Func, call *ast.CallExpr) bool {
	if f.Pkg() == nil || len(call.Args) == 0 {
		return false
	}
	switch {
	case f.Pkg().Path() == "fmt" && strings.HasPrefix(f.Name(), "Fprint"):
	case f.Pkg().Path() == "io" && f.Name() == "WriteString":
	default:
		return false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Type == nil {
		return false
	}
	return infallibleSinks[sinkKey(tv.Type)]
}

// sinkKey renders a (possibly pointer) named type as "pkg.Type" using
// the package base name, or "".
func sinkKey(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return shortPkg(named.Obj().Pkg().Path()) + "." + named.Obj().Name()
}

// returnsError reports whether the call's result set includes an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(tv.Type)
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }

// --- floatcmp -------------------------------------------------------

func runFloatCmp(pass *Pass) {
	eachScopedFile(pass, pass.Config.FloatCmpScope, func(pkg *Package, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if !isFloatExpr(pkg.Info, bin.X) && !isFloatExpr(pkg.Info, bin.Y) {
				return true
			}
			// Comparing against exact zero is the well-defined
			// divide-by-zero / empty-input guard; everything else must
			// use a tolerance.
			if isConstZero(pkg.Info, bin.X) || isConstZero(pkg.Info, bin.Y) {
				return true
			}
			pass.Reportf(bin.Pos(), "float %s comparison (compare |a-b| against a tolerance, or restructure; exact compare only against literal 0)", bin.Op)
			return true
		})
	})
}

func isFloatExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isFloat(tv.Type)
}

func isConstZero(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}

// --- ctxprop --------------------------------------------------------

func runCtxProp(pass *Pass) {
	// (a) context.Background/TODO confined to the entry points.
	for _, pkg := range pass.Prog.Packages {
		if InScope(pkg.Rel, pass.Config.CtxBackgroundAllowed) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				f, ok := pkg.Info.Uses[id].(*types.Func)
				if ok && f.Pkg() != nil && f.Pkg().Path() == "context" && (f.Name() == "Background" || f.Name() == "TODO") {
					pass.Reportf(id.Pos(), "context.%s minted outside cmd/; thread the caller's context instead", f.Name())
				}
				return true
			})
		}
	}
	// (b) goroutine-spawning functions in the measurement layers must
	// have a context in scope, so the goroutines they start are
	// cancellable.
	eachScopedFile(pass, pass.Config.CtxScope, func(pkg *Package, file *ast.File) {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var firstGo *ast.GoStmt
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok && firstGo == nil {
					firstGo = g
				}
				return true
			})
			if firstGo == nil || referencesContext(pkg.Info, fd) {
				continue
			}
			pass.Reportf(firstGo.Pos(), "%s starts goroutines without a context.Context in scope (thread ctx so the pool is cancellable)", fd.Name.Name)
		}
	})
}

// referencesContext reports whether the function's body or signature
// mentions any value of type context.Context.
func referencesContext(info *types.Info, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return !found
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if v, ok := obj.(*types.Var); ok && types.TypeString(v.Type(), nil) == "context.Context" {
			found = true
		}
		return !found
	})
	return found
}

// --- maprange -------------------------------------------------------

func runMapRange(pass *Pass) {
	eachScopedFile(pass, pass.Config.MapRangeScope, func(pkg *Package, file *ast.File) {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				switch kind := mapRangeOrderDependence(pkg.Info, fd, rng); kind {
				case "append-no-sort":
					pass.Reportf(rng.Pos(), "map iteration appends to an ordered collection without a later sort (collect keys, sort, then iterate)")
				case "encode":
					pass.Reportf(rng.Pos(), "map iteration feeds an encoder/writer directly (iteration order is randomised; sort the keys first)")
				}
				return true
			})
		}
	})
}

// --- mutexlock ------------------------------------------------------

func runMutexLock(pass *Pass) {
	for _, pkg := range pass.Prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					checkLockPairing(pass, pkg, fd)
				}
			}
		}
	}
}

// lockMethods maps the sync lock methods to their unlock partner.
var lockMethods = map[string]string{
	"(*sync.Mutex).Lock":    "(*sync.Mutex).Unlock",
	"(*sync.RWMutex).Lock":  "(*sync.RWMutex).Unlock",
	"(*sync.RWMutex).RLock": "(*sync.RWMutex).RUnlock",
}

// checkLockPairing requires every Lock/RLock in a function to have a
// matching Unlock/RUnlock on the same lock expression somewhere in the
// same function (defers and closures included). This does not prove
// every path unlocks, but it catches the classic leaked-lock bug where
// the unlock lives in no path at all.
func checkLockPairing(pass *Pass, pkg *Package, fd *ast.FuncDecl) {
	type lockUse struct {
		pos  token.Pos
		name string
	}
	locks := map[string]lockUse{} // expr+kind -> first Lock site
	unlocks := map[string]bool{}  // expr+kind -> has Unlock
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		f := calleeFunc(pkg.Info, call)
		if f == nil {
			return true
		}
		full := f.FullName()
		key := types.ExprString(sel.X)
		if unlock, isLock := lockMethods[full]; isLock {
			if _, ok := locks[key+unlock]; !ok {
				locks[key+unlock] = lockUse{call.Pos(), key + "." + f.Name()}
			}
		}
		for _, unlock := range lockMethods {
			if full == unlock {
				unlocks[key+unlock] = true
			}
		}
		return true
	})
	var keys []string
	for k := range locks {
		keys = append(keys, k)
	}
	// Deterministic report order for multiple leaked locks.
	sort.Strings(keys)
	for _, k := range keys {
		if !unlocks[k] {
			pass.Reportf(locks[k].pos, "%s without a matching unlock in this function (defer the unlock next to the lock)", locks[k].name)
		}
	}
}

// --- obsnames -------------------------------------------------------

// obsNameArg maps obs recorder / span-handle methods and attribute
// constructors to the index of their name argument.
var obsNameArg = map[string]int{
	"StartSpan": 0,
	"Event":     0,
	"Add":       0,
	"MergeHist": 0,
	"NameLane":  2,
	"SimSpan":   2,
	"String":    0,
	"Int":       0,
}

// runObsNames requires any constant-valued name reaching an obs
// recorder to be a single named constant declared in the obs package
// itself, however it is spelled (aliased import, concatenated
// literals, a locally declared constant); computed (non-constant)
// names such as kernel names remain allowed.
func runObsNames(pass *Pass) {
	obsPkgPath := pass.Prog.ModulePath + "/" + pass.Config.ObsPath
	for _, pkg := range pass.Prog.Packages {
		if pkg.Rel == pass.Config.ObsPath {
			continue // the obs package declares the names
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := calleeFunc(pkg.Info, call)
				if f == nil || f.Pkg() == nil || f.Pkg().Path() != obsPkgPath {
					return true
				}
				idx, ok := obsNameArg[f.Name()]
				if !ok || idx >= len(call.Args) {
					return true
				}
				arg := call.Args[idx]
				tv, ok := pkg.Info.Types[arg]
				if !ok || tv.Value == nil {
					return true // computed name: allowed
				}
				if c := constOf(pkg.Info, arg); c != nil && c.Pkg() != nil && c.Pkg().Path() == obsPkgPath {
					return true
				}
				pass.Reportf(arg.Pos(), "constant obs name %s passed to %s is not a named constant from %s/names.go (ad-hoc names break the canonical-export schema)",
					tv.Value.ExactString(), f.Name(), pass.Config.ObsPath)
				return true
			})
		}
	}
}

// --- obsliteral -----------------------------------------------------

// runObsLiteral is obsnames' converse, scoped to the server layers:
// a raw string literal whose value coincides with an exported obs name
// constant works today but is detached from names.go, so a rename
// there silently forks the export schema (exactly the drift obsnames
// cannot see, because the literal never flows into a recorder call).
// Struct tags and import paths are exempt - they are schemas of their
// own - as is the obs package itself.
func runObsLiteral(pass *Pass) {
	// Exported string constant values declared by the obs package.
	// Scope.Names is sorted, so a value shared by two constants resolves
	// to the same name on every run.
	values := map[string]string{}
	for _, pkg := range pass.Prog.Packages {
		if pkg.Rel != pass.Config.ObsPath {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok || !c.Exported() || c.Val().Kind() != constant.String {
				continue
			}
			v := constant.StringVal(c.Val())
			if _, taken := values[v]; !taken {
				values[v] = name
			}
		}
	}
	if len(values) == 0 {
		return
	}
	eachScopedFile(pass, pass.Config.ObsLiteralScope, func(pkg *Package, file *ast.File) {
		exempt := map[token.Pos]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if n.Tag != nil {
					exempt[n.Tag.Pos()] = true
				}
			case *ast.ImportSpec:
				exempt[n.Path.Pos()] = true
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING || exempt[lit.Pos()] {
				return true
			}
			v, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if name, ok := values[v]; ok {
				pass.Reportf(lit.Pos(), "string literal %q duplicates obs.%s; use the constant so a rename in %s/names.go cannot fork the export schema",
					v, name, pass.Config.ObsPath)
			}
			return true
		})
	})
}

// constOf resolves an expression to the constant object it names, or
// nil when it is a literal or a computed constant expression.
func constOf(info *types.Info, e ast.Expr) *types.Const {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		c, _ := info.Uses[e].(*types.Const)
		return c
	case *ast.SelectorExpr:
		c, _ := info.Uses[e.Sel].(*types.Const)
		return c
	}
	return nil
}
