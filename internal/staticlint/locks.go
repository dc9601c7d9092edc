package staticlint

// Shared infrastructure for the concurrency-safety analyzers
// (lockguard, lockorder): annotation collection and a lock-set
// dataflow walker.
//
// Two annotation forms are recognised, both of which already existed
// as prose in this repository and become checked documentation here:
//
//   - a field comment containing "guarded by <mu>" marks the field as
//     protected by the sibling mutex field <mu>;
//   - a function doc comment containing "requires <x.mu> held" or
//     "Caller(s) hold(s) <x.mu>" states a lock contract: the named
//     receiver/parameter mutex is held on entry, and every call site
//     must prove it.
//
// The walker tracks the set of provably held locks through straight
// line code, branches (joined by intersection, with terminating
// branches excluded), loops, switches and selects. Locks are keyed by
// the source expression of their owner ("s.mu", "h.r.mu"), which is
// exactly the granularity the annotations speak in; a helper reached
// through a different expression must carry its own contract.

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// guardedField is one "guarded by <mu>" field annotation.
type guardedField struct {
	guard string       // sibling mutex field name
	owner *types.Named // struct type declaring the field
}

// lockContract is a resolved requires-held annotation on a function:
// the lock root.path[0].path[1]... must be held by every caller.
type lockContract struct {
	root *types.Var // receiver or parameter owning the lock
	path []string   // field path from root to the mutex ("mu"; "st", "mu")
}

// factProblem is a malformed or unresolvable annotation; lockguard
// reports these so annotations cannot silently rot.
type factProblem struct {
	pos token.Pos
	msg string
}

// lockFacts is everything the lock analyzers know about the module.
type lockFacts struct {
	prog      *Program
	guarded   map[*types.Var]*guardedField
	contracts map[*types.Func]*lockContract
	// annotated records, per named struct type display name
	// ("pkg/path.Type"), whether it declares any guarded field; used to
	// check Config.LockGuarded registry entries.
	annotated map[string]bool
	problems  []factProblem
}

var (
	guardedByPattern  = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)
	requiresPattern   = regexp.MustCompile(`requires\s+([A-Za-z_][A-Za-z0-9_.]*)\s+held|[Cc]allers?\s+holds?\s+([A-Za-z_][A-Za-z0-9_.]*)`)
	mutexMethodNames  = map[string]bool{"Lock": true, "RLock": true, "Unlock": true, "RUnlock": true}
	mutexAcquireRead  = map[string]bool{"Lock": false, "RLock": true}
	mutexReleaseNames = map[string]bool{"Unlock": true, "RUnlock": true}
)

// collectLockFacts scans every package for guarded-field and
// requires-held annotations.
func collectLockFacts(prog *Program) *lockFacts {
	f := &lockFacts{
		prog:      prog,
		guarded:   map[*types.Var]*guardedField{},
		contracts: map[*types.Func]*lockContract{},
		annotated: map[string]bool{},
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.GenDecl:
					f.collectStructAnnotations(pkg, decl)
				case *ast.FuncDecl:
					f.collectContract(pkg, decl)
				}
			}
		}
	}
	return f
}

func (f *lockFacts) collectStructAnnotations(pkg *Package, decl *ast.GenDecl) {
	if decl.Tok != token.TYPE {
		return
	}
	for _, spec := range decl.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
		if !ok {
			continue
		}
		named, _ := tn.Type().(*types.Named)
		for _, field := range st.Fields.List {
			guard := fieldGuardName(field)
			if guard == "" {
				continue
			}
			if !structHasMutexField(pkg.Info, st, guard) {
				f.problems = append(f.problems, factProblem{field.Pos(),
					"guarded-by annotation names " + guard + ", which is not a sibling sync.Mutex/RWMutex field"})
				continue
			}
			for _, name := range field.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					f.guarded[v] = &guardedField{guard: guard, owner: named}
				}
			}
			if named != nil && named.Obj().Pkg() != nil {
				f.annotated[named.Obj().Pkg().Path()+"."+named.Obj().Name()] = true
			}
		}
	}
}

// fieldGuardName extracts the guard name from a field's doc or
// trailing comment, or "".
func fieldGuardName(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByPattern.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// structHasMutexField reports whether the literal struct declares a
// field with the given name whose type is sync.Mutex or sync.RWMutex.
func structHasMutexField(info *types.Info, st *ast.StructType, name string) bool {
	for _, field := range st.Fields.List {
		for _, id := range field.Names {
			if id.Name != name {
				continue
			}
			v, ok := info.Defs[id].(*types.Var)
			return ok && isMutexType(v.Type())
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

func (f *lockFacts) collectContract(pkg *Package, fd *ast.FuncDecl) {
	if fd.Doc == nil {
		return
	}
	m := requiresPattern.FindStringSubmatch(fd.Doc.Text())
	if m == nil {
		return
	}
	name := m[1]
	if name == "" {
		name = m[2]
	}
	name = strings.TrimRight(name, ".")
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	c := resolveContract(fn, name)
	if c == nil {
		f.problems = append(f.problems, factProblem{fd.Pos(),
			"lock contract \"" + name + "\" on " + fd.Name.Name + " does not resolve to a mutex field of its receiver or a parameter"})
		return
	}
	f.contracts[fn] = c
}

// resolveContract maps a contract name ("mu", "j.mu", "r.st.mu") to
// the receiver or parameter it roots in, validating that the field
// path ends at a mutex. A bare "mu" means receiver.mu.
func resolveContract(fn *types.Func, name string) *lockContract {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	parts := strings.Split(name, ".")
	rootName, path := parts[0], parts[1:]
	if len(path) == 0 {
		// Bare mutex name: the lock is receiver.<name>.
		rootName, path = "", parts
	}
	var root *types.Var
	if recv := sig.Recv(); recv != nil && (rootName == "" || recv.Name() == rootName) {
		root = recv
	}
	if root == nil {
		for i := 0; i < sig.Params().Len(); i++ {
			if p := sig.Params().At(i); p.Name() == rootName {
				root = p
				break
			}
		}
	}
	if root == nil || !mutexPathValid(root.Type(), path) {
		return nil
	}
	return &lockContract{root: root, path: path}
}

// mutexPathValid walks a field path from t and reports whether it ends
// at a sync mutex.
func mutexPathValid(t types.Type, path []string) bool {
	for i, hop := range path {
		st, ok := derefStruct(t)
		if !ok {
			return false
		}
		var next types.Type
		for j := 0; j < st.NumFields(); j++ {
			if st.Field(j).Name() == hop {
				next = st.Field(j).Type()
				break
			}
		}
		if next == nil {
			return false
		}
		if i == len(path)-1 {
			return isMutexType(next)
		}
		t = next
	}
	return false
}

func derefStruct(t types.Type) (*types.Struct, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// namedOf returns the named type behind t (through one pointer), or
// nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// lockID is the instance-collapsed identity of a lock, used by the
// lock-order graph: "pkg/path.Type.mu" for struct mutexes,
// "pkg/path.var" for package-level ones.
type lockID string

// lockIdentity computes the identity of the mutex named by the owner
// expression of a Lock/Unlock call (the sel.X of "s.mu.Lock()").
func lockIdentity(pkg *Package, e ast.Expr) lockID {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.SelectorExpr:
		v, _ := pkg.Info.Uses[e.Sel].(*types.Var)
		if v == nil {
			break
		}
		if !v.IsField() {
			// Package-qualified mutex variable (pkg.Mu).
			if v.Pkg() != nil {
				return lockID(v.Pkg().Path() + "." + v.Name())
			}
			break
		}
		base := ast.Unparen(e.X)
		owner := namedOf(pkg.Info.Types[base].Type)
		if owner == nil || owner.Obj().Pkg() == nil {
			break
		}
		return lockID(owner.Obj().Pkg().Path() + "." + owner.Obj().Name() + "." + v.Name())
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[e].(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return lockID(v.Pkg().Path() + "." + v.Name())
			}
			// Function-local mutex: collapse per package; a local lock
			// cannot order against anything beyond the functions that
			// can see it, so this stays sound for cycle detection.
			return lockID(v.Pkg().Path() + ".(local)." + v.Name())
		}
	}
	return lockID(pkg.Path + ".(expr)." + types.ExprString(e))
}

// contractKey renders a contract's lock as a held-set key rooted at
// the given base expression text ("j" + ["mu"] -> "j.mu").
func contractKey(base string, path []string) string {
	return base + "." + strings.Join(path, ".")
}

// contractLockID computes the lock identity of a contract's mutex by
// walking the declared field path, as lockIdentity names it.
func contractLockID(pkg *Package, c *lockContract) lockID {
	t := c.root.Type()
	for i, hop := range c.path {
		owner := namedOf(t)
		if owner == nil {
			break
		}
		st, ok := derefStruct(t)
		if !ok {
			break
		}
		var next types.Type
		for j := 0; j < st.NumFields(); j++ {
			if st.Field(j).Name() == hop {
				next = st.Field(j).Type()
				break
			}
		}
		if next == nil {
			break
		}
		if i == len(c.path)-1 {
			if owner.Obj().Pkg() == nil {
				break
			}
			return lockID(owner.Obj().Pkg().Path() + "." + owner.Obj().Name() + "." + hop)
		}
		t = next
	}
	return lockID(pkg.Path + ".(contract)." + contractKey(c.root.Name(), c.path))
}

// heldLock is one provably held lock in the walker's state.
type heldLock struct {
	id   lockID
	read bool // held via RLock only
}

// lockState maps held-set keys (owner expression text, "s.mu") to the
// lock held under that key.
type lockState map[string]heldLock

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// setTo replaces s's contents with src.
func (s lockState) setTo(src lockState) {
	for k := range s {
		delete(s, k)
	}
	for k, v := range src {
		s[k] = v
	}
}

// intersect keeps only locks held in every state; an RLock-only hold
// in any branch demotes the join to read.
func intersectStates(states []lockState) lockState {
	if len(states) == 0 {
		return lockState{}
	}
	out := states[0].clone()
	for _, s := range states[1:] {
		for k, v := range out {
			o, ok := s[k]
			if !ok {
				delete(out, k)
				continue
			}
			if o.read {
				v.read = true
				out[k] = v
			}
		}
	}
	return out
}

// lockWalker runs the lock-set dataflow over one function body,
// invoking callbacks at the events the two analyzers care about. Any
// callback may be nil.
type lockWalker struct {
	facts *lockFacts
	pkg   *Package

	// onAcquire fires when a Lock/RLock executes, with the set held
	// just before the acquisition.
	onAcquire func(key string, lock heldLock, pos token.Pos, held lockState)
	// onAccess fires on every guarded-field access; requiredKey is the
	// held-set key that must be present ("s.mu").
	onAccess func(field *types.Var, g *guardedField, requiredKey string, write bool, pos token.Pos, held lockState)
	// onContractCall fires on a call to a contract-annotated function;
	// requiredKey is resolved against the call's receiver/argument, or
	// "" when the root expression cannot be rendered.
	onContractCall func(callee *types.Func, requiredKey string, pos token.Pos, held lockState)
	// onCall fires on every other module-local static call.
	onCall func(callee *types.Func, pos token.Pos, held lockState)

	// detached counts how deep the walker currently is inside function
	// literals that do not run at their declaration site (go, defer,
	// stored closures). Lock acquisitions inside them are real events,
	// but they must not join the declaring function's summary.
	detached int
}

// walkFunc analyses one declared function: the entry state comes from
// its lock contract (if any), and every function literal that is not
// invoked on the spot is analysed with an empty held set, because it
// may run on any goroutine at any time.
func (w *lockWalker) walkFunc(fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	held := lockState{}
	if fn, ok := w.pkg.Info.Defs[fd.Name].(*types.Func); ok {
		if c := w.facts.contracts[fn]; c != nil {
			key := contractKey(c.root.Name(), c.path)
			held[key] = heldLock{id: contractLockID(w.pkg, c)}
		}
	}
	w.block(fd.Body, held)
}

// block walks statements sequentially; it reports whether control
// provably does not flow past the block's end.
func (w *lockWalker) block(b *ast.BlockStmt, held lockState) bool {
	if b == nil {
		return false
	}
	for _, s := range b.List {
		if w.stmt(s, held) {
			return true
		}
	}
	return false
}

func (w *lockWalker) stmt(s ast.Stmt, held lockState) bool {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		return w.block(s, held)
	case *ast.ExprStmt:
		w.expr(s.X, held)
		return isTerminalCall(w.pkg.Info, s.X)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, held)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave the current flow; joining them into
		// the fallthrough state would be unsound (see Close's
		// unlock-then-return-early pattern).
		return true
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r, held)
		}
		for _, l := range s.Lhs {
			w.writeTarget(l, held)
		}
		return false
	case *ast.IncDecStmt:
		w.writeTarget(s.X, held)
		return false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, held)
					}
				}
			}
		}
		return false
	case *ast.SendStmt:
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
		return false
	case *ast.IfStmt:
		w.stmt(s.Init, held)
		w.expr(s.Cond, held)
		thenSt := held.clone()
		thenTerm := w.block(s.Body, thenSt)
		elseSt := held.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.stmt(s.Else, elseSt)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			held.setTo(elseSt)
		case elseTerm:
			held.setTo(thenSt)
		default:
			held.setTo(intersectStates([]lockState{thenSt, elseSt}))
		}
		return false
	case *ast.ForStmt:
		w.stmt(s.Init, held)
		if s.Cond != nil {
			w.expr(s.Cond, held)
		}
		body := held.clone()
		term := w.block(s.Body, body)
		w.stmt(s.Post, body)
		if !term {
			held.setTo(intersectStates([]lockState{held, body}))
		}
		return false
	case *ast.RangeStmt:
		w.expr(s.X, held)
		w.writeTarget(s.Key, held)
		w.writeTarget(s.Value, held)
		body := held.clone()
		if !w.block(s.Body, body) {
			held.setTo(intersectStates([]lockState{held, body}))
		}
		return false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		return w.switchStmt(s, held)
	case *ast.SelectStmt:
		var outs []lockState
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			cs := held.clone()
			w.stmt(cc.Comm, cs)
			term := false
			for _, b := range cc.Body {
				if w.stmt(b, cs) {
					term = true
					break
				}
			}
			if !term {
				outs = append(outs, cs)
			}
		}
		if len(s.Body.List) > 0 && len(outs) == 0 {
			return true
		}
		if len(outs) > 0 {
			held.setTo(intersectStates(outs))
		}
		return false
	case *ast.GoStmt:
		// The goroutine runs with no lock inherited from the spawner.
		w.detachedCall(s.Call, held)
		return false
	case *ast.DeferStmt:
		// A deferred unlock releases at return, not here: walking past
		// it with the lock still held is exactly right. Other deferred
		// work runs at an unknowable lock state; analyse it detached.
		if f := calleeFunc(w.pkg.Info, s.Call); f != nil && isMutexMethod(f) && mutexReleaseNames[f.Name()] {
			return false
		}
		w.detachedCall(s.Call, held)
		return false
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	}
	return false
}

// switchStmt joins all case bodies by intersection; without a default
// clause the entry state joins too (no case may match... a value
// switch always runs some path, but a case-less or sparse switch can
// fall through untouched).
func (w *lockWalker) switchStmt(s ast.Stmt, held lockState) bool {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		w.stmt(s.Init, held)
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, held)
		w.stmt(s.Assign, held)
		body = s.Body
	}
	var outs []lockState
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		cs := held.clone()
		for _, e := range cc.List {
			w.expr(e, cs)
		}
		term := false
		for _, b := range cc.Body {
			if w.stmt(b, cs) {
				term = true
				break
			}
		}
		if !term {
			outs = append(outs, cs)
		}
	}
	if !hasDefault {
		outs = append(outs, held.clone())
	}
	if len(outs) == 0 {
		return true
	}
	held.setTo(intersectStates(outs))
	return false
}

// writeTarget processes an assignment target: a guarded selector is a
// write; writing through an index or dereference requires the lock on
// the container it reads.
func (w *lockWalker) writeTarget(e ast.Expr, held lockState) {
	switch e := ast.Unparen(e).(type) {
	case nil:
	case *ast.SelectorExpr:
		w.access(e, true, held)
		w.expr(e.X, held)
	case *ast.IndexExpr:
		// m[k] = v mutates the container: the container read itself
		// needs write-level protection.
		if sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok {
			w.access(sel, true, held)
			w.expr(sel.X, held)
		} else if e.X != nil {
			w.expr(e.X, held)
		}
		w.expr(e.Index, held)
	case *ast.StarExpr:
		w.expr(e.X, held)
	case *ast.Ident:
	default:
		if e != nil {
			w.expr(e, held)
		}
	}
}

// expr walks an expression in evaluation order, processing lock
// operations, guarded reads and calls.
func (w *lockWalker) expr(e ast.Expr, held lockState) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(e, held)
	case *ast.SelectorExpr:
		w.access(e, false, held)
		w.expr(e.X, held)
	case *ast.FuncLit:
		// Not invoked here: it may run later, on any goroutine, so it
		// proves nothing from the current held set.
		w.detachedLit(e)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok {
				// Taking a guarded field's address hands out unchecked
				// access: require write-level protection at the site.
				w.access(sel, true, held)
				w.expr(sel.X, held)
				return
			}
		}
		w.expr(e.X, held)
	case *ast.BinaryExpr:
		w.expr(e.X, held)
		w.expr(e.Y, held)
	case *ast.ParenExpr:
		w.expr(e.X, held)
	case *ast.StarExpr:
		w.expr(e.X, held)
	case *ast.IndexExpr:
		w.expr(e.X, held)
		w.expr(e.Index, held)
	case *ast.IndexListExpr:
		w.expr(e.X, held)
	case *ast.SliceExpr:
		w.expr(e.X, held)
		w.expr(e.Low, held)
		w.expr(e.High, held)
		w.expr(e.Max, held)
	case *ast.TypeAssertExpr:
		w.expr(e.X, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				// Struct-literal keys are field names, not reads.
				if _, isIdent := kv.Key.(*ast.Ident); !isIdent {
					w.expr(kv.Key, held)
				}
				w.expr(kv.Value, held)
				continue
			}
			w.expr(el, held)
		}
	case *ast.KeyValueExpr:
		w.expr(e.Key, held)
		w.expr(e.Value, held)
	}
}

// access checks one selector against the guarded-field annotations.
func (w *lockWalker) access(sel *ast.SelectorExpr, write bool, held lockState) {
	if w.onAccess == nil {
		return
	}
	v := fieldVarOf(w.pkg.Info, sel)
	if v == nil {
		return
	}
	g := w.facts.guarded[v]
	if g == nil {
		return
	}
	key := types.ExprString(ast.Unparen(sel.X)) + "." + g.guard
	w.onAccess(v, g, key, write, sel.Sel.Pos(), held)
}

// fieldVarOf resolves a selector to the struct field it reads, or nil.
func fieldVarOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
		return nil
	}
	if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

func isMutexMethod(f *types.Func) bool {
	return mutexMethodNames[f.Name()] && f.Pkg() != nil && f.Pkg().Path() == "sync" &&
		strings.HasPrefix(f.FullName(), "(*sync.")
}

func (w *lockWalker) call(call *ast.CallExpr, held lockState) {
	for _, a := range call.Args {
		w.expr(a, held)
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately invoked: runs right here, under the current locks.
		w.block(lit.Body, held)
		return
	}
	f := calleeFunc(w.pkg.Info, call)
	if f == nil {
		w.expr(call.Fun, held)
		return
	}
	if isMutexMethod(f) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		key := types.ExprString(ast.Unparen(sel.X))
		switch f.Name() {
		case "Lock", "RLock":
			lock := heldLock{id: lockIdentity(w.pkg, sel.X), read: mutexAcquireRead[f.Name()]}
			if w.onAcquire != nil {
				w.onAcquire(key, lock, call.Pos(), held)
			}
			held[key] = lock
		case "Unlock", "RUnlock":
			delete(held, key)
		}
		return
	}
	// The receiver chain of a method call still reads fields
	// (j.waitSpan.End() reads j.waitSpan).
	w.expr(call.Fun, held)
	if c := w.facts.contracts[f]; c != nil {
		key := w.callContractKey(call, f, c)
		if w.onContractCall != nil {
			w.onContractCall(f, key, call.Pos(), held)
		}
	}
	if w.onCall != nil && w.moduleLocal(f) {
		w.onCall(f, call.Pos(), held)
	}
}

// callContractKey resolves a contract's lock against the shape of one
// call: the receiver expression for method contracts, the matching
// argument for parameter contracts.
func (w *lockWalker) callContractKey(call *ast.CallExpr, f *types.Func, c *lockContract) string {
	sig := f.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil && c.root == recv {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return contractKey(types.ExprString(ast.Unparen(sel.X)), c.path)
		}
		return ""
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == c.root {
			if i < len(call.Args) {
				return contractKey(types.ExprString(ast.Unparen(call.Args[i])), c.path)
			}
			return ""
		}
	}
	return ""
}

func (w *lockWalker) moduleLocal(f *types.Func) bool {
	return f.Pkg() != nil && (f.Pkg().Path() == w.facts.prog.ModulePath ||
		strings.HasPrefix(f.Pkg().Path(), w.facts.prog.ModulePath+"/"))
}

// detachedCall analyses a go/defer call: arguments evaluate now under
// the current locks, but the body runs at an unknowable lock state.
func (w *lockWalker) detachedCall(call *ast.CallExpr, held lockState) {
	for _, a := range call.Args {
		w.expr(a, held)
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.detachedLit(lit)
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.expr(sel.X, held)
	}
}

// detachedLit analyses a function literal with an empty held set.
func (w *lockWalker) detachedLit(lit *ast.FuncLit) {
	w.detached++
	w.block(lit.Body, lockState{})
	w.detached--
}

// isTerminalCall reports whether the expression statement provably
// stops control flow (panic, os.Exit, log.Fatal*, runtime.Goexit).
func isTerminalCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	}
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil {
		return false
	}
	switch f.Pkg().Path() {
	case "os":
		return f.Name() == "Exit"
	case "log":
		return strings.HasPrefix(f.Name(), "Fatal")
	case "runtime":
		return f.Name() == "Goexit"
	}
	return false
}
