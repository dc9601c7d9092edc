package staticlint

import (
	"go/ast"
	"go/types"
)

// runDeadcode reports every module function the static call graph does
// not reach from a root: a main or init, a function a package-level
// initialiser names (a blank `var _ = f` is no use), the root package's
// exported functions and its aliased types' exported methods, a method
// an interface names (the graph has no dynamic-dispatch edges), or a
// determinism root.
func runDeadcode(pass *Pass) {
	prog := pass.Prog
	g := buildCallGraph(prog)
	reached := map[*funcNode]bool{}
	var queue []*funcNode
	mark := func(fn *types.Func) {
		if node := g.nodes[fn]; node != nil && !reached[node] {
			reached[node] = true
			queue = append(queue, node)
		}
	}
	ifaceNames := interfaceMethodNames(prog)
	var decls []*funcNode
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					ast.Inspect(gd, func(n ast.Node) bool {
						if vs, ok := n.(*ast.ValueSpec); ok && len(vs.Names) == 1 && vs.Names[0].Name == "_" {
							return false
						}
						if id, ok := n.(*ast.Ident); ok {
							fn, _ := pkg.Info.Uses[id].(*types.Func)
							mark(fn)
						}
						return true
					})
					continue
				}
				fn, _ := pkg.Info.Defs[decl.(*ast.FuncDecl).Name].(*types.Func)
				node := g.nodes[fn]
				if node == nil {
					continue
				}
				decls = append(decls, node)
				isMethod := fn.Type().(*types.Signature).Recv() != nil
				if isMethod && ifaceNames[fn.Name()] || !isMethod && (fn.Name() == "init" ||
					fn.Name() == "main" && pkg.Types.Name() == "main" || pkg.Path == prog.ModulePath && fn.Exported()) {
					mark(fn)
				}
			}
		}
	}
	if root := prog.byPath[prog.ModulePath]; root != nil {
		for _, name := range root.Types.Scope().Names() {
			if tn, ok := root.Types.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				mset := types.NewMethodSet(types.NewPointer(types.Unalias(tn.Type())))
				for i := 0; i < mset.Len(); i++ {
					if fn := mset.At(i).Obj().(*types.Func); fn.Exported() {
						mark(fn)
					}
				}
			}
		}
	}
	for _, pattern := range pass.Config.DetRoots {
		for _, node := range g.rootsMatching(pattern) {
			mark(node.fn)
		}
	}
	for i := 0; i < len(queue); i++ {
		for _, callee := range queue[i].callees {
			mark(callee.fn)
		}
	}
	for _, node := range decls {
		if !reached[node] {
			pass.Reportf(node.decl.Name.Pos(), "%s is unreachable from every root (main, init, package-level initialiser, root-package API, interface method, determinism root): delete it, or keep it with //lint:allow deadcode <why>",
				g.shortName(node.fn))
		}
	}
}

// interfaceMethodNames collects the method names of every interface in
// the program, literal ones included, or in a package it imports.
func interfaceMethodNames(prog *Program) map[string]bool {
	names := map[string]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if !seen[p] {
			seen[p] = true
			for _, name := range p.Scope().Names() {
				add(p.Scope().Lookup(name).Type())
			}
			for _, imp := range p.Imports() {
				visit(imp)
			}
		}
	}
	for _, pkg := range prog.Packages {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return names
}
