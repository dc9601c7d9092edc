// Package staticlint is the repo's whole-program static analysis
// engine: a module-aware source loader built on go/parser and
// go/types (go/build picks the files, as for `go build`), a small
// analyzer framework (positioned diagnostics, //lint:allow as the only
// exception mechanism, byte-stable JSON and text output), and the
// repo-specific analyzers that prove the determinism invariants the
// trace cache, conformance engine and canonical observability exports
// depend on.
//
// Everything here is standard library only. Imports inside the
// analysed module are resolved from source relative to the module
// root; standard-library imports are type-checked from GOROOT source
// via go/importer's "source" compiler, so the engine never fetches
// anything over the network and CI needs no tool downloads.
package staticlint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one type-checked package of the analysed module.
type Package struct {
	// Path is the full import path ("gpuport/internal/cost").
	Path string
	// Rel is the module-relative path ("internal/cost", "" for the
	// module root package). Analyzer scopes are expressed against it.
	Rel string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Files are the parsed, build-tag-selected, non-test files.
	Files []*ast.File
	// FileNames[i] is the module-relative slash path of Files[i].
	FileNames []string
	// Types and Info carry the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// Program is the loaded whole program: every package of the module
// under one shared FileSet, fully type-checked.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	Root       string
	// Packages is sorted by import path, so every per-package walk in
	// the engine is deterministic.
	Packages []*Package
	// Files is every .go file under the root outside testdata/ and
	// dot-directories, sorted by path: the package files above plus,
	// parsed but not type-checked, the _test.go files, the files a
	// build tag excludes and the files under _-prefixed directories.
	// The file-level rules read this; the typed analyzers read
	// Packages.
	Files []*ast.File
	// OtherFiles holds the module-relative slash paths, sorted, of the
	// non-.go files in the same walk.
	OtherFiles []string

	byPath map[string]*Package
}

// FileName returns the module-relative slash path of the file
// containing pos, falling back to the FileSet's name for positions
// outside the module (standard library).
func (p *Program) FileName(pos token.Pos) string {
	name := p.Fset.Position(pos).Filename
	if rel, err := filepath.Rel(p.Root, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(name)
}

// loader resolves imports for one Load call: module-local paths are
// served from the already-type-checked package map, everything else is
// delegated to the GOROOT source importer. It is shared by the
// concurrent type-check workers, so both the package map and the
// source importer (which memoises internally without locking) are
// mutex-guarded.
type loader struct {
	fset   *token.FileSet
	root   string
	module string

	mu   sync.Mutex // guarded by mu: pkgs
	pkgs map[string]*Package

	stdMu sync.Mutex // serialises std, which is not safe for concurrent use
	std   types.Importer
}

// parsedPkg is one package after the parse phase: files read,
// build-tag-selected and parsed, but not yet type-checked. localDeps
// lists its module-local imports, which drive type-check scheduling.
type parsedPkg struct {
	pkg       *Package
	localDeps []string
}

// Load parses and type-checks every non-test package under root,
// which must contain a go.mod naming the module. Directories named
// testdata, hidden directories and _-prefixed directories are skipped,
// matching the go tool. Every other .go file outside testdata/ and
// hidden directories is parsed without type-checking (see
// Program.Files).
//
// Loading is parallel in two phases - every package parses
// concurrently, then type-checking proceeds in dependency waves with
// up to GOMAXPROCS packages checked at once - but the result and every
// error are independent of scheduling: packages stay sorted by import
// path and the first error in path order wins.
func Load(root string) (*Program, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modulePath, err := readModulePath(filepath.Join(absRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	tree, err := walkTree(absRoot)
	if err != nil {
		return nil, err
	}
	parsed, err := parseAll(fset, absRoot, modulePath, tree.pkgDirs)
	if err != nil {
		return nil, err
	}
	files, err := parseRest(fset, parsed, tree.goFiles)
	if err != nil {
		return nil, err
	}
	ld := &loader{
		fset:   fset,
		root:   absRoot,
		module: modulePath,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*Package{},
	}
	if err := ld.checkAll(parsed); err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:       fset,
		ModulePath: modulePath,
		Root:       absRoot,
		Files:      files,
		OtherFiles: tree.otherFiles,
		byPath:     map[string]*Package{},
	}
	for _, pkg := range ld.pkgs {
		prog.Packages = append(prog.Packages, pkg)
		prog.byPath[pkg.Path] = pkg
	}
	sort.Slice(prog.Packages, func(i, j int) bool { return prog.Packages[i].Path < prog.Packages[j].Path })
	return prog, nil
}

// parseAll reads and parses every package directory concurrently. The
// shared FileSet synchronises internally, so parallel ParseFile calls
// are safe; position order within a file is what analyzers sort on, so
// file registration order across packages does not matter. dirs is
// sorted, and on failure the error from the smallest directory wins,
// keeping errors deterministic under any scheduling.
func parseAll(fset *token.FileSet, root, module string, dirs []string) ([]*parsedPkg, error) {
	parsed := make([]*parsedPkg, len(dirs))
	errs := make([]error, len(dirs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, dir := range dirs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, dir string) {
			defer wg.Done()
			defer func() { <-sem }()
			parsed[i], errs[i] = parsePackage(fset, root, module, dir)
		}(i, dir)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parsed, nil
}

// parsePackage parses one directory into a not-yet-type-checked
// package.
func parsePackage(fset *token.FileSet, root, module, dir string) (*parsedPkg, error) {
	rel, _ := filepath.Rel(root, dir)
	rel = filepath.ToSlash(rel)
	if rel == "." {
		rel = ""
	}
	path := module
	if rel != "" {
		path = module + "/" + rel
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("staticlint: package %s: %w", path, err)
	}
	pkg := &Package{Path: path, Rel: rel, Dir: dir}
	deps := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// The default build context, like a plain `go build`: _-prefixed
		// files, foreign GOOS/GOARCH suffixes and custom tags
		// (conformmutate) stay out.
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("staticlint: %w", err)
		}
		if !match {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("staticlint: %w", err)
		}
		pkg.Files = append(pkg.Files, file)
		relFile := name
		if rel != "" {
			relFile = rel + "/" + name
		}
		pkg.FileNames = append(pkg.FileNames, relFile)
		for _, imp := range file.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if p == module || strings.HasPrefix(p, module+"/") {
				deps[p] = true
			}
		}
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("staticlint: package %s has no buildable go files", path)
	}
	pp := &parsedPkg{pkg: pkg}
	for p := range deps {
		pp.localDeps = append(pp.localDeps, p)
	}
	sort.Strings(pp.localDeps)
	return pp, nil
}

// checkAll type-checks the parsed packages in dependency waves: each
// wave holds every package whose module-local imports are already
// checked, and its members check concurrently (capped at GOMAXPROCS).
// An empty wave with packages still pending means the module-local
// import graph has a cycle.
func (ld *loader) checkAll(parsed []*parsedPkg) error {
	known := map[string]bool{}
	for _, pp := range parsed {
		known[pp.pkg.Path] = true
	}
	pending := append([]*parsedPkg(nil), parsed...)
	sort.Slice(pending, func(i, j int) bool { return pending[i].pkg.Path < pending[j].pkg.Path })
	done := map[string]bool{}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for len(pending) > 0 {
		var wave, blocked []*parsedPkg
		for _, pp := range pending {
			ready := true
			for _, dep := range pp.localDeps {
				// Imports of unknown module-local paths stay schedulable;
				// type-checking them produces the real import error.
				if known[dep] && !done[dep] {
					ready = false
					break
				}
			}
			if ready {
				wave = append(wave, pp)
			} else {
				blocked = append(blocked, pp)
			}
		}
		if len(wave) == 0 {
			// Every pending package waits on another pending package:
			// a cycle. pending is sorted, so the reported path is
			// deterministic.
			return fmt.Errorf("staticlint: import cycle through %s", blocked[0].pkg.Path)
		}
		errs := make([]error, len(wave))
		var wg sync.WaitGroup
		for i, pp := range wave {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, pp *parsedPkg) {
				defer wg.Done()
				defer func() { <-sem }()
				errs[i] = ld.check(pp.pkg)
			}(i, pp)
		}
		wg.Wait()
		// wave is in path order, so the surviving error is the one the
		// sequential loader would have hit first.
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		for _, pp := range wave {
			done[pp.pkg.Path] = true
		}
		pending = blocked
	}
	return nil
}

// check type-checks one package whose module-local imports are all
// checked already.
func (ld *loader) check(pkg *Package) error {
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(pkg.Path, ld.fset, pkg.Files, pkg.Info)
	if err != nil {
		return fmt.Errorf("staticlint: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	ld.mu.Lock()
	ld.pkgs[pkg.Path] = pkg
	ld.mu.Unlock()
	return nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	raw, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("staticlint: cannot read %s (the analysis root must be a module root): %w", gomod, err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			if path := strings.TrimSpace(rest); path != "" {
				return strings.Trim(path, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("staticlint: no module line in %s", gomod)
}

// tree is one walk of the module, outside testdata/ and hidden
// directories. Every list is sorted.
type tree struct {
	pkgDirs    []string // absolute directories of the packages go build sees
	goFiles    []string // absolute paths of every .go file
	otherFiles []string // module-relative slash paths of the rest
}

// walkTree walks root once. Files under a _-prefixed directory are
// listed but form no package, just as the go tool ignores them.
func walkTree(root string) (*tree, error) {
	t := &tree{}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if !strings.HasSuffix(rel, ".go") {
			t.otherFiles = append(t.otherFiles, rel)
			return nil
		}
		t.goFiles = append(t.goFiles, p)
		if dir := path.Dir(rel); strings.HasSuffix(rel, "_test.go") || strings.HasPrefix(dir, "_") || strings.Contains(dir, "/_") {
			return nil
		}
		t.pkgDirs = append(t.pkgDirs, filepath.Dir(p))
		return nil
	})
	sort.Strings(t.pkgDirs)
	t.pkgDirs = slices.Compact(t.pkgDirs)
	sort.Strings(t.goFiles)
	sort.Strings(t.otherFiles)
	return t, err
}

// parseRest parses, without type-checking, every .go file the package
// parse did not take, and returns all files sorted by path. On failure
// the error from the first path in sorted order wins.
func parseRest(fset *token.FileSet, parsed []*parsedPkg, goFiles []string) ([]*ast.File, error) {
	typed := map[string]*ast.File{}
	for _, pp := range parsed {
		for _, f := range pp.pkg.Files {
			typed[fset.Position(f.Package).Filename] = f
		}
	}
	files := make([]*ast.File, 0, len(goFiles))
	for _, name := range goFiles {
		if f := typed[name]; f != nil {
			files = append(files, f)
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("staticlint: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// Import implements types.Importer. Module-local paths are served
// from the checked-package map (wave scheduling guarantees a package's
// imports check before it does); "unsafe" and the standard library go
// to the GOROOT source importer under stdMu.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "C" {
		return nil, fmt.Errorf("staticlint: cgo is not supported")
	}
	local := path == ld.module || strings.HasPrefix(path, ld.module+"/")
	if !local {
		ld.stdMu.Lock()
		defer ld.stdMu.Unlock()
		return ld.std.Import(path)
	}
	ld.mu.Lock()
	pkg := ld.pkgs[path]
	ld.mu.Unlock()
	if pkg != nil {
		return pkg.Types, nil
	}
	// Not in the parsed set: the import names a module-local directory
	// that is missing or holds no buildable files.
	rel := strings.TrimPrefix(strings.TrimPrefix(path, ld.module), "/")
	if _, err := os.ReadDir(filepath.Join(ld.root, filepath.FromSlash(rel))); err != nil {
		return nil, fmt.Errorf("staticlint: package %s: %w", path, err)
	}
	return nil, fmt.Errorf("staticlint: package %s has no buildable go files", path)
}
