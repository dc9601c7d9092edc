package staticlint

import (
	"go/ast"
	"go/token"
	"path"
	"regexp"
	"strconv"
	"strings"
)

// The file-level rules need no type information, so they read
// Program.Files and Program.OtherFiles: every file in the tree,
// including the test files, tag-excluded files and _-prefixed
// directories the type checker never sees.

// --- nounsafe -------------------------------------------------------

func runNoUnsafe(pass *Pass) {
	for _, file := range pass.Prog.Files {
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "unsafe" {
				pass.Reportf(imp.Pos(), "unsafe is not used in this codebase")
			}
		}
	}
}

// --- skipref --------------------------------------------------------

// skipRefPattern matches an issue reference ("#123") or a URL inside a
// skip message.
var skipRefPattern = regexp.MustCompile(`#\d+|://`)

// runSkipRef requires every t.Skip in a test file to carry a linked
// issue reference: an unreferenced skip is how a disabled test quietly
// becomes a permanently disabled test. Only calls on a plain
// identifier (t, b, f) are in scope; a Skip method reached through a
// field or a call result is not a testing.TB skip.
func runSkipRef(pass *Pass) {
	for _, file := range pass.Prog.Files {
		if !strings.HasSuffix(pass.Prog.FileName(file.Pos()), "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if name != "Skip" && name != "Skipf" && name != "SkipNow" {
				return true
			}
			if _, ok := sel.X.(*ast.Ident); !ok || skipCallHasReference(call) {
				return true
			}
			pass.Reportf(call.Pos(), "%s without a linked issue reference (put \"#123\" or a URL in the skip message so the skip stays tracked)", name)
			return true
		})
	}
}

// skipCallHasReference reports whether any string literal in the skip
// call's arguments carries an issue reference or URL. SkipNow takes no
// arguments, so it can never pass; use Skip with a message instead.
func skipCallHasReference(call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && skipRefPattern.MatchString(s) {
					found = true
				}
			}
			return !found
		})
	}
	return found
}

// --- strayfile ------------------------------------------------------

// runStrayFile flags extensionless files under cmd/. Command
// directories hold Go sources and docs, so a bare file there is almost
// always an accidental `> x` or a built binary that would ship into
// every checkout.
func runStrayFile(pass *Pass) {
	for _, name := range pass.Prog.OtherFiles {
		if strings.HasPrefix(name, "cmd/") && !strings.Contains(path.Base(name), ".") {
			pass.reportFile(name, "extensionless file under cmd/ (stray artifact? delete it or give it a real extension)")
		}
	}
}
