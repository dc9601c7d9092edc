package staticlint_test

import (
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"gpuport/internal/staticlint"
)

func TestLoadFixtureShape(t *testing.T) {
	prog := loadFixture(t)
	if prog.ModulePath != "fixture" {
		t.Fatalf("module path = %q, want fixture", prog.ModulePath)
	}
	paths := map[string]string{}
	for _, pkg := range prog.Packages {
		paths[pkg.Rel] = pkg.Path
	}
	if paths[""] != "fixture" || paths["internal/det"] != "fixture/internal/det" {
		t.Errorf("root and det paths = %q, %q", paths[""], paths["internal/det"])
	}
	// Packages are sorted by import path for deterministic walks.
	for i := 1; i < len(prog.Packages); i++ {
		if prog.Packages[i-1].Path >= prog.Packages[i].Path {
			t.Fatalf("packages out of order: %s before %s", prog.Packages[i-1].Path, prog.Packages[i].Path)
		}
	}
}

// TestBuildTagExclusion: the loader type-checks only the files a plain
// `go build` compiles. The conformmutate-tagged file (its planted error
// drop would otherwise fire), a foreign-GOOS file and a _-prefixed file
// stay out of the package, but are still parsed for the file-level
// rules.
func TestBuildTagExclusion(t *testing.T) {
	prog := loadFixture(t)
	parsed, checked := map[string]bool{}, map[string]bool{}
	for _, f := range prog.Files {
		parsed[prog.FileName(f.Package)] = true
	}
	for _, pkg := range prog.Packages {
		for _, name := range pkg.FileNames {
			checked[name] = true
		}
	}
	if !checked["internal/errs/errs.go"] {
		t.Fatal("internal/errs/errs.go was not type-checked")
	}
	for _, name := range []string{"internal/errs/mutate.go", "internal/errs/errs_plan9.go", "internal/errs/_draft.go"} {
		if !parsed[name] {
			t.Errorf("%s is not in Program.Files", name)
		}
		if checked[name] {
			t.Errorf("%s was type-checked, but go build skips it", name)
		}
	}
}

func TestFuncDisplayName(t *testing.T) {
	prog := loadFixture(t)
	want := map[string]string{
		"Inc":   "fixture/internal/mu.Counter.Inc",
		"Clone": "fixture/internal/mu.Clone",
	}
	found := 0
	for _, pkg := range prog.Packages {
		if pkg.Rel != "internal/mu" {
			continue
		}
		for _, obj := range pkg.Info.Defs {
			f, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if w, ok := want[f.Name()]; ok {
				found++
				if got := staticlint.FuncDisplayName(f); got != w {
					t.Errorf("FuncDisplayName(%s) = %q, want %q", f.Name(), got, w)
				}
			}
		}
	}
	if found != len(want) {
		t.Fatalf("found %d of %d functions in internal/mu", found, len(want))
	}
}

// TestLoadErrors drives every refusal path of the loader.
func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name, root, want string
	}{
		{"missing root", filepath.Join("testdata", "src", "nothere"), "go.mod"},
		{"no module line", filepath.Join("testdata", "src", "emptymod"), "no module line"},
		{"cgo", filepath.Join("testdata", "src", "badcgo"), "cgo is not supported"},
		{"type error", filepath.Join("testdata", "src", "badtypes"), "type-checking"},
		{"parse error", filepath.Join("testdata", "src", "badparse"), "expected"},
		{"parse error in a parse-only file", filepath.Join("testdata", "src", "badtestparse"), "p_test.go"},
		{"import cycle", filepath.Join("testdata", "src", "cycle"), "import cycle"},
		{"missing local import", filepath.Join("testdata", "src", "badimport"), "badimport/internal/nothere"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := staticlint.Load(c.root)
			if err == nil {
				t.Fatalf("Load(%s) succeeded, want error containing %q", c.root, c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("Load(%s) error = %v, want substring %q", c.root, err, c.want)
			}
		})
	}
}
