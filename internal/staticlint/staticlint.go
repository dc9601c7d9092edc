package staticlint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned in module-relative terms so
// reports are byte-identical regardless of where the checkout lives.
type Diagnostic struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Analyzer is one named rule set run over the whole program.
type Analyzer struct {
	// Name is the rule name diagnostics carry and //lint:allow refers to.
	Name string
	// Doc is a one-line description (shown by `staticgate -list`).
	Doc string
	// Run reports findings through the pass.
	Run func(*Pass)
}

// Pass is what an analyzer sees: the loaded program, the engine
// configuration, and a reporting sink that stamps the rule name on.
type Pass struct {
	Prog   *Program
	Config Config

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	p.report(p.Prog.FileName(pos), position.Line, position.Column, fmt.Sprintf(format, args...))
}

// reportFile records a diagnostic about a whole file that has no
// syntax tree (one of Program.OtherFiles), anchored at 1:1.
func (p *Pass) reportFile(name, msg string) {
	p.report(name, 1, 1, msg)
}

func (p *Pass) report(file string, line, col int, msg string) {
	*p.diags = append(*p.diags, Diagnostic{Rule: p.analyzer.Name, File: file, Line: line, Col: col, Message: msg})
}

// InScope reports whether a module-relative package path falls under
// any of the given prefixes. A prefix matches the package itself and
// everything below it ("internal/cost" matches "internal/cost" and
// "internal/cost/deep"); a trailing slash matches strictly below
// ("cmd/" matches every command but not a package literally named cmd).
func InScope(rel string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasSuffix(p, "/") {
			if strings.HasPrefix(rel, p) {
				return true
			}
			continue
		}
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// Config carries the analyzer scopes, expressed as module-relative
// path prefixes (see InScope), plus the determinism proof set.
type Config struct {
	// DetRoots are the determinism roots: every function matching one
	// of these patterns must be transitively free of wall-clock reads,
	// global math/rand state and order-dependent map iteration.
	// Patterns are "pkg/path.Func" or "pkg/path.Recv.Method"
	// (pointer receivers written without the star); a trailing *
	// globs over function names.
	DetRoots []string
	// WalltimeAllowed lists where time.Now/time.Since are legitimate.
	WalltimeAllowed []string
	// RandAllowed lists where math/rand may be referenced.
	RandAllowed []string
	// ErrcheckScope is where dropped errors are violations.
	ErrcheckScope []string
	// FloatCmpScope is where float ==/!= is a violation.
	FloatCmpScope []string
	// CtxScope is where goroutine-spawning functions must have a
	// context.Context in scope.
	CtxScope []string
	// CtxBackgroundAllowed is where context.Background/TODO may be
	// minted.
	CtxBackgroundAllowed []string
	// MapRangeScope is where encoder/append-feeding map ranges are
	// checked.
	MapRangeScope []string
	// ObsPath is the module-relative path of the observability package
	// whose name constants the obsnames rule enforces.
	ObsPath string
	// ObsLiteralScope is where raw string literals duplicating an obs
	// name constant's value are violations (the obsliteral rule).
	ObsLiteralScope []string
	// LockGuarded registers the structs ("pkg/path.Type") whose shared
	// state must carry `guarded by <mu>` field annotations; lockguard
	// fails if a registered struct exists without any. Annotated fields
	// anywhere in the module are checked regardless of this registry.
	LockGuarded []string
	// GoLeakScope is where every go statement must have a provable
	// termination path (the goleak rule).
	GoLeakScope []string
}

// Result is a finished engine run.
type Result struct {
	Module string `json:"module"`
	// Diagnostics is sorted by file, line, column, rule, message and
	// has suppressed findings removed.
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Suppressed counts findings silenced by //lint:allow.
	Suppressed int `json:"suppressed"`
}

// Run executes the analyzers over prog and returns the sorted,
// suppression-filtered result. Malformed suppression comments are
// themselves diagnostics (rule "lint"), so a reason can never be
// silently omitted.
func Run(prog *Program, cfg Config, analyzers []*Analyzer) *Result {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Prog: prog, Config: cfg, analyzer: a, diags: &diags}
		a.Run(pass)
	}
	sup, diags := collectSuppressions(prog, diags)
	kept := diags[:0]
	suppressed := 0
	for _, d := range diags {
		if sup.allows(d) {
			suppressed++
			continue
		}
		kept = append(kept, d)
	}
	sortDiagnostics(kept)
	return &Result{Module: prog.ModulePath, Diagnostics: kept, Suppressed: suppressed}
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// suppressions maps file -> line -> rules allowed there.
type suppressions map[string]map[int]map[string]bool

// allows reports whether d is covered by a //lint:allow on its own
// line or the line directly above it.
func (s suppressions) allows(d Diagnostic) bool {
	lines := s[d.File]
	if lines == nil {
		return false
	}
	return lines[d.Line][d.Rule] || lines[d.Line-1][d.Rule]
}

var allowPattern = regexp.MustCompile(`^//\s*lint:allow\s*(.*)$`)

// collectSuppressions scans every comment of every file in
// Program.Files for //lint:allow markers.
// A marker must name a rule and give a reason; a bare marker is a
// "lint" diagnostic appended to diags.
func collectSuppressions(prog *Program, diags []Diagnostic) (suppressions, []Diagnostic) {
	sup := suppressions{}
	for _, file := range prog.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := allowPattern.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				fields := strings.Fields(m[1])
				if len(fields) < 2 {
					diags = append(diags, Diagnostic{
						Rule: "lint", File: prog.FileName(c.Pos()),
						Line: pos.Line, Col: pos.Column,
						Message: "//lint:allow needs a rule name and a reason (//lint:allow <rule> <why>)",
					})
					continue
				}
				name := prog.FileName(c.Pos())
				if sup[name] == nil {
					sup[name] = map[int]map[string]bool{}
				}
				if sup[name][pos.Line] == nil {
					sup[name][pos.Line] = map[string]bool{}
				}
				sup[name][pos.Line][fields[0]] = true
			}
		}
	}
	return sup, diags
}

// RenderText formats the result the way compilers do, one finding per
// line, ending with a count. The output is byte-stable.
func RenderText(r *Result) string {
	var b strings.Builder
	for _, d := range r.Diagnostics {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "staticgate: %d finding(s), %d suppressed\n", len(r.Diagnostics), r.Suppressed)
	return b.String()
}

// EncodeJSON renders the result as indented, byte-stable JSON (the
// diagnostics are already sorted; struct field order does the rest).
func EncodeJSON(r *Result) ([]byte, error) {
	out := struct {
		Version int `json:"version"`
		*Result
	}{Version: 1, Result: r}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
