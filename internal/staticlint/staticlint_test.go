package staticlint_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gpuport/internal/staticlint"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureConfig mirrors DefaultConfig's shape against the fixture
// module's layout, with the fixture's own determinism roots.
func fixtureConfig() staticlint.Config {
	return staticlint.Config{
		DetRoots: []string{
			"fixture/internal/det.Good",
			"fixture/internal/det.Bad",
			"fixture/internal/det.BadOrder",
			"fixture/internal/det.check*",
		},
		WalltimeAllowed:      []string{"internal/obs", "cmd/"},
		RandAllowed:          []string{"internal/stats"},
		ErrcheckScope:        []string{"internal/"},
		FloatCmpScope:        []string{"internal/cost"},
		CtxScope:             []string{"internal/measure"},
		CtxBackgroundAllowed: []string{"cmd/"},
		MapRangeScope:        []string{"internal/"},
		ObsPath:              "internal/obs",
		ObsLiteralScope:      []string{"internal/obsemit"},
		LockGuarded: []string{
			"fixture/internal/lockg.Box",
			"fixture/internal/lockg.RW",
			"fixture/internal/lockg.Naked",
		},
		GoLeakScope: []string{"internal/leak", "internal/measure"},
	}
}

var (
	fixtureOnce sync.Once
	fixtureProg *staticlint.Program
	fixtureErr  error
)

// loadFixture loads the fixture module once for all tests; the load
// type-checks standard-library dependencies from source and is the
// expensive part of every test here.
func loadFixture(t *testing.T) *staticlint.Program {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureProg, fixtureErr = staticlint.Load(filepath.Join("testdata", "src", "fixture"))
	})
	if fixtureErr != nil {
		t.Fatalf("loading fixture: %v", fixtureErr)
	}
	return fixtureProg
}

// TestAnalyzerFixtures runs each analyzer alone over the fixture
// module and checks it fires exactly on the planted bugs — and
// therefore stays silent on every clean twin in the same packages.
func TestAnalyzerFixtures(t *testing.T) {
	prog := loadFixture(t)
	want := map[string][]string{
		"ctxprop": {
			"internal/measure/measure.go:12", // context.Background outside cmd/
			"internal/measure/measure.go:19", // goroutines with no ctx in scope
		},
		"detpure": {
			"internal/det/det.go:22",  // float accumulation over map order
			"internal/wall/wall.go:8", // time.Now two hops from det.Bad
		},
		"errcheck": {
			"internal/errs/errs.go:15", // silent drop
			"internal/errs/errs.go:33", // bare allow does not suppress
		},
		"floatcmp":   {"internal/cost/cost.go:5"},
		"globalrand": {"internal/rnd/rnd.go:8"},
		"goleak": {
			"internal/leak/leak.go:12", // infinite loop, no exit signal
			"internal/leak/leak.go:65", // named worker with no exit path
		},
		"lockguard": {
			"internal/lockg/lockg.go:27", // write without the lock
			"internal/lockg/lockg.go:42", // contract call without the lock
			"internal/lockg/lockg.go:72", // write under RLock
			"internal/lockg/lockg.go:78", // registered struct, no annotations
		},
		"lockorder": {
			"internal/lockord/lockord.go:16", // a->b edge closing the AB/BA cycle
		},
		"maprange": {
			"internal/maprange/mr.go:26", // append without sort
			"internal/maprange/mr.go:35", // encode via Fprintf
			"internal/maprange/mr.go:63", // encode via Builder method
		},
		"mutexlock": {
			"internal/mu/mu.go:23", // Lock without Unlock (the copies at :28 and :34 are go vet's)
		},
		"nounsafe": {
			"_tools/tool.go:5",                     // _-prefixed directory, parsed only
			"internal/nounsafe/nounsafe.go:6",      // type-checked file
			"internal/nounsafe/nounsafe_test.go:5", // test file, parsed only
			"internal/nounsafe/tagged.go:5",        // build-tag-excluded file, parsed only
		},
		"obsliteral": {
			"internal/obsemit/emit.go:29", // raw literal duplicating obs.CtrHits (tag on :23 exempt)
		},
		"obsnames": {
			"internal/obsemit/emit.go:13", // literal name
			"internal/obsemit/emit.go:14", // constant from the wrong package
			"internal/obsemit/emit.go:17", // literal attr key
		},
		"skipref": {
			"internal/skips/skips_test.go:6",  // bare Skip
			"internal/skips/skips_test.go:22", // Skipf without a reference
			"internal/skips/skips_test.go:26", // SkipNow
			"internal/skips/skips_test.go:30", // b.Skip
		},
		"strayfile": {"cmd/app/stray:1"}, // NOTES.md beside it and scripts/helper pass
		"walltime":  {"internal/wall/wall.go:8"},
	}
	if len(want) != len(staticlint.Analyzers()) {
		t.Fatalf("fixture expectations cover %d analyzers, engine ships %d", len(want), len(staticlint.Analyzers()))
	}
	for name, expect := range want {
		t.Run(name, func(t *testing.T) {
			r := staticlint.Run(prog, fixtureConfig(), staticlint.AnalyzersByName([]string{name}))
			var got []string
			for _, d := range r.Diagnostics {
				if d.Rule != name {
					continue // the "lint" bare-pragma finding rides along in every run
				}
				got = append(got, fmt.Sprintf("%s:%d", d.File, d.Line))
			}
			if !reflect.DeepEqual(got, expect) {
				t.Errorf("%s diagnostics:\n got %v\nwant %v", name, got, expect)
			}
		})
	}
}

// TestDetpureChain pins the message format: the full call chain from
// the root to the taint, so a finding is actionable without re-running.
func TestDetpureChain(t *testing.T) {
	prog := loadFixture(t)
	r := staticlint.Run(prog, fixtureConfig(), staticlint.AnalyzersByName([]string{"detpure"}))
	found := false
	for _, d := range r.Diagnostics {
		if d.Rule == "detpure" && strings.Contains(d.Message, "reads the wall clock (time.Now)") {
			found = true
			const chain = "via internal/det.Bad -> internal/det.indirect -> internal/wall.Stamp"
			if !strings.Contains(d.Message, chain) {
				t.Errorf("taint message lacks the call chain %q:\n%s", chain, d.Message)
			}
		}
	}
	if !found {
		t.Fatal("no wall-clock taint reported from the det.Bad root")
	}
}

// TestDetRootUnmatched: a proof-set pattern naming no function is a
// finding, so renaming a root cannot silently shrink the proof.
func TestDetRootUnmatched(t *testing.T) {
	prog := loadFixture(t)
	cfg := fixtureConfig()
	cfg.DetRoots = []string{"fixture/internal/det.Gone"}
	r := staticlint.Run(prog, cfg, staticlint.AnalyzersByName([]string{"detpure"}))
	var msgs []string
	for _, d := range r.Diagnostics {
		if d.Rule == "detpure" {
			msgs = append(msgs, d.Message)
		}
	}
	if len(msgs) != 1 || !strings.Contains(msgs[0], "matches no function") {
		t.Fatalf("want one matches-no-function finding, got %v", msgs)
	}
}

// TestSuppressions: a well-formed //lint:allow silences its finding
// and is counted; a bare one is itself a "lint" finding.
func TestSuppressions(t *testing.T) {
	prog := loadFixture(t)
	r := staticlint.Run(prog, fixtureConfig(), staticlint.AnalyzersByName([]string{"errcheck"}))
	if r.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1 (errs.Suppressed)", r.Suppressed)
	}
	// Suppressions reach the parse-only files too.
	if sr := staticlint.Run(prog, fixtureConfig(), staticlint.AnalyzersByName([]string{"skipref"})); sr.Suppressed != 1 {
		t.Errorf("skipref suppressed = %d, want 1 (skips_test.go TestSuppressed)", sr.Suppressed)
	}
	var lint []string
	for _, d := range r.Diagnostics {
		if d.Rule == "lint" {
			lint = append(lint, fmt.Sprintf("%s:%d", d.File, d.Line))
		}
	}
	if !reflect.DeepEqual(lint, []string{"internal/errs/errs.go:32"}) {
		t.Errorf("lint findings = %v, want the bare pragma at errs.go:32", lint)
	}
}

// TestFixtureGolden runs the full analyzer set and compares the
// rendered text against the committed golden byte for byte.
func TestFixtureGolden(t *testing.T) {
	prog := loadFixture(t)
	r := staticlint.Run(prog, fixtureConfig(), staticlint.Analyzers())
	got := staticlint.RenderText(r)
	golden := filepath.Join("testdata", "fixture.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if got != string(want) {
		t.Errorf("fixture diagnostics drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestOutputStability: JSON and text renderings are byte-identical
// across repeated runs over the same program.
func TestOutputStability(t *testing.T) {
	prog := loadFixture(t)
	r1 := staticlint.Run(prog, fixtureConfig(), staticlint.Analyzers())
	r2 := staticlint.Run(prog, fixtureConfig(), staticlint.Analyzers())
	j1, err := staticlint.EncodeJSON(r1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := staticlint.EncodeJSON(r2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("EncodeJSON is not byte-stable across runs")
	}
	if staticlint.RenderText(r1) != staticlint.RenderText(r2) {
		t.Error("RenderText is not byte-stable across runs")
	}
	if !strings.HasPrefix(string(j1), "{\n  \"version\": 1,") {
		t.Errorf("JSON report must lead with its version, got %.40q", j1)
	}
}

// TestProofSetNames pins the repository's determinism proof set by
// name: dropping or renaming a root here is a reviewed decision, not
// an accident.
func TestProofSetNames(t *testing.T) {
	want := []string{
		"gpuport/internal/cost.Estimate",
		"gpuport/internal/cost/columnar.Build",
		"gpuport/internal/cost/columnar.NewEvaluator",
		"gpuport/internal/cost/columnar.Evaluator.Estimate",
		"gpuport/internal/graph.Graph.Fingerprint",
		"gpuport/internal/tracecache.appendHeader",
		"gpuport/internal/tracecache.decodeEntry",
		"gpuport/internal/irgl.Trace.AppendJSONCompact",
		"gpuport/internal/conform.Properties",
		"gpuport/internal/conform.check*",
		"gpuport/internal/obs.CanonicalTrace",
		"gpuport/internal/obs.CanonicalMetrics",
		"gpuport/internal/obs.NewTraceID",
		"gpuport/internal/obs.StreamEvent.AppendNDJSON",
		"gpuport/internal/obs.WriteRealtime",
		"gpuport/internal/measure.Campaign.Fingerprint",
		"gpuport/internal/server.Spec.Resolve",
		"gpuport/internal/server.queue.*",
		"gpuport/internal/server.Job.StatusBytes",
	}
	if got := staticlint.DefaultConfig().DetRoots; !reflect.DeepEqual(got, want) {
		t.Errorf("determinism proof set drifted:\n got %v\nwant %v", got, want)
	}
}

// TestInScope pins the scope-prefix grammar analyzer configs rely on.
func TestInScope(t *testing.T) {
	cases := []struct {
		rel      string
		prefixes []string
		want     bool
	}{
		{"internal/cost", []string{"internal/cost"}, true},
		{"internal/cost/deep", []string{"internal/cost"}, true},
		{"internal/costmodel", []string{"internal/cost"}, false},
		{"cmd/gpuport", []string{"cmd/"}, true},
		{"cmd", []string{"cmd/"}, false},
		{"internal/obs", []string{"internal/"}, true},
		{"", []string{"internal/"}, false},
	}
	for _, c := range cases {
		if got := staticlint.InScope(c.rel, c.prefixes); got != c.want {
			t.Errorf("InScope(%q, %v) = %v, want %v", c.rel, c.prefixes, got, c.want)
		}
	}
}
