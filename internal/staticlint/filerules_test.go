package staticlint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpuport/internal/staticlint"
)

// lintFiles writes files into a fresh module, loads it and returns the
// messages one analyzer reports there.
func lintFiles(t *testing.T, rule string, files map[string]string) []string {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := staticlint.Load(root)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, d := range staticlint.Run(prog, staticlint.Config{}, staticlint.AnalyzersByName([]string{rule})).Diagnostics {
		if d.Rule == rule {
			msgs = append(msgs, d.String())
		}
	}
	return msgs
}

// TestSkipRequiresReference checks each skipref verdict on a one-file
// module, so a failure names the case rather than a fixture line.
func TestSkipRequiresReference(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the expected finding, "" = clean
	}{
		{
			name: "bare skip flagged",
			src: "package x\n\nimport \"testing\"\n\nfunc TestA(t *testing.T) {\n" +
				"\tt.Skip(\"flaky on slow machines\")\n}\n",
			want: "Skip without a linked issue reference",
		},
		{
			name: "skip with issue number passes",
			src: "package x\n\nimport \"testing\"\n\nfunc TestA(t *testing.T) {\n" +
				"\tt.Skip(\"flaky on slow machines; see #42\")\n}\n",
		},
		{
			name: "skip with URL passes",
			src: "package x\n\nimport \"testing\"\n\nfunc TestA(t *testing.T) {\n" +
				"\tt.Skip(\"tracked at https://example.com/issues/9\")\n}\n",
		},
		{
			name: "skipf with reference in format string passes",
			src: "package x\n\nimport \"testing\"\n\nfunc TestA(t *testing.T) {\n" +
				"\tt.Skipf(\"missing fixture %s (#7)\", \"x\")\n}\n",
		},
		{
			name: "skipf without reference flagged",
			src: "package x\n\nimport \"testing\"\n\nfunc TestA(t *testing.T) {\n" +
				"\tt.Skipf(\"missing fixture %s\", \"x\")\n}\n",
			want: "Skipf without a linked issue reference",
		},
		{
			name: "skipnow always flagged",
			src: "package x\n\nimport \"testing\"\n\nfunc TestA(t *testing.T) {\n" +
				"\tt.SkipNow()\n}\n",
			want: "SkipNow without a linked issue reference",
		},
		{
			name: "benchmark skip in scope too",
			src: "package x\n\nimport \"testing\"\n\nfunc BenchmarkA(b *testing.B) {\n" +
				"\tb.Skip(\"too slow\")\n}\n",
			want: "Skip without a linked issue reference",
		},
		{
			name: "reference built by concatenation passes",
			src: "package x\n\nimport \"testing\"\n\nfunc TestA(t *testing.T) {\n" +
				"\tt.Skip(\"blocked\" + \" on #13\")\n}\n",
		},
		{
			name: "non-TB skip helper out of scope",
			src: "package x\n\ntype lister struct{}\n\nfunc (lister) Skip(string) {}\n\n" +
				"type holder struct{ l lister }\n\nvar h holder\n\nfunc init() { h.l.Skip(\"not a test skip\") }\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msgs := lintFiles(t, "skipref", map[string]string{"internal/x/a_test.go": tc.src})
			if tc.want == "" {
				if len(msgs) != 0 {
					t.Fatalf("clean file flagged: %v", msgs)
				}
				return
			}
			if len(msgs) != 1 || !strings.Contains(msgs[0], tc.want) {
				t.Fatalf("findings = %v, want one containing %q", msgs, tc.want)
			}
		})
	}
}

// TestSkipRuleIgnoresNonTestFiles: the same call shape in a non-test
// file is out of scope; a production method named Skip is not a test
// skip.
func TestSkipRuleIgnoresNonTestFiles(t *testing.T) {
	msgs := lintFiles(t, "skipref", map[string]string{
		"internal/x/a.go": "package x\n\ntype tb struct{}\n\nfunc (tb) Skip(string) {}\n\nfunc F() { var t tb; t.Skip(\"whatever\") }\n",
	})
	if len(msgs) != 0 {
		t.Fatalf("non-test file flagged by skipref: %v", msgs)
	}
}
