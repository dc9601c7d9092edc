package skips

import "testing"

func TestBareSkip(t *testing.T) {
	t.Skip("flaky on slow machines") // planted
}

func TestIssueNumber(t *testing.T) {
	t.Skip("flaky on slow machines; see #42")
}

func TestURL(t *testing.T) {
	t.Skip("tracked at https://example.com/issues/9")
}

func TestSkipfReference(t *testing.T) {
	t.Skipf("missing fixture %s (#7)", "x")
}

func TestSkipfNoReference(t *testing.T) {
	t.Skipf("missing fixture %s", "x") // planted
}

func TestSkipNow(t *testing.T) {
	t.SkipNow() // planted: SkipNow takes no message, so it never passes
}

func BenchmarkSkip(b *testing.B) {
	b.Skip("too slow") // planted
}

func TestConcatenated(t *testing.T) {
	t.Skip("blocked" + " on #31")
}

type lister struct{}

func (lister) Skip(string) {}

type holder struct{ l lister }

// A Skip method reached through a field is not a testing.TB skip.
func TestFieldSkip(t *testing.T) {
	var h holder
	h.l.Skip("not a test skip")
}

func TestSuppressed(t *testing.T) {
	//lint:allow skipref a reasoned suppression reaches test files too
	t.Skip("flaky")
}
