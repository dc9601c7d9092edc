package report

import (
	"strings"
	"testing"

	"gpuport/internal/obs"
)

func TestTraceCacheSummary(t *testing.T) {
	var b strings.Builder
	TraceCacheSummary(&b, nil)
	TraceCacheSummary(&b, &obs.Summary{})
	TraceCacheSummary(&b, &obs.Summary{Counters: []obs.Counter{{Name: obs.CtrKernelLaunches, Value: 5}}})
	if b.Len() != 0 {
		t.Fatalf("inactive cache rendered output:\n%s", b.String())
	}

	sum := &obs.Summary{Counters: []obs.Counter{
		{Name: obs.CtrCacheHits, Value: 48},
		{Name: obs.CtrCacheMisses, Value: 3},
		{Name: obs.CtrCachePutErrors, Value: 1},
	}}
	TraceCacheSummary(&b, sum)
	out := b.String()
	for _, want := range []string{"Trace cache", "48", "3", "94.1%", "write errors"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, skip := range []string{"identity mismatches", "evictions", "healed"} {
		if strings.Contains(out, skip) {
			t.Errorf("%s row rendered without any", skip)
		}
	}

	// Store-level rows render when the store reported traffic.
	b.Reset()
	sum = &obs.Summary{Counters: []obs.Counter{
		{Name: obs.CtrCacheHits, Value: 10},
		{Name: obs.CtrCacheMisses, Value: 2},
		{Name: obs.CtrCacheEvictions, Value: 4},
		{Name: obs.CtrCacheCorrupt, Value: 1},
	}}
	TraceCacheSummary(&b, sum)
	out = b.String()
	for _, want := range []string{"evictions (size cap)", "damaged entries healed"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
