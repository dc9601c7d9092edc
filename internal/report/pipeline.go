package report

import (
	"io"

	"gpuport/internal/obs"
)

// TraceCacheSummary renders the trace-cache traffic of a collection run
// as a table, read from the summary of the recorder the run wrote to.
// A nil summary, or one without cache activity, renders nothing, so
// callers can invoke it unconditionally. Only counters appear here -
// they are deterministic for a given cache state - while wall-clock
// stage timings go to the verbose log (obs.Summary.Format).
func TraceCacheSummary(w io.Writer, sum *obs.Summary) error {
	hits, misses := sum.Counter(obs.CtrCacheHits), sum.Counter(obs.CtrCacheMisses)
	putErrs := sum.Counter(obs.CtrCachePutErrors)
	mismatches := sum.Counter(obs.CtrCacheMismatches)
	evicted, healed := sum.Counter(obs.CtrCacheEvictions), sum.Counter(obs.CtrCacheCorrupt)
	if hits+misses+putErrs+mismatches+evicted+healed == 0 {
		return nil
	}
	t := NewTable("Trace cache", "Metric", "Value").RightAlign(1)
	t.Row("hits (execution skipped)", hits)
	t.Row("misses (traced fresh)", misses)
	if total := hits + misses; total > 0 {
		t.Row("hit rate", F(float64(hits)/float64(total)*100, 1)+"%")
	}
	if mismatches > 0 {
		t.Row("identity mismatches (re-traced)", mismatches)
	}
	if putErrs > 0 {
		t.Row("write errors (not cached)", putErrs)
	}
	if evicted > 0 {
		t.Row("evictions (size cap)", evicted)
	}
	if healed > 0 {
		t.Row("damaged entries healed", healed)
	}
	return t.Render(w)
}
