package tracecache

import (
	"fmt"
	"sync"
	"testing"

	"gpuport/internal/obs"
)

// TestStressMixedOperations drives every public operation concurrently
// against one directory through two independent Store handles (the
// documented cross-process scenario), with a size cap small enough that
// eviction runs continuously. Invariants, checked under -race:
//
//   - no operation panics or corrupts an entry (every hit decodes, so a
//     torn write would surface as a healed-entry count);
//   - eviction racing Put/Get never produces an error other than a
//     miss;
//   - after the storm settles, a final Put/Get round trip still works
//     and the directory holds no more entries than the budget.
//
// TestConcurrentAccess covers the simple reader/writer race; this test
// exists to put eviction and a concurrent directory scan into the mix,
// which touch the directory rather than single entry files.
func TestStressMixedOperations(t *testing.T) {
	dir := t.TempDir()
	tr, key := testTrace(t)
	size := entrySize(t, tr)
	// Budget for ~3 entries while writers rotate over 8 keys: eviction
	// triggers on nearly every Put.
	s1, err := Open(dir, 3*size)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 3*size)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	stores := []*Store{s1.SetObs(rec), s2.SetObs(rec)}

	keys := make([]Key, 8)
	for i := range keys {
		keys[i] = key
		keys[i].GraphFP = fmt.Sprintf("gfp-stress-%04d", i)
	}

	const workers = 12
	const iters = 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := stores[w%len(stores)]
			for i := 0; i < iters; i++ {
				k := keys[(w*7+i)%len(keys)]
				switch w % 4 {
				case 0, 3:
					if err := s.Put(k, tr); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				case 1:
					if got, ok := s.Get(k); ok && got.App != tr.App {
						t.Error("get returned a wrong trace")
						return
					}
				case 2:
					entryCount(t, dir)
					if got, ok := s.Get(k); ok && got.Input != tr.Input {
						t.Error("get returned a wrong trace")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := rec.Summary().Counter(obs.CtrCacheCorrupt); got != 0 {
		t.Errorf("stress storm produced %d corrupt reads (torn write?)", got)
	}

	// The store must still work after the storm.
	if err := s1.Put(keys[0], tr); err != nil {
		t.Fatalf("put after storm: %v", err)
	}
	if _, ok := s2.Get(keys[0]); !ok {
		t.Fatal("entry written after the storm is not readable via the second handle")
	}
	if n := entryCount(t, dir); n < 1 || n > 3 {
		t.Errorf("%d entries after the storm, want 1..3 (the budget holds 3)", n)
	}
}
