package tracecache

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuport/internal/apps"
	"gpuport/internal/graph"
	"gpuport/internal/irgl"
	"gpuport/internal/obs"
)

func testTrace(t *testing.T) (*irgl.Trace, Key) {
	t.Helper()
	g := graph.GenerateUniform("tc-g", 400, 5, 3)
	app, err := apps.ByName("bfs-wl")
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := app.Run(g)
	return tr, Key{App: app.Name, AppVersion: app.Version, GraphFP: g.Fingerprint()}
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, key := testTrace(t)
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(key, tr); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("miss after put")
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("cached trace is not bit-identical to the original")
	}
}

func TestKeyFieldsAreIndependent(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, key := testTrace(t)
	if err := s.Put(key, tr); err != nil {
		t.Fatal(err)
	}
	for name, k := range map[string]Key{
		"app":       {App: "other", AppVersion: key.AppVersion, GraphFP: key.GraphFP},
		"version":   {App: key.App, AppVersion: "2", GraphFP: key.GraphFP},
		"input":     {App: key.App, AppVersion: key.AppVersion, GraphFP: "gfp1-ffff"},
		"validated": {App: key.App, AppVersion: key.AppVersion, GraphFP: key.GraphFP, Validated: true},
	} {
		if _, ok := s.Get(k); ok {
			t.Errorf("changing the %s key field still hit the cache", name)
		}
	}
	// Field boundaries must not alias: ("ab","c") vs ("a","bc").
	a := Key{App: "ab", AppVersion: "c"}
	b := Key{App: "a", AppVersion: "bc"}
	if a.id() == b.id() {
		t.Error("key ids alias across field boundaries")
	}
}

// corrupt each entry file in a specific way and prove the store treats
// it as a miss (never an error, never a bad trace) and deletes it.
func TestCorruptionFallsBackToMiss(t *testing.T) {
	tr, key := testTrace(t)
	cases := []struct {
		name   string
		mangle func(path string, raw []byte) []byte
	}{
		{"truncated", func(_ string, raw []byte) []byte {
			return raw[:len(raw)/2]
		}},
		{"checksum-mismatch", func(_ string, raw []byte) []byte {
			raw[len(raw)-2] ^= 0x40 // flip a payload bit; header untouched
			return raw
		}},
		{"stale-version", func(_ string, raw []byte) []byte {
			return []byte(strings.Replace(string(raw), HeaderMagic+" 1 ", HeaderMagic+" 0 ", 1))
		}},
		{"no-header", func(_ string, raw []byte) []byte {
			return []byte("not a cache entry at all")
		}},
		{"bad-payload", func(_ string, raw []byte) []byte {
			// Valid header over an undecodable payload.
			payload := []byte(`{"app":"x","input":"y","launches":[{"Items":-1}]}`)
			return AppendEntry(nil, payload)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.New()
			s.SetObs(rec)
			if err := s.Put(key, tr); err != nil {
				t.Fatal(err)
			}
			path := s.path(key)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mangle(path, raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(key); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt entry not deleted")
			}
			if got := rec.Summary().Counter(obs.CtrCacheCorrupt); got != 1 {
				t.Errorf("%s = %d, want 1", obs.CtrCacheCorrupt, got)
			}
			// The slot is reusable: re-put, re-get.
			if err := s.Put(key, tr); err != nil {
				t.Fatal(err)
			}
			got, ok := s.Get(key)
			if !ok || !reflect.DeepEqual(got, tr) {
				t.Fatal("re-put after corruption did not restore the entry")
			}
		})
	}
}

// entrySize returns the on-disk size of tr's entry.
func entrySize(t *testing.T, tr *irgl.Trace) int64 {
	t.Helper()
	payload := tr.AppendJSONCompact(nil)
	return int64(len(AppendEntry(nil, payload)))
}

func TestLRUEviction(t *testing.T) {
	tr, key := testTrace(t)
	// Budget for roughly three entries of this trace's size.
	size := entrySize(t, tr)
	s, err := Open(t.TempDir(), 3*size+size/2)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	s.SetObs(rec)
	keys := make([]Key, 5)
	for i := range keys {
		keys[i] = key
		keys[i].GraphFP = fmt.Sprintf("gfp1-%04d", i)
		if err := s.Put(keys[i], tr); err != nil {
			t.Fatal(err)
		}
		// File mtimes order the LRU queue; make them strictly increase
		// even on coarse-granularity filesystems.
		now := time.Unix(1000+int64(i), 0)
		if err := os.Chtimes(s.path(keys[i]), now, now); err != nil {
			t.Fatal(err)
		}
		if err := s.evict(s.path(keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Len(); n != 3 {
		t.Fatalf("entries after eviction = %d, want 3", n)
	}
	if got := rec.Summary().Counter(obs.CtrCacheEvictions); got != 2 {
		t.Errorf("%s = %d, want 2", obs.CtrCacheEvictions, got)
	}
	for i, k := range keys {
		_, ok := s.Get(k)
		if want := i >= 2; ok != want {
			t.Errorf("key %d cached = %v, want %v (oldest two evicted)", i, ok, want)
		}
	}
}

func TestOversizedPutKeepsNewestEntry(t *testing.T) {
	tr, key := testTrace(t)
	s, err := Open(t.TempDir(), 1) // absurdly small budget
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, tr); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); !ok {
		t.Fatal("a single over-budget entry should survive its own eviction pass")
	}
}

// TestEvictionSkipsForeignFiles puts a foreign file larger than the
// whole budget into the store's directory: it neither counts toward
// the budget nor is evicted.
func TestEvictionSkipsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	tr, key := testTrace(t)
	size := entrySize(t, tr)
	s, err := Open(dir, 2*size+size/2)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	s.SetObs(rec)
	foreign := filepath.Join(dir, "README")
	if err := os.WriteFile(foreign, make([]byte, 4*size), 0o644); err != nil {
		t.Fatal(err)
	}
	// Two entries fit the budget: nothing is evicted. The third
	// overflows it by one entry, however large the foreign file.
	for i, wantEvicted := range []int64{0, 0, 1} {
		k := key
		k.GraphFP = fmt.Sprintf("gfp1-%04d", i)
		if err := s.Put(k, tr); err != nil {
			t.Fatal(err)
		}
		if got := rec.Summary().Counter(obs.CtrCacheEvictions); got != wantEvicted {
			t.Errorf("after put %d: %s = %d, want %d", i, obs.CtrCacheEvictions, got, wantEvicted)
		}
	}
	if n := s.Len(); n != 2 {
		t.Errorf("entries = %d, want 2", n)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("eviction removed a foreign file: %v", err)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open("", 0); err == nil {
		t.Error("empty dir should error")
	}
	file := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(file, 0); err == nil {
		t.Error("opening over a regular file should error")
	}
}

// TestConcurrentAccess hammers one store from many goroutines; run
// under -race this proves reader/writer safety, and every Get must see
// either a miss or a fully-written, verifiable entry.
func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	s.SetObs(rec)
	tr, key := testTrace(t)
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = key
		keys[i].GraphFP = fmt.Sprintf("gfp1-%04d", i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := keys[(w+i)%len(keys)]
				if w%2 == 0 {
					if err := s.Put(k, tr); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				} else if got, ok := s.Get(k); ok && got.App != tr.App {
					t.Error("concurrent get returned a wrong trace")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := rec.Summary().Counter(obs.CtrCacheCorrupt); got != 0 {
		t.Errorf("concurrent access produced %d corrupt reads", got)
	}
}
