package tracecache

import (
	"fmt"
	"os"
	"testing"
	"time"

	"gpuport/internal/obs"
)

func TestSetObsCountsHealsAndEvictions(t *testing.T) {
	tr, key := testTrace(t)
	rec := obs.New().EnableTracing()

	// Heal: a damaged entry is deleted and reported.
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetObs(rec)
	if err := s.Put(key, tr); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x40
	if err := os.WriteFile(s.path(key), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}

	// Evict: budget for ~two entries, insert three.
	size := entrySize(t, tr)
	s2, err := Open(t.TempDir(), 2*size+size/2)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetObs(rec)
	for i := 0; i < 3; i++ {
		k := key
		k.GraphFP = fmt.Sprintf("gfp1-%04d", i)
		if err := s2.Put(k, tr); err != nil {
			t.Fatal(err)
		}
		now := time.Unix(1000+int64(i), 0)
		if err := os.Chtimes(s2.path(k), now, now); err != nil {
			t.Fatal(err)
		}
		if err := s2.evict(s2.path(k)); err != nil {
			t.Fatal(err)
		}
	}

	snap := rec.Snapshot()
	if got := snap.Summary.Counter(obs.CtrCacheCorrupt); got != 1 {
		t.Errorf("%s = %d, want 1", obs.CtrCacheCorrupt, got)
	}
	if got := snap.Summary.Counter(obs.CtrCacheEvictions); got != 1 {
		t.Errorf("%s = %d, want 1", obs.CtrCacheEvictions, got)
	}
	var heals, evicts int
	for _, ev := range snap.Events {
		switch ev.Name {
		case obs.EvCacheHeal:
			heals++
		case obs.EvCacheEvict:
			evicts++
		}
		if len(ev.Attrs) != 1 || ev.Attrs[0].Key != obs.AttrPath || ev.Attrs[0].Value == "" {
			t.Errorf("cache event missing path attr: %+v", ev)
		}
	}
	if heals != 1 || evicts != 1 {
		t.Errorf("heal events = %d, evict events = %d, want 1 and 1", heals, evicts)
	}
}

func TestStoreWithoutObsRecorder(t *testing.T) {
	// A store with no recorder attached must behave exactly as before.
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, key := testTrace(t)
	if err := s.Put(key, tr); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x40
	if err := os.WriteFile(s.path(key), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
		t.Error("corrupt entry not deleted without a recorder")
	}
}
