package measure

import (
	"sync"
	"testing"

	"gpuport/internal/fault"
	"gpuport/internal/opt"
)

func TestCampaignFingerprintStable(t *testing.T) {
	a := NewCampaign(smallOptions()).Fingerprint()
	b := NewCampaign(smallOptions()).Fingerprint()
	if a != b {
		t.Fatalf("fingerprint not stable: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint length = %d, want 64 hex chars", len(a))
	}
}

func TestCampaignFingerprintSensitive(t *testing.T) {
	base := NewCampaign(smallOptions()).Fingerprint()
	mutate := map[string]func(*Options){
		"seed":     func(o *Options) { o.Seed++ },
		"runs":     func(o *Options) { o.Runs++ },
		"validate": func(o *Options) { o.Validate = true },
		"chips":    func(o *Options) { o.Chips = o.Chips[:1] },
		"apps":     func(o *Options) { o.Apps = o.Apps[:1] },
		"configs":  func(o *Options) { o.Configs = []opt.Config{{}} },
		"faults":   func(o *Options) { o.Faults = &fault.Profile{Seed: 9, Transient: 0.1} },
	}
	for name, f := range mutate {
		o := smallOptions()
		f(&o)
		if got := NewCampaign(o).Fingerprint(); got == base {
			t.Errorf("%s: fingerprint unchanged by identity mutation", name)
		}
	}
}

func TestCampaignFingerprintIgnoresBindings(t *testing.T) {
	o := smallOptions()
	base := NewCampaign(o).Fingerprint()
	o.Workers = 7
	o.Checkpoint = "x.csv"
	o.Notify = func(string, int, int) {}
	if got := NewCampaign(o).Fingerprint(); got != base {
		t.Fatalf("runtime bindings changed the fingerprint")
	}
}

// TestConfigsSubspaceBitIdentical proves the subspace contract: a sweep
// restricted to a config subset reproduces exactly the matching cells
// of the full sweep, bit for bit.
func TestConfigsSubspaceBitIdentical(t *testing.T) {
	full, err := Collect(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	sub := smallOptions()
	sub.Configs = []opt.Config{{}, {SG: true}, {SG: true, SZ256: true}}
	part, err := Collect(sub)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(full.Tuples()) * len(sub.Configs); part.Len() != want {
		t.Fatalf("subspace records = %d, want %d", part.Len(), want)
	}
	for _, tp := range part.Tuples() {
		for _, cfg := range sub.Configs {
			got := part.Samples(tp, cfg)
			want := full.Samples(tp, cfg)
			if len(got) == 0 {
				t.Fatalf("%v/%v: missing in subspace run", tp, cfg)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v/%v run %d: subspace %v != full %v", tp, cfg, i, got[i], want[i])
				}
			}
		}
	}
}

// TestNotifyProgress checks the coarse progress callback: both phases
// report every completion and converge on done == total.
func TestNotifyProgress(t *testing.T) {
	o := smallOptions()
	var mu sync.Mutex
	calls := map[string]int{}
	final := map[string][2]int{}
	o.Notify = func(phase string, done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls[phase]++
		if cur := final[phase]; done > cur[0] {
			final[phase] = [2]int{done, total}
		}
	}
	if _, err := Collect(o); err != nil {
		t.Fatal(err)
	}
	pairs := len(o.Apps) * len(o.Inputs)
	jobs := len(o.Chips) * pairs
	if got := final["trace"]; got != [2]int{pairs, pairs} {
		t.Errorf("trace progress = %v, want [%d %d]", got, pairs, pairs)
	}
	if got := final["sweep"]; got != [2]int{jobs, jobs} {
		t.Errorf("sweep progress = %v, want [%d %d]", got, jobs, jobs)
	}
	if calls["trace"] != pairs || calls["sweep"] != jobs {
		t.Errorf("notify calls = %v, want %d trace / %d sweep", calls, pairs, jobs)
	}
}
