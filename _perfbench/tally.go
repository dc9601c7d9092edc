package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// tally counts the operations a run attempted and the ones that failed:
// an error, a refused or non-2xx response, or an output that differs
// from its reference all count as one failed operation. Safe for
// concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   map[string]int
}

// ok records one operation that succeeded.
func (t *tally) ok() { t.record("") }

// fail records one failed operation under a short reason class.
func (t *tally) fail(reason string) {
	if reason == "" {
		reason = "unspecified"
	}
	t.record(reason)
}

func (t *tally) record(reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if reason == "" {
		return
	}
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

// recheck turns one already-counted successful operation into a failed
// one, for outputs verified after the measured window.
func (t *tally) recheck(reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

// counts returns attempted and failed.
func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// successRatio is the share of attempted operations that succeeded; a
// run that attempted nothing has succeeded at nothing.
func (t *tally) successRatio() float64 {
	a, f := t.counts()
	if a == 0 {
		return 0
	}
	return float64(a-f) / float64(a)
}

// summary renders the failure reasons as "reason=n, ..." in name order.
func (t *tally) summary() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.reasons))
	for name := range t.reasons {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s=%d", name, t.reasons[name])
	}
	return strings.Join(parts, ", ")
}
