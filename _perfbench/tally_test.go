package main

import (
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestTallyAccounting(t *testing.T) {
	var tl tally
	if got := tl.successRatio(); got != 0 {
		t.Errorf("empty tally success ratio = %v, want 0", got)
	}
	for i := 0; i < 7; i++ {
		tl.ok()
	}
	tl.fail("http-503")
	tl.fail("")
	tl.recheck("result-mismatch") // one of the seven turns out wrong
	a, f := tl.counts()
	if a != 9 || f != 3 {
		t.Errorf("attempted, failed = %d, %d; want 9, 3", a, f)
	}
	if got, want := tl.successRatio(), 6.0/9; !near(got, want) {
		t.Errorf("success ratio = %v, want %v", got, want)
	}
	if got, want := tl.summary(), "http-503=1, result-mismatch=1, unspecified=1"; got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}

func TestTallyConcurrent(t *testing.T) {
	var tl tally
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if i%10 == 0 {
					tl.fail("transport")
				} else {
					tl.ok()
				}
			}
		}()
	}
	wg.Wait()
	if a, f := tl.counts(); a != 400 || f != 40 {
		t.Errorf("attempted, failed = %d, %d; want 400, 40", a, f)
	}
}

func TestOutcomeFailure(t *testing.T) {
	cases := []struct {
		o    outcome
		want string
	}{
		{outcome{status: http.StatusOK}, ""},
		{outcome{err: errors.New("connection reset")}, "transport"},
		{outcome{status: http.StatusServiceUnavailable}, "http-503"},
		{outcome{status: http.StatusBadRequest}, "http-400"},
	}
	for _, c := range cases {
		if got := c.o.failure(); got != c.want {
			t.Errorf("failure(%+v) = %q, want %q", c.o, got, c.want)
		}
	}
}

func TestBacklogAt(t *testing.T) {
	sec := time.Second
	mix := []campaign{{due: 0}, {due: sec}, {due: 2 * sec}, {due: 3 * sec}}
	outs := []outcome{
		{done: sec / 2, status: http.StatusOK},
		{done: 3 * sec, status: http.StatusOK},
		{}, // never finished
		{done: 4 * sec, status: http.StatusOK},
	}
	cases := []struct {
		t    time.Duration
		want int
	}{{sec / 4, 1}, {sec, 1}, {2 * sec, 2}, {3 * sec, 2}, {5 * sec, 1}}
	for _, c := range cases {
		if got := backlogAt(mix, outs, c.t); got != c.want {
			t.Errorf("backlogAt(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}
