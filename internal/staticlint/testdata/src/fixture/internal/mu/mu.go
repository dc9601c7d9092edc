// Package mu exercises the mutexlock analyzer: a leaked lock and the
// clean lock/defer-unlock twin. The two lock copies below are go vet's
// copylocks findings; mutexlock leaves them to vet.
package mu

import "sync"

// Counter guards a count.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Inc locks and defers the unlock: clean.
func (c *Counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// Leak locks and never unlocks: planted bug.
func (c *Counter) Leak() int {
	c.mu.Lock()
	return c.n
}

// Snapshot has a value receiver, copying the lock: vet reports it.
func (c Counter) Snapshot() int {
	return c.n
}

// Clone copies a lock-bearing value by assignment: vet reports it.
func Clone(c *Counter) int {
	cp := *c
	return cp.n
}
