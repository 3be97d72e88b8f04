package runner

import (
	"fmt"
	"sync"
)

// Budget is a shared capacity account for long-lived consumers of the
// worker pool — the admission-control backing of the service daemon,
// where every running session holds the units its spec costs. Unlike
// Run, which owns its workers for the duration of one batch, a Budget
// tracks units across independent acquire/release lifetimes, so a
// session manager can decide deterministically whether the next queued
// session fits before it starts.
//
// Budget is safe for concurrent use. Acquisition is non-blocking by
// design (TryAcquire): callers that need queueing implement their own
// order on top, which keeps admission policy — FIFO, priorities,
// rejection — out of the accounting.
type Budget struct {
	mu   sync.Mutex
	cap  int
	used int
}

// NewBudget returns a budget of n units. n <= 0 panics: a zero-capacity
// budget could never admit anything, which is always a configuration
// bug.
func NewBudget(n int) *Budget {
	if n <= 0 {
		panic(fmt.Sprintf("runner: non-positive budget capacity %d", n))
	}
	return &Budget{cap: n}
}

// TryAcquire takes n units if they are available and reports whether it
// did. n <= 0 panics.
func (b *Budget) TryAcquire(n int) bool {
	if n <= 0 {
		panic(fmt.Sprintf("runner: non-positive acquire %d", n))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.used+n > b.cap {
		return false
	}
	b.used += n
	return true
}

// Release returns n previously acquired units. Releasing more than is
// in use panics — it means an accounting bug, and silently clamping
// would hide a double release.
func (b *Budget) Release(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("runner: non-positive release %d", n))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if n > b.used {
		panic(fmt.Sprintf("runner: release %d with %d in use", n, b.used))
	}
	b.used -= n
}

// Used returns the units currently held.
func (b *Budget) Used() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Cap returns the budget capacity.
func (b *Budget) Cap() int { return b.cap }
