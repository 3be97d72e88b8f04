// Package eventqtest holds the event-queue doubles that the engines'
// heap-oracle tests share: a dispatch log, a heap with its tie-break
// reversed, and a comparison of two logs.
package eventqtest

import (
	"fmt"
	"math"

	"horse/internal/eventq"
	"horse/internal/simtime"
)

// Log is a kernel queue that records every event it hands to the dispatch
// loop, as its time and order key followed by what Entry makes of it, so
// two runs can be compared event for event; an event for which Entry
// returns "" goes unrecorded. It panics on an event queued under a time or
// order key other than its own (the engines pass both at schedule).
type Log struct {
	eventq.Canceler
	Entry func(eventq.Event) string
	Lines []string
}

func (q *Log) PopUntil(until simtime.Time) (eventq.Event, simtime.Time, uint64) {
	ev, t, key := q.Canceler.PopUntil(until)
	if ev == nil {
		return nil, 0, 0
	}
	if ev.Time() != t || eventq.KeyOf(ev) != key {
		panic(fmt.Sprintf("%T queued at %d under key %x, but reports %d and %x", ev, t, key, ev.Time(), eventq.KeyOf(ev)))
	}
	if s := q.Entry(ev); s != "" {
		q.Lines = append(q.Lines, fmt.Sprintf("%d k%x %s", t, key, s))
	}
	return ev, t, key
}

// LIFOTies is the heap oracle with its FIFO tie-break reversed: of the
// events tied on (time, key), the newest pops first. It is the negative
// control of the heap-oracle tests.
type LIFOTies struct{ *eventq.Heap }

// NewLIFOTies returns an empty LIFOTies.
func NewLIFOTies() LIFOTies { return LIFOTies{eventq.NewHeap()} }

func (q LIFOTies) PushKeyed(ev eventq.Event, t simtime.Time, key, seq uint64) eventq.Handle {
	if seq == 0 {
		seq = q.Reserve(1)
	}
	return q.Heap.PushKeyed(ev, t, key, math.MaxUint64-seq)
}

// FirstDivergence returns the dispatch time of the first line at which two
// logs differ, or simtime.Never if they agree.
func FirstDivergence(a, b []string) simtime.Time {
	for i := range max(len(a), len(b)) {
		if i < len(a) && i < len(b) && a[i] == b[i] {
			continue
		}
		if i >= len(a) {
			a = b
		}
		var at int64
		fmt.Sscan(a[i], &at)
		return simtime.Time(at)
	}
	return simtime.Never
}
