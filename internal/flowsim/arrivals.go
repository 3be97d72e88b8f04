package flowsim

import (
	"cmp"
	"slices"
	"sort"

	"horse/internal/simcore"
	"horse/internal/simtime"
	"horse/internal/traffic"
)

// Arrivals is the ingestion cursor, shared like the ControlPlane by every
// engine at every fidelity. One demand is queued at a time, at its start
// under key(i), the order key of its engine's first event for load index
// i. When that event fires, the cursor queues the next demand and admits
// this one, admit(d, i), in place of that first event: no engine holds
// state for a demand before it starts.
//
// A Load cursor walks its trace in dispatch order, (Start, key, index),
// and queues trace demand j under base+j, a sequence number reserved at
// Load: where an eager push of one event per demand would have put it.
// The queued demand is the earliest remaining one and is queued before
// anything that orders after it runs, so a Loaded run dispatches the
// eager run's events one for one. A reader cursor queues each demand it
// pulls under a fresh sequence number.
type Arrivals struct {
	k     *simcore.Kernel
	key   func(i int) uint64
	admit func(d *traffic.Demand, i int)

	// tr is a Load cursor's trace (nil once walked). order is the walk,
	// when it is not the trace's own order.
	tr    traffic.Trace
	order []int32
	base  uint64
	// next is the position in the walk (Load) or the count of pulled
	// demands (reader) of the next demand to queue.
	next  int
	first int

	r *traffic.Ingest

	// ev and pend are the cursor's two arrival events and their demands,
	// by slot: the one firing, and the one it queues for the next demand.
	ev   [2]event
	pend [2]pending
	cur  int32
}

// pending is a queued demand and its load index.
type pending struct {
	d traffic.Demand
	i int
}

// fire queues the cursor's next demand, then admits the one in slot.
func (a *Arrivals) fire(slot int32) {
	a.queueNext()
	p := &a.pend[slot]
	a.admit(&p.d, p.i)
}

// LoadArrivals starts a cursor over tr on kernel k, whose demand j has
// load index first+j, and queues its first demand. The cursor keeps tr
// (without copying it) until the last of its demands has been queued.
func LoadArrivals(k *simcore.Kernel, tr traffic.Trace, first int, key func(i int) uint64, admit func(d *traffic.Demand, i int)) *Arrivals {
	a := &Arrivals{k: k, key: key, admit: admit, tr: tr, first: first, base: k.Reserve(len(tr))}
	before := func(x, y int) int {
		if c := cmp.Compare(tr[x].Start, tr[y].Start); c != 0 {
			return c
		}
		return cmp.Compare(key(first+x), key(first+y))
	}
	for j := 1; j < len(tr); j++ {
		if before(j-1, j) > 0 {
			a.order = make([]int32, len(tr))
			for i := range a.order {
				a.order[i] = int32(i)
			}
			slices.SortStableFunc(a.order, func(x, y int32) int { return before(int(x), int(y)) })
			break
		}
	}
	a.queueNext()
	return a
}

// ReadArrivals starts a cursor over r on kernel k, whose demands take
// load indices from first on, and queues its first demand.
func ReadArrivals(k *simcore.Kernel, r *traffic.Ingest, first int, key func(i int) uint64, admit func(d *traffic.Demand, i int)) *Arrivals {
	a := &Arrivals{k: k, key: key, admit: admit, r: r, first: first}
	a.queueNext()
	return a
}

// DueRecords returns how many records the demands of the Load cursors
// that start by until produce, one each: what a run reserves for its
// retained records before it starts. A walk is in Start order.
func DueRecords(loads []*Arrivals, until simtime.Time) int {
	n := 0
	for _, a := range loads {
		n += sort.Search(len(a.tr), func(j int) bool { return a.tr[a.walk(j)].Start > until })
	}
	return n
}

// walk returns the trace index at position j of a Load cursor's walk.
func (a *Arrivals) walk(j int) int {
	if a.order != nil {
		return int(a.order[j])
	}
	return j
}

// queueNext queues the cursor's next demand, if any, in the event that
// is not firing.
func (a *Arrivals) queueNext() {
	var d traffic.Demand
	var i int
	var seq uint64
	if a.r != nil {
		var ok bool
		if d, ok = a.r.Next(); !ok {
			return
		}
		i, seq = a.first+a.next, a.k.Reserve(1)
	} else if a.next < len(a.tr) {
		j := a.walk(a.next)
		d, i, seq = a.tr[j], a.first+j, a.base+uint64(j)
	} else {
		a.tr, a.order = nil, nil
		return
	}
	a.next++
	a.cur ^= 1
	a.pend[a.cur] = pending{d, i}
	e := &a.ev[a.cur]
	*e = event{at: d.Start, gen: a.key(i), arr: a, slot: a.cur, kind: evArrival}
	a.k.ScheduleAt(e, e.at, e.gen, seq)
}
