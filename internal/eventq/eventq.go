// Package eventq implements the temporally ordered event queues that drive
// the Horse simulator. Events are the paper's first data-plane building
// block: every input to the topology — a flow arrival, a link failure, a
// control-plane message delivery — is an event with a firing time.
//
// Two implementations sit behind the Queue interface. The hierarchical
// timing wheel (Wheel) is the queue every engine runs on: O(1) schedule,
// O(1) true cancellation, and a ready run that stays O(log r) per event
// when thousands of events share one instant. The binary min-heap (Heap)
// is kept as the determinism oracle: the parity and fuzz tests, and the
// benchmark's eventq probe, construct it by name and require the wheel to
// match it. Both dequeue events in nondecreasing time order and break
// ties by order key (Keyed) and then insertion order, so a simulation run
// is fully deterministic for a given input sequence.
//
// Both store a queued event as a 40-byte record with no pointers — time,
// order key, FIFO sequence number, two int32 links, a generation and a
// location — in fixed-size pages, with the Event values in parallel
// pages of their own, so the garbage collector scans event slots and
// never a record. Time and key are read once, at push (PushKeyed takes
// them from a caller that knows them), and PopUntil hands them back with
// the event, so the dispatch loop never asks the event again. Wheel slot
// chains and the free list link record indices; the heaps sift 32-byte
// copies of a record's (time, key, seq) beside its index.
//
// Both implement Canceler: PushCancelable returns a Handle (record index
// and generation) and Cancel removes the event before it fires, instead
// of the generation-stamp pattern where stale timers sit in the queue
// until they fire as no-ops. The wheel physically unlinks any chained
// event in O(1), due ones included; an event in its late heap, and every
// entry of the heap, is marked dead and skipped on dequeue (its event is
// returned at Cancel and never touched again, so the envelope may be
// recycled immediately). Len always reports live events only, so engine
// logic keyed on queue emptiness behaves identically on either backend.
package eventq

import (
	"horse/internal/grow"
	"horse/internal/simtime"
)

// Event is anything that can be scheduled on a Queue and dispatched
// from it. The queue reads Time (and a Keyed event's OrderKey) at push
// and never calls Fire or Release: those are the dispatcher's, and
// carrying them here lets the kernel run what a pop returns without
// converting it to an interface of its own first.
type Event interface {
	// Time returns the instant at which the event fires.
	Time() simtime.Time
	// Fire executes the event at its firing time.
	Fire()
	// Release recycles the event after Fire returns, or after Cancel
	// took it off the queue. Implementations that do not pool may make
	// it a no-op.
	Release()
}

// Keyed is an Event that carries a deterministic order key. Queues sort by
// (time, key, insertion order): at one instant, smaller keys fire first,
// and equal keys keep FIFO order. Keys derive from stable simulation
// entities (link direction, datapath, flow), not from schedule history,
// so same-instant order is fixed by what the events are about rather
// than by who scheduled them first. Events without keys sort after all
// keyed events at the same instant (DefaultOrderKey) in plain FIFO order.
type Keyed interface {
	Event
	// OrderKey returns the event's order key. The queue reads it once,
	// at push.
	OrderKey() uint64
}

// DefaultOrderKey is the order key assumed for events that do not
// implement Keyed. It sorts after every keyed event at the same instant.
const DefaultOrderKey = ^uint64(0)

// KeyOf returns ev's order key: OrderKey for a Keyed event,
// DefaultOrderKey otherwise.
func KeyOf(ev Event) uint64 {
	if k, ok := ev.(Keyed); ok {
		return k.OrderKey()
	}
	return DefaultOrderKey
}

// Queue is a temporally ordered event queue.
type Queue interface {
	// Push schedules an event.
	Push(Event)
	// Pop removes and returns the earliest event. Ties are broken by
	// order key (Keyed; DefaultOrderKey otherwise) and then insertion
	// order (FIFO). Pop returns nil when the queue is empty.
	Pop() Event
	// PopUntil is Pop bounded by a firing time: it removes and returns
	// the earliest event, with the time and order key it was queued
	// under, only if that event fires at or before until, and otherwise
	// (or when the queue is empty) returns a nil event and leaves the
	// queue as it was. The kernel's dispatch loop uses it to honor a run
	// bound with one look at the queue head per event.
	PopUntil(until simtime.Time) (ev Event, t simtime.Time, key uint64)
	// Peek returns the earliest event without removing it, or nil.
	Peek() Event
	// Len returns the number of queued (live, uncancelled) events.
	Len() int
	// Reserve takes the next n FIFO sequence numbers without queuing
	// anything and returns the first; events pushed later sort after all
	// of them on ties. An ingestion cursor reserves one number per demand
	// up front and pushes each demand lazily with its own number (through
	// Canceler.PushKeyed), so ties break exactly as if the whole trace had
	// been pushed at once.
	Reserve(n int) uint64
}

// Canceler is the optional cancellation capability of a Queue. Engines
// use it to remove dead timers (retransmission timers rearmed on every
// ACK, flow timeouts rescheduled on every packet) instead of letting
// generation-stamped corpses sit in the queue and fire as no-ops.
type Canceler interface {
	Queue
	// PushCancelable schedules an event and returns a handle for Cancel.
	PushCancelable(Event) Handle
	// PushKeyed schedules ev at t under order key key, which must be
	// what ev's Time and OrderKey report, and FIFO sequence number seq
	// (one from Reserve, or 0 for the next), and returns a handle for
	// Cancel. It is the one push: the others are PushKeyed with the
	// lookups in front.
	PushKeyed(ev Event, t simtime.Time, key, seq uint64) Handle
	// Cancel removes a previously scheduled event. It returns the event
	// and true when the event was still queued (the caller owns
	// recycling it, and the queue guarantees it will never touch the
	// event again); a zero, stale, already-cancelled, or already-fired
	// handle returns (nil, false).
	Cancel(Handle) (Event, bool)
}

// Handle identifies one cancelable scheduled event: its record's index
// and the generation the record had when the event was pushed.
// It is 8 bytes and holds no pointer. The zero Handle is valid and
// cancels as a no-op (index 0 is never a record). A record's generation
// advances when its event fires, is cancelled, or is popped, so a stale
// Cancel is safe and returns false even after the record is reused.
type Handle struct {
	i   int32
	gen uint32
}

// rec is the bookkeeping record of one queued event. It holds no
// pointer: the event itself sits at the same index of the event pages.
// prev and next link the record into a wheel slot chain or the overflow
// list (or, next only, the free list); index 0 is the nil link. where
// is the record's location, so Cancel can unlink in O(1).
type rec struct {
	order
	prev, next int32
	gen        uint32
	where      uint16
}

// Locations for rec.where besides a wheel chain (a slot index below
// ovList, or ovList itself).
const (
	whereReady = 0xFFFE // in the wheel's late heap, or in the heap
	whereDead  = 0xFFFF // cancelled while due; released when dequeue reaches it
)

// order is the triple queues sort by: time, order key, FIFO sequence.
type order struct {
	t        simtime.Time
	key, seq uint64
}

func (a *order) before(b *order) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// entry is a heap slot: record i's order, copied so that sifting
// compares values in the heap's own array instead of visiting records.
type entry struct {
	order
	i int32
}

// entryHeap is a binary min-heap of entries, allocation-free once grown.
type entryHeap []entry

func (h *entryHeap) push(e entry) {
	a := grow.Push(*h, e)
	j := len(a) - 1
	for j > 0 {
		p := (j - 1) / 2
		if !e.before(&a[p].order) {
			break
		}
		a[j] = a[p]
		j = p
	}
	a[j] = e
	*h = a
}

// pop removes the root.
func (h *entryHeap) pop() {
	a := *h
	n := len(a) - 1
	e := a[n]
	a = a[:n]
	*h = a
	if n == 0 {
		return
	}
	j := 0
	for {
		l := 2*j + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && a[r].before(&a[l].order) {
			m = r
		}
		if !a[m].before(&e.order) {
			break
		}
		a[j] = a[m]
		j = m
	}
	a[j] = e
}

// slab holds the records and events of one queue and the state both
// backends share: the free list, the FIFO counter and the live count.
// Records and events live in fixed-size pages that are never copied or
// freed, so a queue allocates for its high-water mark of queued events
// once and nothing after.
type slab struct {
	recs []*[pageSize]rec
	evs  []*[pageSize]Event
	top  int32 // records handed out so far, index 0 included
	free int32 // first free record, linked through next; 0 when none
	seq  uint64
	n    int // live events
}

const (
	pageBits = 8
	pageSize = 1 << pageBits
)

func (s *slab) rec(i int32) *rec  { return &s.recs[i>>pageBits][i&(pageSize-1)] }
func (s *slab) ev(i int32) *Event { return &s.evs[i>>pageBits][i&(pageSize-1)] }

// alloc takes a record for ev, adding a page when none is free (index 0,
// on the first page, is the nil link). Sequence number 0 takes the next.
func (s *slab) alloc(ev Event, t simtime.Time, key, seq uint64) (int32, *rec) {
	if seq == 0 {
		s.seq++
		seq = s.seq
	}
	if s.free == 0 {
		if s.top%pageSize == 0 {
			s.recs, s.evs = append(s.recs, new([pageSize]rec)), append(s.evs, new([pageSize]Event))
			s.top = max(s.top, 1)
		}
		s.free = s.top
		s.top++
	}
	i := s.free
	r := s.rec(i)
	s.free = r.next
	r.order = order{t, key, seq}
	*s.ev(i) = ev
	s.n++
	return i, r
}

// release returns record i (r) to the free list and its event to the
// caller.
func (s *slab) release(i int32, r *rec) Event {
	r.gen++
	r.next = s.free
	s.free = i
	return s.take(i)
}

// take clears record i's event slot and returns the event.
func (s *slab) take(i int32) Event {
	e := s.ev(i)
	ev := *e
	*e = nil
	return ev
}

// pop releases live record i (r) as dequeued.
func (s *slab) pop(i int32, r *rec) (Event, simtime.Time, uint64) {
	s.n--
	return s.release(i, r), r.t, r.key
}

// kill cancels record i (r), which sits in a heap, in place: its handle
// goes stale and its event goes back to the caller, and dequeue releases
// the record later.
func (s *slab) kill(i int32, r *rec) Event {
	s.n--
	r.gen++
	r.where = whereDead
	return s.take(i)
}

// lookup returns the record h names if its event is still queued.
func (s *slab) lookup(h Handle) (int32, bool) {
	return h.i, h.i > 0 && h.i < s.top && s.rec(h.i).gen == h.gen
}

func handle(i int32, r *rec) Handle { return Handle{i: i, gen: r.gen} }

// Reserve takes the next n sequence numbers and returns the first.
func (s *slab) Reserve(n int) uint64 {
	base := s.seq + 1
	s.seq += uint64(n)
	return base
}

// Len returns the number of live queued events.
func (s *slab) Len() int { return s.n }

// Heap is a binary min-heap of entries: O(log n) per operation and
// allocation-free in steady state. It implements Canceler with lazy
// cancellation: Cancel marks the record dead in O(1) and dequeue skips
// it. The zero value is ready to use.
type Heap struct {
	slab
	h entryHeap
}

// NewHeap returns an empty binary-heap event queue.
func NewHeap() *Heap { return &Heap{} }

// Push schedules an event.
func (q *Heap) Push(ev Event) { q.PushKeyed(ev, ev.Time(), KeyOf(ev), 0) }

// PushCancelable schedules an event and returns a cancellation handle.
func (q *Heap) PushCancelable(ev Event) Handle { return q.PushKeyed(ev, ev.Time(), KeyOf(ev), 0) }

// PushKeyed schedules ev at t under key and seq (0 for the next).
func (q *Heap) PushKeyed(ev Event, t simtime.Time, key, seq uint64) Handle {
	i, r := q.alloc(ev, t, key, seq)
	r.where = whereReady
	q.h.push(entry{r.order, i})
	return handle(i, r)
}

// Cancel marks a scheduled event dead. The record stays in the heap until
// dequeue reaches it, but its event is returned to the caller now and
// never touched again.
func (q *Heap) Cancel(h Handle) (Event, bool) {
	i, ok := q.lookup(h)
	if !ok {
		return nil, false
	}
	return q.kill(i, q.rec(i)), true
}

// head releases cancelled records at the root and returns the earliest
// live one, or 0 when the queue is empty.
func (q *Heap) head() int32 {
	for len(q.h) > 0 {
		i := q.h[0].i
		r := q.rec(i)
		if r.where != whereDead {
			return i
		}
		q.h.pop()
		q.release(i, r)
	}
	return 0
}

// Pop removes and returns the earliest live event, or nil if the queue is
// empty.
func (q *Heap) Pop() Event {
	ev, _, _ := q.PopUntil(simtime.Never)
	return ev
}

// PopUntil removes and returns the earliest live event, with its time
// and order key, if it fires at or before until; otherwise it returns a
// nil event.
func (q *Heap) PopUntil(until simtime.Time) (Event, simtime.Time, uint64) {
	i := q.head()
	if i == 0 || q.h[0].t > until {
		return nil, 0, 0
	}
	q.h.pop()
	return q.pop(i, q.rec(i))
}

// Peek returns the earliest live event without removing it, or nil.
func (q *Heap) Peek() Event {
	if i := q.head(); i != 0 {
		return *q.ev(i)
	}
	return nil
}

// Backend names an event-queue implementation. The zero value is the
// timing wheel, the queue every engine runs on.
type Backend uint8

const (
	// BackendWheel is the hierarchical timing wheel: O(1) schedule and
	// O(1) true cancellation. The default.
	BackendWheel Backend = iota
	// BackendHeap is the binary min-heap: O(log n) per operation. It is
	// the determinism oracle tests and probes compare the wheel against,
	// not a production choice.
	BackendHeap
)

// New returns an empty queue of the selected backend.
func New(b Backend) Canceler {
	if b == BackendHeap {
		return NewHeap()
	}
	return NewWheel()
}
