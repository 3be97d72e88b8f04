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
// Both implement Canceler: PushCancelable returns a Handle and Cancel
// removes the event before it fires, instead of the generation-stamp
// pattern where stale timers sit in the queue until they fire as no-ops.
// The wheel physically unlinks in O(1); the heap marks the entry dead and
// skips it on dequeue (the entry is never compared through its event
// again, so cancelled envelopes may be recycled immediately). Len always
// reports live events only, so engine logic keyed on queue emptiness
// behaves identically on either backend.
package eventq

import "horse/internal/simtime"

// Event is anything that can be scheduled on a Queue.
type Event interface {
	// Time returns the instant at which the event fires. It must not
	// change while the event is queued.
	Time() simtime.Time
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
	// OrderKey returns the event's order key. It must not change while
	// the event is queued.
	OrderKey() uint64
}

// DefaultOrderKey is the order key assumed for events that do not
// implement Keyed. It sorts after every keyed event at the same instant.
const DefaultOrderKey = ^uint64(0)

func orderKeyOf(ev Event) uint64 {
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
	// the earliest event only if that event fires at or before until, and
	// otherwise (or when the queue is empty) returns nil and leaves the
	// queue as it was. The kernel's dispatch loop uses it to honor a run
	// bound with one look at the queue head per event.
	PopUntil(until simtime.Time) Event
	// Peek returns the earliest event without removing it, or nil.
	Peek() Event
	// Len returns the number of queued (live, uncancelled) events.
	Len() int
	// Reserve takes the next n FIFO sequence numbers without queuing
	// anything and returns the first; events pushed later sort after all
	// of them on ties. An ingestion cursor reserves one number per demand
	// up front and pushes each demand lazily with its own number, so ties
	// break exactly as if the whole trace had been pushed at once.
	Reserve(n int) uint64
	// PushSeq schedules an event under a sequence number obtained from
	// Reserve (each number used at most once) instead of the next one.
	PushSeq(ev Event, seq uint64)
}

// Canceler is the optional cancellation capability of a Queue. Engines
// use it to remove dead timers (retransmission timers rearmed on every
// ACK, flow timeouts rescheduled on every packet) instead of letting
// generation-stamped corpses sit in the queue and fire as no-ops.
type Canceler interface {
	Queue
	// PushCancelable schedules an event and returns a handle for Cancel.
	PushCancelable(Event) Handle
	// Cancel removes a previously scheduled event. It returns the event
	// and true when the event was still queued (the caller owns
	// recycling it, and the queue guarantees it will never touch the
	// event again); a zero, stale, already-cancelled, or already-fired
	// handle returns (nil, false).
	Cancel(Handle) (Event, bool)
}

// Handle identifies one cancelable scheduled event. The zero Handle is
// valid and cancels as a no-op. Handles are invalidated when the event
// fires, is cancelled, or is popped — a stale Cancel is safe and returns
// false.
type Handle struct {
	n   *node
	gen uint32
}

// node is the per-event bookkeeping record behind a Handle. The heap uses
// only (ev, gen, dead) — the node marks a queue entry dead so dequeue can
// skip it. The wheel stores events entirely in nodes:
// slot chains and the overflow list link through prev/next, and `where`
// records the node's current location so Cancel can unlink in O(1).
// Nodes are pooled per queue; gen increments on every recycle so stale
// handles never alias a reused node.
type node struct {
	ev    Event
	t     simtime.Time
	key   uint64
	seq   uint64
	prev  *node
	next  *node
	gen   uint32
	where uint16
	dead  bool
}

// Locations for node.where. Values below wheelLevels*wheelSlots are a
// wheel slot index (level<<wheelBits | slot).
const (
	whereNone     = 0xFFFD // not tracked by location (heap/pooled)
	whereReady    = 0xFFFE // in the wheel's ready run or late heap
	whereOverflow = 0xFFFF // in the wheel's overflow list
)

// nodePool is an intrusive free list of nodes, linked through next.
type nodePool struct {
	free *node
}

func (p *nodePool) get() *node {
	if n := p.free; n != nil {
		p.free = n.next
		n.next = nil
		return n
	}
	return &node{where: whereNone}
}

// put recycles a node, bumping gen so outstanding handles go stale.
func (p *nodePool) put(n *node) {
	n.gen++
	n.ev = nil
	n.prev = nil
	n.dead = false
	n.where = whereNone
	n.next = p.free
	p.free = n
}

// item pairs an event with its cached firing time, order key, and
// insertion sequence number. Time and key are captured once at Push, so
// the hot comparison path never calls back into the event — which also
// means a cancelled event's envelope can be recycled while its dead entry
// still sits in a lazy-cancel queue: the entry's ordering fields are
// frozen and its ev pointer is never dereferenced again.
type item struct {
	ev  Event
	t   simtime.Time
	key uint64
	seq uint64
	n   *node // non-nil for cancelable entries
}

// item returns the queue entry for a node whose ordering fields are set.
func (n *node) item() item {
	return item{ev: n.ev, t: n.t, key: n.key, seq: n.seq, n: n}
}

func less(a, b item) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// itemHeap is a binary min-heap of items under less, with hand-rolled
// typed sift-up/down (no container/heap interface boxing: push and
// removeMin allocate nothing beyond amortized slice growth).
type itemHeap []item

func (h *itemHeap) push(it item) {
	a := append(*h, it)
	*h = a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(it, a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = it
}

// removeMin removes and returns the root entry.
func (h *itemHeap) removeMin() item {
	a := *h
	min := a[0]
	n := len(a) - 1
	it := a[n]
	a[n] = item{}
	a = a[:n]
	*h = a
	if n == 0 {
		return min
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && less(a[r], a[l]) {
			m = r
		}
		if !less(a[m], it) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = it
	return min
}

// Heap is a binary min-heap Queue: O(log n) per operation and
// allocation-free in steady state. It implements Canceler with lazy
// cancellation: Cancel marks the entry dead in O(1) and dequeue skips
// corpses. The zero value is ready to use.
type Heap struct {
	items itemHeap
	seq   uint64
	dead  int // cancelled entries still physically in items
	pool  nodePool
}

// NewHeap returns an empty binary-heap event queue.
func NewHeap() *Heap { return &Heap{} }

// Push schedules an event.
func (q *Heap) Push(ev Event) {
	q.seq++
	q.items.push(item{ev: ev, t: ev.Time(), key: orderKeyOf(ev), seq: q.seq})
}

// Reserve takes the next n sequence numbers and returns the first.
func (q *Heap) Reserve(n int) uint64 {
	base := q.seq + 1
	q.seq += uint64(n)
	return base
}

// PushSeq schedules an event under a reserved sequence number.
func (q *Heap) PushSeq(ev Event, seq uint64) {
	q.items.push(item{ev: ev, t: ev.Time(), key: orderKeyOf(ev), seq: seq})
}

// PushCancelable schedules an event and returns a cancellation handle.
func (q *Heap) PushCancelable(ev Event) Handle {
	q.seq++
	n := q.pool.get()
	n.ev = ev
	q.items.push(item{ev: ev, t: ev.Time(), key: orderKeyOf(ev), seq: q.seq, n: n})
	return Handle{n: n, gen: n.gen}
}

// Cancel marks a scheduled event dead. The entry stays in the heap until
// dequeue reaches it, but its event is returned to the caller now and
// never touched again.
func (q *Heap) Cancel(h Handle) (Event, bool) {
	n := h.n
	if n == nil || n.gen != h.gen || n.dead {
		return nil, false
	}
	ev := n.ev
	n.ev = nil
	n.dead = true
	q.dead++
	return ev, true
}

// head discards cancelled entries at the root and returns the earliest
// live entry, or nil when the queue is empty.
func (q *Heap) head() *item {
	for len(q.items) > 0 {
		it := &q.items[0]
		if it.n == nil || !it.n.dead {
			return it
		}
		q.pool.put(it.n)
		q.items.removeMin()
		q.dead--
	}
	return nil
}

// Pop removes and returns the earliest live event, or nil if the queue is
// empty.
func (q *Heap) Pop() Event { return q.PopUntil(simtime.Never) }

// PopUntil removes and returns the earliest live event if it fires at or
// before until; otherwise it returns nil.
func (q *Heap) PopUntil(until simtime.Time) Event {
	it := q.head()
	if it == nil || it.t > until {
		return nil
	}
	if it.n != nil {
		q.pool.put(it.n)
	}
	return q.items.removeMin().ev
}

// Peek returns the earliest live event without removing it, or nil.
func (q *Heap) Peek() Event {
	if it := q.head(); it != nil {
		return it.ev
	}
	return nil
}

// Len returns the number of live queued events.
func (q *Heap) Len() int { return len(q.items) - q.dead }

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
