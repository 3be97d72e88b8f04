package eventq

import (
	"math/bits"

	"horse/internal/grow"
	"horse/internal/simtime"
)

// Wheel is a hierarchical timing wheel (Varghese & Lauck, SOSP 1987; the
// mintmr minute-wheel lineage) implementing Queue and Canceler. Firing
// times quantize into ticks; each of the wheelLevels levels holds
// wheelSlots slots, with a level-i slot spanning wheelSlots^i ticks.
// Schedule is O(1): the tick picks a level by distance from the cursor and
// an intrusive doubly-linked node goes onto that slot's chain. Cancel is
// O(1) true removal: the node unlinks from its chain and recycles
// immediately — no corpse remains to heapify or fire. Far-future events
// beyond the top level's horizon wait in an overflow list and cascade
// down when the wheel drains up to them.
//
// Determinism matches the heap exactly. Slot chains are unordered, but
// every node that becomes due when the cursor advances — a drained
// level-0 slot, or the part of a cascaded slot or overflow refill that
// lands on the cursor tick — is appended to the "ready run" and the run
// is sorted once, by the cached (time, key, FIFO-seq) triple, before
// anything pops. Events pushed at or before the cursor's tick afterwards
// go to a side min-heap (late) under the same order, and Pop takes the
// smaller of the two heads. A same-instant burst of r events therefore
// costs O(log r) per event however it arrives — one sort for the ones
// that cascade in together, a heap push for each follow-up — and draining
// a slot keeps its O(1) pop. Since every event in a pending slot fires
// strictly after everything that is ready, pops leave the wheel in exactly
// the (time, key, seq) order a heap would produce, byte for byte.
//
// Advancing skips empty regions via per-level occupancy bitmaps: the next
// occupied slot is found with a handful of word scans, not a tick-by-tick
// rotation, so a sparse wheel is as cheap to drain as a heap.
type Wheel struct {
	// cur is the current tick: every event at a tick <= cur is ready (or
	// already popped); slots and overflow hold ticks > cur.
	cur   uint64
	heads [wheelLevels * wheelSlots]*node
	occ   [wheelLevels][wheelSlots / 64]uint64
	// ovBoundary is the absolute tick at and beyond which events go to
	// the overflow list. It is fixed between overflow refills (rather
	// than tracking the cursor) so a late push can never leapfrog into a
	// slot ahead of an already-overflowed earlier event.
	ovBoundary uint64
	overflow   *node

	// ready is the sorted run filled by advance; ready[readyAt:] is
	// pending. late holds events pushed at or before the cursor tick.
	ready     []item
	readyAt   int
	late      itemHeap
	liveReady int // live (uncancelled) items in ready[readyAt:] and late

	n    int // live events across ready, late, slots, and overflow
	seq  uint64
	pool nodePool
}

const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelLevels = 4
	wheelMask   = wheelSlots - 1
)

// DefaultWheelTick is the tick width: fine enough that most packet-level
// events land in a slot of their own, coarse enough that four 256-slot
// levels span over an hour of simulated time before the overflow list is
// needed.
const DefaultWheelTick = simtime.Microsecond

// NewWheel returns an empty timing wheel.
func NewWheel() *Wheel {
	w := &Wheel{}
	w.ovBoundary = w.windowEnd(wheelLevels - 1)
	return w
}

func tickOf(t simtime.Time) uint64 {
	if t < 0 {
		return 0
	}
	return uint64(t) / uint64(DefaultWheelTick)
}

// windowEnd returns the first tick past the span that level `level` can
// address from the current cursor: the end of the cursor's enclosing
// level-(level+1) slot.
func (w *Wheel) windowEnd(level int) uint64 {
	shift := uint((level + 1) * wheelBits)
	return (w.cur>>shift + 1) << shift
}

// Push schedules an event.
func (w *Wheel) Push(ev Event) {
	w.seq++
	w.push(ev, w.seq)
}

// PushCancelable schedules an event and returns a cancellation handle.
func (w *Wheel) PushCancelable(ev Event) Handle {
	w.seq++
	n := w.push(ev, w.seq)
	return Handle{n: n, gen: n.gen}
}

// Reserve takes the next n sequence numbers and returns the first.
func (w *Wheel) Reserve(n int) uint64 {
	base := w.seq + 1
	w.seq += uint64(n)
	return base
}

// PushSeq schedules an event under a reserved sequence number. Slots and
// the overflow list are unordered and the ready run and late heap order
// by the full (time, key, seq) triple, so an out-of-order seq lands
// exactly where the heap would put it.
func (w *Wheel) PushSeq(ev Event, seq uint64) { w.push(ev, seq) }

func (w *Wheel) push(ev Event, seq uint64) *node {
	n := w.pool.get()
	n.ev = ev
	n.t = ev.Time()
	n.key = orderKeyOf(ev)
	n.seq = seq
	if d := tickOf(n.t); d > w.cur {
		w.insertAhead(n, d)
	} else {
		n.where = whereReady
		w.late.push(n.item())
		w.liveReady++
	}
	w.n++
	return n
}

// insertAhead routes a node whose tick d lies ahead of the cursor to a
// slot or the overflow list according to its distance.
func (w *Wheel) insertAhead(n *node, d uint64) {
	switch {
	case d < w.windowEnd(0):
		w.insertSlot(0, int(d&wheelMask), n)
	case d < w.windowEnd(1):
		w.insertSlot(1, int(d>>wheelBits&wheelMask), n)
	case d < w.windowEnd(2):
		w.insertSlot(2, int(d>>(2*wheelBits)&wheelMask), n)
	case d < w.ovBoundary:
		w.insertSlot(3, int(d>>(3*wheelBits)&wheelMask), n)
	default:
		w.insertOverflow(n)
	}
}

// replace re-routes a node taken off a chain while the cursor advances:
// onto the (not yet sorted) ready run if the cursor has reached its tick,
// otherwise to the lower level its shrunken distance now selects.
func (w *Wheel) replace(n *node) {
	if d := tickOf(n.t); d > w.cur {
		w.insertAhead(n, d)
		return
	}
	n.where = whereReady
	w.ready = grow.Push(w.ready, n.item())
	w.liveReady++
}

func (w *Wheel) insertSlot(level, slot int, n *node) {
	idx := level<<wheelBits | slot
	n.where = uint16(idx)
	n.prev = nil
	n.next = w.heads[idx]
	if w.heads[idx] != nil {
		w.heads[idx].prev = n
	}
	w.heads[idx] = n
	w.occ[level][slot>>6] |= 1 << (uint(slot) & 63)
}

func (w *Wheel) insertOverflow(n *node) {
	n.where = whereOverflow
	n.prev = nil
	n.next = w.overflow
	if w.overflow != nil {
		w.overflow.prev = n
	}
	w.overflow = n
}

// Cancel removes a scheduled event. Slot and overflow entries unlink and
// recycle in O(1); a ready entry (run or late heap) is marked dead and
// skipped on pop.
func (w *Wheel) Cancel(h Handle) (Event, bool) {
	n := h.n
	if n == nil || n.gen != h.gen || n.dead {
		return nil, false
	}
	ev := n.ev
	switch n.where {
	case whereReady:
		n.ev = nil
		n.dead = true
		w.liveReady--
		w.n--
		// Node recycles when dequeue reaches it.
	case whereOverflow:
		if n.prev != nil {
			n.prev.next = n.next
		} else {
			w.overflow = n.next
		}
		if n.next != nil {
			n.next.prev = n.prev
		}
		w.n--
		w.pool.put(n)
	case whereNone:
		return nil, false
	default:
		w.unlinkSlot(n)
		w.n--
		w.pool.put(n)
	}
	return ev, true
}

func (w *Wheel) unlinkSlot(n *node) {
	idx := int(n.where)
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		w.heads[idx] = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	if w.heads[idx] == nil {
		level, slot := idx>>wheelBits, idx&wheelMask
		w.occ[level][slot>>6] &^= 1 << (uint(slot) & 63)
	}
}

// head makes the earliest live event the head of the ready run or of the
// late heap — advancing the cursor if nothing is ready, discarding
// cancelled entries on the way — and returns it with which of the two
// holds it. It returns nil when the queue is empty.
func (w *Wheel) head() (it *item, late bool) {
	for {
		if w.liveReady == 0 {
			if w.n == 0 {
				w.purgeReady()
				return nil, false
			}
			w.advance()
		}
		late = len(w.late) > 0 && (w.readyAt == len(w.ready) || less(w.late[0], w.ready[w.readyAt]))
		if late {
			it = &w.late[0]
		} else {
			it = &w.ready[w.readyAt]
		}
		if !it.n.dead {
			return it, late
		}
		w.pool.put(it.n)
		w.dropHead(late)
	}
}

// dropHead removes the entry head returned.
func (w *Wheel) dropHead(late bool) {
	if late {
		w.late.removeMin()
		return
	}
	w.ready[w.readyAt] = item{}
	w.readyAt++
	if w.readyAt == len(w.ready) {
		w.ready = w.ready[:0]
		w.readyAt = 0
	}
}

// Pop removes and returns the earliest live event, or nil if empty.
func (w *Wheel) Pop() Event { return w.PopUntil(simtime.Never) }

// PopUntil removes and returns the earliest live event if it fires at or
// before until; otherwise it returns nil.
func (w *Wheel) PopUntil(until simtime.Time) Event {
	it, late := w.head()
	if it == nil || it.t > until {
		return nil
	}
	ev := it.ev
	w.pool.put(it.n)
	w.dropHead(late)
	w.liveReady--
	w.n--
	return ev
}

// Peek returns the earliest live event without removing it, or nil.
func (w *Wheel) Peek() Event {
	if it, _ := w.head(); it != nil {
		return it.ev
	}
	return nil
}

// Len returns the number of live queued events.
func (w *Wheel) Len() int { return w.n }

// purgeReady recycles any dead entries left in the ready run and the late
// heap and resets both.
func (w *Wheel) purgeReady() {
	for i := w.readyAt; i < len(w.ready); i++ {
		w.pool.put(w.ready[i].n)
		w.ready[i] = item{}
	}
	w.ready = w.ready[:0]
	w.readyAt = 0
	for i := range w.late {
		w.pool.put(w.late[i].n)
		w.late[i] = item{}
	}
	w.late = w.late[:0]
}

// advance moves the cursor to the next occupied tick and fills the ready
// run with everything due there: a whole level-0 slot, or the nodes a
// cascaded higher-level slot (or, as a last resort, the overflow list)
// holds at exactly the tick the cursor jumps to. The run is sorted once,
// after the whole batch is in. Precondition: no live ready items;
// postcondition: liveReady > 0.
func (w *Wheel) advance() {
	w.purgeReady()
	for w.liveReady == 0 {
		if s, ok := w.nextOcc(0, int(w.cur&wheelMask)); ok {
			w.cur = w.cur&^uint64(wheelMask) | uint64(s)
			w.cascade(0, s)
		} else if s, ok := w.nextOcc(1, int(w.cur>>wheelBits&wheelMask)+1); ok {
			w.cur = w.cur&^(1<<(2*wheelBits)-1) | uint64(s)<<wheelBits
			w.cascade(1, s)
		} else if s, ok := w.nextOcc(2, int(w.cur>>(2*wheelBits)&wheelMask)+1); ok {
			w.cur = w.cur&^(1<<(3*wheelBits)-1) | uint64(s)<<(2*wheelBits)
			w.cascade(2, s)
		} else if s, ok := w.nextOcc(3, int(w.cur>>(3*wheelBits)&wheelMask)+1); ok {
			w.cur = w.cur&^(1<<(4*wheelBits)-1) | uint64(s)<<(3*wheelBits)
			w.cascade(3, s)
		} else if w.overflow != nil {
			w.refillFromOverflow()
		} else {
			panic("eventq: wheel invariant violated: live events but nothing scheduled")
		}
	}
	// Chains are pushed at the front, so reversing recovers FIFO order,
	// which makes the sort linear for the common already-ordered case.
	run := w.ready
	for i, j := 0, len(run)-1; i < j; i, j = i+1, j-1 {
		run[i], run[j] = run[j], run[i]
	}
	sortItems(run)
}

// nextOcc scans level's occupancy bitmap for the first occupied slot at or
// after from.
func (w *Wheel) nextOcc(level, from int) (int, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	word := from >> 6
	b := w.occ[level][word] &^ (1<<(uint(from)&63) - 1)
	for {
		if b != 0 {
			return word<<6 + bits.TrailingZeros64(b), true
		}
		word++
		if word >= wheelSlots/64 {
			return 0, false
		}
		b = w.occ[level][word]
	}
}

// cascade empties the slot at (level, s) and re-places each node with the
// cursor now inside the slot's window, pushing it to a lower level or, for
// nodes at exactly the cursor tick (all of them, at level 0), onto the
// ready run.
func (w *Wheel) cascade(level, s int) {
	idx := level<<wheelBits | s
	n := w.heads[idx]
	w.heads[idx] = nil
	w.occ[level][s>>6] &^= 1 << (uint(s) & 63)
	for n != nil {
		next := n.next
		n.prev, n.next = nil, nil
		w.replace(n)
		n = next
	}
}

// refillFromOverflow jumps the cursor to the earliest overflowed tick,
// re-anchors the overflow boundary there, and re-places every node that
// now fits under it.
func (w *Wheel) refillFromOverflow() {
	min := ^uint64(0)
	for n := w.overflow; n != nil; n = n.next {
		if d := tickOf(n.t); d < min {
			min = d
		}
	}
	w.cur = min
	w.ovBoundary = w.windowEnd(wheelLevels - 1)
	n := w.overflow
	w.overflow = nil
	for n != nil {
		next := n.next
		n.prev, n.next = nil, nil
		if tickOf(n.t) < w.ovBoundary {
			w.replace(n)
		} else {
			w.insertOverflow(n)
		}
		n = next
	}
}

// sortItems orders a drained run by (time, key, seq). Small runs use an
// insertion sort (linear when already ordered); larger runs use an
// in-place heapsort to bound the worst case. Both are allocation-free,
// and stability is irrelevant because seq makes the order total.
func sortItems(a []item) {
	if len(a) <= 32 {
		for i := 1; i < len(a); i++ {
			it := a[i]
			j := i
			for j > 0 && less(it, a[j-1]) {
				a[j] = a[j-1]
				j--
			}
			a[j] = it
		}
		return
	}
	for i := len(a)/2 - 1; i >= 0; i-- {
		siftDownMax(a, i)
	}
	for end := len(a) - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		siftDownMax(a[:end], 0)
	}
}

func siftDownMax(a []item, i int) {
	it := a[i]
	n := len(a)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && less(a[l], a[r]) {
			m = r
		}
		if !less(it, a[m]) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = it
}
