package eventq

import (
	"math/bits"

	"horse/internal/simtime"
)

// Wheel is a hierarchical timing wheel (Varghese & Lauck, SOSP 1987; the
// mintmr minute-wheel lineage) implementing Queue and Canceler. Firing
// times quantize into ticks; each of the wheelLevels levels holds
// wheelSlots slots, with a level-i slot spanning wheelSlots^i ticks.
// Level 0 holds the wheelSlots ticks that follow the cursor, wherever the
// cursor sits in its aligned block, so an event less than wheelSlots
// ticks ahead goes straight to its final slot; a farther one goes to the
// higher level picked by the highest bit group in which its tick differs
// from the cursor's. Schedule is O(1), onto that slot's index-linked
// chain. Cancel is O(1) true removal: the record unlinks from its chain
// and returns to the free list — no corpse remains to heapify or fire.
// Far-future events beyond the top level's horizon wait in an overflow
// list and cascade down when the wheel drains up to them.
//
// Determinism matches the heap exactly. A level-0 slot is one tick wide,
// so its whole chain comes due at once, and the chain is kept in
// (time, key, FIFO-seq) order as records arrive: each is linked in
// walking back from the chain's tail, which is where events pushed in
// time order belong, and a push later than everything on the chain skips
// the walk. When the cursor reaches the slot, the chain is the ready run
// as it stands, and pops take its head. Higher slots and the overflow
// list are unordered; the records a cascade or refill lands on the
// cursor tick, the events pushed at or before the cursor tick, and the
// chain of a slot that gave up its order (a record that would have walked
// back more than sortWalk places) go to a side min-heap (late) under the
// same order, and a pop takes the smaller of the two heads. A same-instant
// burst of r events therefore costs O(log r) per event however it
// arrives. Since every event in a pending slot fires strictly after
// everything due, pops leave the wheel in exactly the (time, key, seq)
// order a heap would produce, byte for byte.
//
// Advancing skips empty regions via per-level occupancy bitmaps: the next
// occupied slot is found with a handful of word scans, not a tick-by-tick
// rotation, so a sparse wheel is as cheap to drain as a heap.
type Wheel struct {
	slab
	// cur is the current tick: every event at a tick <= cur is in the
	// cursor slot's chain or the late heap (or already popped); other
	// slots and the overflow list hold ticks > cur.
	cur uint64
	// heads holds the first record of every slot chain, level by level,
	// and last the overflow list's; tails the last record of each
	// level-0 chain.
	heads [ovList + 1]int32
	tails [wheelSlots]int32
	// lastT bounds the time of each level-0 chain's tail from above, so
	// a record pushed later than that joins the tail without a look at
	// the tail record.
	lastT [wheelSlots]simtime.Time
	occ   [wheelLevels][wheelSlots / 64]uint64
	// unordered marks the level-0 slots whose chains gave up their order.
	unordered [wheelSlots / 64]uint64
	// ovBoundary is the absolute tick at and beyond which events go to
	// the overflow list (past level 0). It moves only when the cursor
	// reaches it or jumps to the overflow list, rather than tracking the
	// cursor, so a late push can never leapfrog into a slot ahead of an
	// already-overflowed earlier event.
	ovBoundary uint64
	// late is a min-heap of due events that are not on the cursor slot's
	// chain. Cancelled entries stay in it until they reach the root.
	late entryHeap
}

const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelLevels = 4
	wheelMask   = wheelSlots - 1
	ovList      = wheelLevels * wheelSlots // heads index of the overflow list
	// sortWalk bounds how far a record walks back a level-0 chain.
	sortWalk = 16
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
func (w *Wheel) Push(ev Event) { w.PushKeyed(ev, ev.Time(), KeyOf(ev), 0) }

// PushCancelable schedules an event and returns a cancellation handle.
func (w *Wheel) PushCancelable(ev Event) Handle { return w.PushKeyed(ev, ev.Time(), KeyOf(ev), 0) }

// PushKeyed schedules ev at t under key and seq (0 for the next). Level-0
// chains and the late heap order by the full (time, key, seq) triple, so
// a reserved seq pushed out of order lands exactly where the heap would
// put it.
func (w *Wheel) PushKeyed(ev Event, t simtime.Time, key, seq uint64) Handle {
	i, r := w.alloc(ev, t, key, seq)
	w.place(i, r)
	return handle(i, r)
}

// place links record i (r) by its tick: into the late heap once the
// cursor has reached it, into level 0 within wheelSlots ticks of the
// cursor, and otherwise into the slot of the level of the highest bit
// group in which it differs from the cursor, or onto the overflow list.
func (w *Wheel) place(i int32, r *rec) {
	d := tickOf(r.t)
	if d <= w.cur {
		r.where = whereReady
		w.late.push(entry{r.order, i})
		return
	}
	if d-w.cur < wheelSlots {
		w.insert0(int(d&wheelMask), i, r)
		return
	}
	level := uint(bits.Len64(d^w.cur)-1) / wheelBits
	if level >= wheelLevels-1 {
		if d >= w.ovBoundary {
			w.link(ovList, i, r)
			return
		}
		level = wheelLevels - 1
	}
	slot := uint(d>>(level*wheelBits)) & wheelMask
	w.link(int(level<<wheelBits|slot), i, r)
	w.occ[level][slot>>6] |= 1 << (slot & 63)
}

// insert0 links record i into level-0 chain s in (time, key, seq) order,
// walking back from the tail, unless the chain has given up its order or
// does so now, in which case i goes to the tail.
func (w *Wheel) insert0(s int, i int32, r *rec) {
	bit := uint64(1) << (s & 63)
	at := w.tails[s] // i goes after at
	if at == 0 || r.t > w.lastT[s] {
		w.lastT[s] = r.t
	} else if w.unordered[s>>6]&bit == 0 {
		for k := 0; at != 0; k++ {
			a := w.rec(at)
			if !r.before(&a.order) {
				break
			}
			if k == sortWalk {
				w.unordered[s>>6] |= bit
				at = w.tails[s]
				break
			}
			at = a.prev
		}
	}
	r.where, r.prev = uint16(s), at
	if at == 0 {
		r.next, w.heads[s] = w.heads[s], i
	} else {
		a := w.rec(at)
		r.next, a.next = a.next, i
	}
	if r.next == 0 {
		w.tails[s] = i
	} else {
		w.rec(r.next).prev = i
	}
	w.occ[0][s>>6] |= bit
}

// link pushes record i onto the front of unordered chain idx.
func (w *Wheel) link(idx int, i int32, r *rec) {
	r.where, r.prev, r.next = uint16(idx), 0, w.heads[idx]
	if r.next != 0 {
		w.rec(r.next).prev = i
	}
	w.heads[idx] = i
}

// unlink takes record i off its chain, clearing the slot's occupancy bit
// (and a level-0 slot's unordered mark) when the chain empties.
func (w *Wheel) unlink(i int32, r *rec) {
	idx := int(r.where)
	if r.prev != 0 {
		w.rec(r.prev).next = r.next
	} else {
		w.heads[idx] = r.next
	}
	if r.next != 0 {
		w.rec(r.next).prev = r.prev
	} else if idx < wheelSlots {
		w.tails[idx] = r.prev
	}
	if w.heads[idx] == 0 && idx < ovList {
		w.occ[idx>>wheelBits][idx&wheelMask>>6] &^= 1 << (idx & 63)
		if idx < wheelSlots {
			w.unordered[idx>>6] &^= 1 << (idx & 63)
		}
	}
}

// Cancel removes a scheduled event. A chained record unlinks and recycles
// in O(1); a record in the late heap is marked dead and released when it
// reaches the root.
func (w *Wheel) Cancel(h Handle) (Event, bool) {
	i, ok := w.lookup(h)
	if !ok {
		return nil, false
	}
	r := w.rec(i)
	if r.where == whereReady {
		return w.kill(i, r), true
	}
	w.unlink(i, r)
	w.n--
	return w.release(i, r), true
}

// head returns the earliest live record — the late heap's root or the
// head of the cursor slot's chain, as late says — advancing the cursor
// when nothing is due and releasing cancelled records on the way. It
// returns 0 when the queue is empty.
func (w *Wheel) head() (i int32, late bool) {
	for {
		for len(w.late) > 0 {
			j := w.late[0].i
			r := w.rec(j)
			if r.where != whereDead {
				break
			}
			w.release(j, r)
			w.late.pop()
		}
		i = w.heads[w.cur&wheelMask]
		if len(w.late) > 0 && (i == 0 || w.late[0].before(&w.rec(i).order)) {
			return w.late[0].i, true
		}
		if i != 0 || w.n == 0 {
			return i, false
		}
		w.advance()
	}
}

// Pop removes and returns the earliest live event, or nil if empty.
func (w *Wheel) Pop() Event {
	ev, _, _ := w.PopUntil(simtime.Never)
	return ev
}

// PopUntil removes and returns the earliest live event, with its time and
// order key, if it fires at or before until; otherwise it returns a nil
// event.
func (w *Wheel) PopUntil(until simtime.Time) (Event, simtime.Time, uint64) {
	i, late := w.head()
	if i == 0 {
		return nil, 0, 0
	}
	r := w.rec(i)
	if r.t > until {
		return nil, 0, 0
	}
	if late {
		w.late.pop()
	} else {
		w.unlink(i, r)
	}
	return w.pop(i, r)
}

// Peek returns the earliest live event without removing it, or nil.
func (w *Wheel) Peek() Event {
	if i, _ := w.head(); i != 0 {
		return *w.ev(i)
	}
	return nil
}

// advance moves the cursor on until something is due, with nothing due
// when it is called. The next occupied level-0 slot in the cursor's
// aligned block comes first: its chain becomes the ready run as it
// stands, once settled. Past
// the block, level 0 may still hold ticks of the next block (enter), or
// else the next event lies on a higher level or the overflow list
// (jump). Records a cascade lands on the cursor tick go to the late heap.
func (w *Wheel) advance() {
	for {
		if s, ok := w.nextOcc(0, int(w.cur&wheelMask)+1); ok {
			w.cur = w.cur&^wheelMask | uint64(s)
			w.settle(s)
			return
		}
		if w.occ[0] != [wheelSlots / 64]uint64{} {
			w.enter((w.cur>>wheelBits + 1) << wheelBits)
		} else {
			w.jump()
		}
		if len(w.late) > 0 || w.heads[w.cur&wheelMask] != 0 {
			return
		}
	}
}

// enter moves the cursor to nb, the start of the next level-0 block, when
// level 0 still holds events there, settles slot 0 (nb's), and cascades
// the one slot that can hold more of them: that of the lowest level whose digit of nb is not
// zero, or the overflow list when nb starts a new top-level window.
func (w *Wheel) enter(nb uint64) {
	w.cur = nb
	w.settle(0)
	for level := 1; level < wheelLevels; level++ {
		if s := int(nb>>(level*wheelBits)) & wheelMask; s != 0 {
			w.replaceChain(level<<wheelBits | s)
			return
		}
	}
	w.ovBoundary = w.windowEnd(wheelLevels - 1)
	w.replaceChain(ovList)
}

// settle readies level-0 slot s, which the cursor has just reached: a
// chain that gave up its order moves to the late heap, so pops never take
// it as it stands.
func (w *Wheel) settle(s int) {
	if bit := uint64(1) << (s & 63); w.unordered[s>>6]&bit != 0 {
		w.unordered[s>>6] &^= bit
		w.replaceChain(s)
	}
}

// jump moves the cursor, with level 0 empty, to the start of the next
// occupied higher slot and cascades it, or refills from the overflow
// list when there is none.
func (w *Wheel) jump() {
	for level := 1; level < wheelLevels; level++ {
		shift := level * wheelBits
		if s, ok := w.nextOcc(level, int(w.cur>>shift&wheelMask)+1); ok {
			w.cur = w.cur&^(1<<(shift+wheelBits)-1) | uint64(s)<<shift
			w.replaceChain(level<<wheelBits | s)
			return
		}
	}
	w.refillFromOverflow()
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

// replaceChain empties chain idx and places every record on it again
// from the current cursor.
func (w *Wheel) replaceChain(idx int) {
	i := w.heads[idx]
	w.heads[idx] = 0
	if idx < wheelSlots {
		w.tails[idx] = 0
	}
	if idx < ovList {
		w.occ[idx>>wheelBits][idx&wheelMask>>6] &^= 1 << (idx & 63)
	}
	for i != 0 {
		r := w.rec(i)
		next := r.next
		w.place(i, r)
		i = next
	}
}

// refillFromOverflow jumps the cursor to the earliest overflowed tick,
// re-anchors the overflow boundary there, and places every record again:
// those still beyond the new boundary go back onto the overflow list.
func (w *Wheel) refillFromOverflow() {
	if w.heads[ovList] == 0 {
		panic("eventq: wheel invariant violated: live events but nothing scheduled")
	}
	w.cur = ^uint64(0)
	for i := w.heads[ovList]; i != 0; i = w.rec(i).next {
		w.cur = min(w.cur, tickOf(w.rec(i).t))
	}
	w.ovBoundary = w.windowEnd(wheelLevels - 1)
	w.replaceChain(ovList)
}
