package eventq

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"horse/internal/simtime"
)

type keyedEvent struct {
	t   simtime.Time
	key uint64
	id  int
}

func (e *keyedEvent) Time() simtime.Time { return e.t }
func (e *keyedEvent) OrderKey() uint64   { return e.key }
func (e *keyedEvent) Fire()              {}
func (e *keyedEvent) Release()           {}

// cancelers lists every backend in a stable order; all of them implement
// Canceler.
func cancelers() []struct {
	name string
	mk   func() Canceler
} {
	return []struct {
		name string
		mk   func() Canceler
	}{
		{"heap", func() Canceler { return NewHeap() }},
		{"wheel", func() Canceler { return NewWheel() }},
	}
}

func TestCancelSemantics(t *testing.T) {
	for _, be := range cancelers() {
		q := be.mk()
		a := &keyedEvent{t: 100, key: 1, id: 0}
		b := &keyedEvent{t: 200, key: 1, id: 1}
		c := &keyedEvent{t: 300, key: 1, id: 2}
		ha := q.PushCancelable(a)
		q.Push(b)
		hc := q.PushCancelable(c)
		if q.Len() != 3 {
			t.Fatalf("%s: Len = %d, want 3", be.name, q.Len())
		}
		if ev, ok := q.Cancel(ha); !ok || ev != a {
			t.Fatalf("%s: Cancel(a) = (%v, %v), want (a, true)", be.name, ev, ok)
		}
		if q.Len() != 2 {
			t.Fatalf("%s: Len after cancel = %d, want 2", be.name, q.Len())
		}
		if ev, ok := q.Cancel(ha); ok || ev != nil {
			t.Fatalf("%s: double Cancel = (%v, %v), want (nil, false)", be.name, ev, ok)
		}
		if ev, ok := q.Cancel(Handle{}); ok || ev != nil {
			t.Fatalf("%s: zero-handle Cancel = (%v, %v), want (nil, false)", be.name, ev, ok)
		}
		if got := q.Peek(); got != b {
			t.Fatalf("%s: Peek = %v, want b (a was cancelled)", be.name, got)
		}
		if got := q.Pop(); got != b {
			t.Fatalf("%s: Pop = %v, want b", be.name, got)
		}
		if got := q.Pop(); got != c {
			t.Fatalf("%s: Pop = %v, want c", be.name, got)
		}
		// c has fired: its handle is stale now.
		if ev, ok := q.Cancel(hc); ok || ev != nil {
			t.Fatalf("%s: Cancel after fire = (%v, %v), want (nil, false)", be.name, ev, ok)
		}
		if q.Len() != 0 || q.Pop() != nil {
			t.Fatalf("%s: queue not empty after drain", be.name)
		}
	}
}

// qop is one step of a scripted queue workload, shared by the randomized
// cross-backend test and the fuzz target.
type qop struct {
	kind byte   // 0 push, 1 push-cancelable, 2 cancel, 3 pop, 4 peek, 5 pop-until, 6 reserve, 7 push-seq
	dt   int64  // firing-time (or pop bound) offset from the drive clock (ns)
	key  uint64 // order key
	idx  int    // which recorded handle to cancel
}

// driveScript applies ops to a queue and returns a transcript of every
// observable result. Two backends are equivalent iff their transcripts
// match for every script.
func driveScript(q Queue, ops []qop) []string {
	c, _ := q.(Canceler)
	var out []string
	var handles []Handle
	var reserved []uint64 // reserved sequence numbers not yet pushed
	clock := simtime.Time(0)
	id := 0
	for _, op := range ops {
		switch op.kind {
		case 0:
			q.Push(&keyedEvent{t: clock.Add(simtime.Duration(op.dt)), key: op.key, id: id})
			id++
		case 1:
			h := c.PushCancelable(&keyedEvent{t: clock.Add(simtime.Duration(op.dt)), key: op.key, id: id})
			handles = append(handles, h)
			id++
		case 2:
			if len(handles) > 0 {
				h := handles[op.idx%len(handles)]
				ev, ok := c.Cancel(h)
				evid := -1
				if ev != nil {
					evid = ev.(*keyedEvent).id
				}
				out = append(out, fmt.Sprintf("cancel %v %d", ok, evid))
			}
		case 3, 5:
			until := simtime.Never
			if op.kind == 5 {
				until = clock.Add(simtime.Duration(op.dt))
			}
			ev, at, key := q.PopUntil(until)
			if ev == nil {
				out = append(out, "pop nil")
			} else {
				ke := ev.(*keyedEvent)
				clock = ke.t
				// The popped time and key are the ones the event was
				// queued under.
				out = append(out, fmt.Sprintf("pop %d@%d k%d (%d k%d)", ke.id, int64(ke.t), ke.key, int64(at), key))
			}
		case 6:
			n := int(op.key%8) + 1
			base := q.Reserve(n)
			for i := 0; i < n; i++ {
				reserved = append(reserved, base+uint64(i))
			}
			out = append(out, fmt.Sprintf("reserve %d", base))
		case 7:
			// Reserved numbers are used in any order the script picks,
			// interleaved with ordinary pushes.
			if len(reserved) > 0 {
				i := op.idx % len(reserved)
				ev := &keyedEvent{t: clock.Add(simtime.Duration(op.dt)), key: op.key, id: id}
				c.PushKeyed(ev, ev.t, ev.key, reserved[i])
				reserved = append(reserved[:i], reserved[i+1:]...)
				id++
			}
		case 4:
			ev := q.Peek()
			if ev == nil {
				out = append(out, "peek nil")
			} else {
				ke := ev.(*keyedEvent)
				out = append(out, fmt.Sprintf("peek %d@%d", ke.id, int64(ke.t)))
			}
		}
		out = append(out, fmt.Sprintf("len %d", q.Len()))
	}
	for {
		ev := q.Pop()
		if ev == nil {
			break
		}
		ke := ev.(*keyedEvent)
		out = append(out, fmt.Sprintf("drain %d@%d", ke.id, int64(ke.t)))
	}
	return out
}

func compareScripts(t *testing.T, ops []qop) {
	t.Helper()
	var ref []string
	refName := ""
	for _, be := range cancelers() {
		got := driveScript(be.mk(), ops)
		if ref == nil {
			ref, refName = got, be.name
			continue
		}
		n := len(ref)
		if len(got) < n {
			n = len(got)
		}
		for i := 0; i < n; i++ {
			if got[i] != ref[i] {
				t.Fatalf("%s diverges from %s at step %d: %q vs %q", be.name, refName, i, got[i], ref[i])
			}
		}
		if len(got) != len(ref) {
			t.Fatalf("%s transcript length %d != %s length %d (first %d steps agree)", be.name, len(got), refName, len(ref), n)
		}
	}
}

// TestCrossBackendCancelProperty drives every backend through randomized
// (time, key, cancel) workloads and requires transcript-identical
// behavior: same pop sequence, same Len after every op, same cancel
// outcomes. Time offsets span every wheel level and the overflow list.
// Offsets are never negative (as every engine guarantees); past-time
// inserts are covered by the heap-oracle fuzz target instead.
func TestCrossBackendCancelProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(1200)
		ops := make([]qop, n)
		for i := range ops {
			op := qop{kind: byte(rng.Intn(8)), key: uint64(rng.Intn(5))}
			// Mostly pushes so the population grows; dt spread over
			// exponentially many scales so slots, cascades, and overflow
			// all trigger.
			if op.kind > 1 && rng.Intn(3) == 0 {
				op.kind = byte(rng.Intn(2))
			}
			op.dt = rng.Int63n(1 << uint(10+rng.Intn(35)))
			op.idx = rng.Intn(1 << 16)
			ops[i] = op
		}
		compareScripts(t, ops)
	}
}

// decodeOps turns fuzz bytes into a bounded op script (10 bytes per op).
func decodeOps(data []byte) []qop {
	const opLen = 10
	n := len(data) / opLen
	if n > 2048 {
		n = 2048
	}
	ops := make([]qop, 0, n)
	for i := 0; i < n; i++ {
		b := data[i*opLen : (i+1)*opLen]
		mant := int64(b[1])<<8 | int64(b[2])
		shift := uint(b[3]) % 44
		dt := mant << shift
		if b[4]&0x80 != 0 {
			dt = -dt
		}
		ops = append(ops, qop{
			kind: b[0] % 8,
			dt:   dt,
			key:  uint64(b[5]),
			idx:  int(b[6])<<8 | int(b[7]),
		})
	}
	return ops
}

// FuzzWheelVsHeap fuzzes the wheel's cascade/overflow/ready paths against
// the heap oracle: any decoded op script must produce identical
// transcripts. The seed corpus (plus testdata/fuzz) covers far-future
// overflow pushes, past-time ready inserts, cancel-heavy mixes, and
// same-instant bursts at hour-scale times.
func FuzzWheelVsHeap(f *testing.F) {
	// Interleaved near/far pushes with pops: exercises cascade.
	seed1 := make([]byte, 0, 400)
	for i := 0; i < 40; i++ {
		seed1 = append(seed1, byte(i%4), 0x12, byte(i*7), byte(i*3%44), 0, byte(i), 0, byte(i), 0, 0)
	}
	f.Add(seed1)
	// Far-future overflow pushes followed by a full drain.
	seed2 := make([]byte, 0, 400)
	for i := 0; i < 20; i++ {
		seed2 = append(seed2, 1, 0xff, 0xff, 43, 0, 1, 0, 0, 0, 0)
	}
	for i := 0; i < 20; i++ {
		seed2 = append(seed2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	}
	f.Add(seed2)
	// Cancel-heavy mix with past-time inserts.
	seed3 := make([]byte, 0, 600)
	for i := 0; i < 60; i++ {
		seed3 = append(seed3, byte([]byte{1, 1, 2, 3, 2}[i%5]), byte(i), byte(i*11), byte(i%30), byte(i<<7), byte(i%3), 0, byte(i%13), 0, 0)
	}
	f.Add(seed3)
	// Same-instant bursts at hour-scale times: one batch an hour out (it
	// cascades down from level 3), one two hours out (overflow list), then
	// pops interleaved with same-instant follow-ups under other keys, a
	// cancel, and a bounded pop.
	seed4 := make([]byte, 0, 4000)
	for i := 0; i < 120; i++ {
		shift := byte(26 + i%2) // 0xD18C<<26 ns ~ 1 h, <<27 ~ 2 h
		seed4 = append(seed4, byte(i%2), 0xD1, 0x8C, shift, 0, byte(i*37), 0, 0, 0, 0)
	}
	for i := 0; i < 260; i++ {
		seed4 = append(seed4, byte([]byte{3, 0, 1, 5, 2, 4}[i%6]), 0, 0, 0, 0, byte(i*91), 0, byte(i), 0, 0)
	}
	f.Add(seed4)
	// Reserved sequence numbers pushed out of order among ordinary pushes
	// at shared instants and keys: the ingestion-cursor pattern.
	seed5 := make([]byte, 0, 1200)
	for i := 0; i < 120; i++ {
		seed5 = append(seed5, byte([]byte{6, 7, 0, 7, 3, 7, 5}[i%7]), 0, byte(i%3), 4, 0, byte(i%2), 0, byte(i*13), 0, 0)
	}
	f.Add(seed5)
	f.Add(fattreeMixSeed())
	f.Add(blockStartBurstSeed(false))
	f.Add(blockStartBurstSeed(true))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeOps(data)
		if len(ops) == 0 {
			return
		}
		ref := driveScript(NewHeap(), ops)
		got := driveScript(NewWheel(), ops)
		if len(got) != len(ref) {
			t.Fatalf("wheel transcript length %d != heap %d", len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("wheel diverges from heap at step %d: %q vs %q", i, got[i], ref[i])
			}
		}
	})
}

// blockStartBurstSeed is the burst of TestWheelWindowBoundaries as a fuzz
// script: with the cursor mid-block, more than sortWalk same-instant
// events on the next block's first tick and then one that sorts before
// them, which leaves that tick's level-0 chain unordered. With far set the
// events lie beyond the wheel's horizon, ten ticks apart, so the overflow
// refill lands the cursor mid-block and places the burst newest first.
func blockStartBurstSeed(far bool) []byte {
	var b []byte
	op := func(kind byte, dt int64, shift, key byte) {
		m := dt >> shift
		b = append(b, kind, byte(m>>8), byte(m), shift, 0, key, 0, 0, 0, 0)
	}
	const block = wheelSlots * int64(DefaultWheelTick)
	dt, shift := 246*int64(DefaultWheelTick), byte(2)
	if !far {
		op(0, 10*int64(DefaultWheelTick), 0, 0)
		op(3, 0, 0, 0)
	} else {
		// The burst lands on a block start dt after a clock of c, and the
		// event before it ten ticks earlier, dt after a clock of c-10 µs.
		dt, shift = 0xffff<<26, 26
		c := (dt/block+1)*block - dt
		if c < 10*int64(DefaultWheelTick) {
			c += block
		}
		op(0, c-10*int64(DefaultWheelTick), 3, 0)
		op(0, c, 3, 0)
		op(3, 0, 0, 0)
		op(0, dt, shift, 0)
		op(3, 0, 0, 0)
	}
	for i := 0; i < 2*sortWalk; i++ {
		op(0, dt, shift, 5)
	}
	op(0, dt, shift, 1)
	return b
}

// fattreeMixSeed is a fuzz script shaped like the packet.fattree8
// benchmark workload at seed 1, where 1,067,019 pushes and 963,979 pops
// drain 269,994 ticks of 1–15 events each (46 k of one event, 111 k of
// 4–7): groups of 1–15 events on one tick 1–175 µs ahead, so about 31 %
// of pushes cross the aligned 256-tick window although few lie 256 µs or
// more ahead, and one push in ten a 200 ms RTO timer,
// nearly all cancelled while still in their slot. A heap replays the
// script as it is written, so each group lands on a tick of its own.
func fattreeMixSeed() []byte {
	rng := rand.New(rand.NewSource(1))
	q := NewHeap()
	var b []byte
	var handles []Handle
	clock := simtime.Time(0)
	op := func(kind byte, at simtime.Time, key byte, idx int) {
		dt, shift := int64(at-clock), byte(0)
		if kind == 1 || kind == 0 {
			for dt >= 1<<16 {
				dt >>= 1
				shift++
			}
		}
		b = append(b, kind, byte(dt>>8), byte(dt), shift, 0, key, byte(idx>>8), byte(idx), 0, 0)
		switch kind {
		case 0, 1:
			ev := &keyedEvent{t: clock.Add(simtime.Duration(dt << shift)), key: uint64(key)}
			if kind == 1 {
				handles = append(handles, q.PushCancelable(ev))
			} else {
				q.Push(ev)
			}
		case 2:
			q.Cancel(handles[idx])
		case 3:
			clock = q.Pop().Time()
		}
	}
	sizes := []int{1, 1, 1, 2, 3, 4, 4, 5, 5, 6, 6, 7, 7, 9, 12, 15}
	used := map[uint64]bool{}
	armed := -1
	for len(b) < 2000*10 {
		// One tick's worth of events 1–175 µs ahead; one group in 25 lies
		// 256 µs or more ahead.
		tick := tickOf(clock) + 1 + uint64(rng.Intn(175))
		if rng.Intn(25) == 0 {
			tick += 256 + uint64(rng.Intn(2000))
		}
		for used[tick] {
			tick++
		}
		used[tick] = true
		n := sizes[rng.Intn(len(sizes))]
		for i := 0; i < n; i++ {
			op(0, simtime.Time(tick*uint64(DefaultWheelTick))+simtime.Time(rng.Intn(1000)), byte(rng.Intn(8)), 0)
		}
		// A 200 ms RTO rearmed about once per ten pushes: the previous
		// one is cancelled in its slot, except one in a hundred.
		if rng.Intn(10) < n {
			if armed >= 0 && rng.Intn(100) > 0 {
				op(2, clock, 0, armed)
			}
			op(1, clock.Add(200*simtime.Millisecond), byte(rng.Intn(8)), 0)
			armed = len(handles) - 1
		}
		for i := 0; i < n*9/10; i++ {
			op(3, clock, 0, 0)
		}
	}
	return b
}

// TestFattreeMixSeedShape holds fattreeMixSeed to the shape it mirrors,
// driving it on a wheel: most pushes 1–175 µs ahead, about 31 % of them
// across the aligned 256-tick window, few others 256 µs or more ahead;
// one push in ten an RTO timer, almost all cancelled while in their slot;
// and popped ticks of 1–15 events, most 4–7.
func TestFattreeMixSeedShape(t *testing.T) {
	w := NewWheel()
	var handles []Handle
	clock := simtime.Time(0)
	var pushes, crossing, far, timers, inSlot int
	perTick := map[uint64]int{}
	for _, op := range decodeOps(fattreeMixSeed()) {
		switch op.kind {
		case 0, 1:
			at := clock.Add(simtime.Duration(op.dt))
			if d := tickOf(at); d-w.cur < wheelSlots && d>>wheelBits != w.cur>>wheelBits {
				crossing++
			}
			h := w.PushKeyed(&keyedEvent{t: at, key: op.key}, at, op.key, 0)
			pushes++
			if op.kind == 0 && op.dt >= int64(256*DefaultWheelTick) {
				far++
			}
			if op.kind == 1 {
				handles = append(handles, h)
				timers++
			}
		case 2:
			if h := handles[op.idx%len(handles)]; w.rec(h.i).where < ovList {
				if _, ok := w.Cancel(h); ok {
					inSlot++
				}
			}
		case 3:
			clock = w.Pop().Time()
			perTick[tickOf(clock)]++
		default:
			t.Fatalf("unexpected op kind %d", op.kind)
		}
	}
	hist := map[string]int{}
	for _, n := range perTick {
		switch {
		case n == 1:
			hist["1"]++
		case n < 4:
			hist["2-3"]++
		case n < 8:
			hist["4-7"]++
		case n < 16:
			hist["8-15"]++
		default:
			hist["16+"]++
		}
	}
	t.Logf("%d pushes: %.1f%% cross the aligned 256-tick window, %.1f%% non-timer pushes ≥ 256 µs ahead; %d timers, %d cancelled in their slot; ticks %v",
		pushes, 100*float64(crossing)/float64(pushes), 100*float64(far)/float64(pushes), timers, inSlot, hist)
	if f := float64(crossing) / float64(pushes); f < 0.22 || f > 0.40 {
		t.Errorf("%.1f%% of pushes cross the aligned 256-tick window, want about 31%%", 100*f)
	}
	if f := float64(far) / float64(pushes); f > 0.08 {
		t.Errorf("%.1f%% of pushes are not timers but lie 256 µs or more ahead, want few", 100*f)
	}
	if f := float64(timers) / float64(pushes); f < 0.07 || f > 0.13 {
		t.Errorf("timers are %.1f%% of pushes, want about 10%%", 100*f)
	}
	if inSlot < timers*9/10 {
		t.Errorf("%d of %d timers cancelled in their slot, want nearly all", inSlot, timers)
	}
	if hist["16+"] > len(perTick)/50 || hist["4-7"] < len(perTick)/3 {
		t.Errorf("popped ticks %v, want 1–15 events each (two groups that land on one tick merge, rarely), most 4–7", hist)
	}
}

// TestWheelOverflowRefill pins the overflow path directly: events beyond
// the top level's horizon must come back in exact order, including ones
// pushed after the cursor has advanced (the frozen-boundary case that
// prevents a late push from leapfrogging an overflowed earlier event).
func TestWheelOverflowRefill(t *testing.T) {
	w := NewWheel()
	horizon := simtime.Time(int64(DefaultWheelTick) << (wheelBits * wheelLevels))
	far := &keyedEvent{t: horizon * 2, id: 1}
	farther := &keyedEvent{t: horizon * 3, id: 2}
	near := &keyedEvent{t: 1000, id: 0}
	w.Push(farther)
	w.Push(far)
	w.Push(near)
	if got := w.Pop(); got != near {
		t.Fatalf("Pop = %v, want near", got)
	}
	// The cursor sits at near's tick. A push between far and farther must
	// not bypass far even though the wheel will refill from overflow.
	between := &keyedEvent{t: horizon*2 + simtime.Time(simtime.Second), id: 3}
	w.Push(between)
	want := []*keyedEvent{far, between, farther}
	for i, wv := range want {
		if got := w.Pop(); got != wv {
			t.Fatalf("Pop %d = %v, want id %d", i, got, wv.id)
		}
	}
	if w.Pop() != nil || w.Len() != 0 {
		t.Fatal("wheel not empty after drain")
	}
}

// TestWheelWindowBoundaries pins level 0's rolling window where the
// aligned windows above it roll over: with the cursor just short of a
// 2^8, 2^16, 2^24 and 2^32-tick boundary, events pushed a few ticks
// ahead land past it on level 0 while events pushed from tick 0 wait
// beyond it on a higher level or the overflow list. Both kinds must pop
// in the heap's order, however they interleave.
func TestWheelWindowBoundaries(t *testing.T) {
	tick := simtime.Time(DefaultWheelTick)
	for _, bits := range []uint{8, 16, 24, 32} {
		base := simtime.Time(1<<bits) * tick
		script := func(q Queue) []int {
			id := 0
			push := func(at simtime.Time) {
				q.Push(&keyedEvent{t: at, key: uint64(id % 3), id: id})
				id++
			}
			push(base - 10*tick)
			for _, d := range []simtime.Time{0, 3, 50, 255, 300, 70_000} {
				push(base + d*tick + 7)
			}
			var order []int
			order = append(order, q.Pop().(*keyedEvent).id)
			for _, d := range []simtime.Time{5, 10, 12, 60, 200, 245, 246, 300} {
				push(base - 10*tick + d*tick)
			}
			for ev := q.Pop(); ev != nil; ev = q.Pop() {
				order = append(order, ev.(*keyedEvent).id)
			}
			return order
		}
		want, got := script(NewHeap()), script(NewWheel())
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("boundary 2^%d ticks: wheel pops %v, heap %v", bits, got, want)
		}
		// With the cursor mid-block, a same-instant burst longer than
		// sortWalk on the next block's first tick, then one event that
		// sorts before it: that tick's level-0 chain gives up its order
		// and must not pop as it stands when the cursor enters the block.
		// The far variant takes the burst through the overflow list, whose
		// refill lands the cursor mid-block and places the burst newest
		// first.
		for _, far := range []simtime.Time{0, 2 * simtime.Time(int64(DefaultWheelTick)<<(wheelBits*wheelLevels))} {
			burst := func(q Queue) []int {
				id := 0
				push := func(at simtime.Time, key uint64) {
					q.Push(&keyedEvent{t: far + at, key: key, id: id})
					id++
				}
				push(base-10*tick, 0)
				if far == 0 {
					q.Pop()
				}
				for i := 0; i < 2*sortWalk; i++ {
					push(base, 5)
				}
				push(base, 1)
				var order []int
				for ev := q.Pop(); ev != nil; ev = q.Pop() {
					order = append(order, ev.(*keyedEvent).id)
				}
				return order
			}
			want, got := burst(NewHeap()), burst(NewWheel())
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("burst at 2^%d ticks (+%v): wheel pops %v, heap %v", bits, far, got, want)
			}
		}
	}
}

// burstEvent is a keyedEvent that, when the driver fires it, schedules one
// same-instant follow-up under a different order key.
type burstEvent struct {
	keyedEvent
	follows bool
}

// driveBurst schedules same-instant bursts hours ahead — one batch an
// hour out, which starts in level 3 and cascades down, and one two hours
// out, beyond the wheel's horizon on the overflow list — then drains the
// queue, pushing a follow-up at the popped instant for every first-round
// event. It returns the pop order by event id.
func driveBurst(q Queue, perBatch int) []int {
	id := 0
	for _, at := range []simtime.Time{simtime.Time(simtime.Hour), simtime.Time(2*simtime.Hour) + 37} {
		for i := 0; i < perBatch; i++ {
			// Keys descend so push order is the reverse of pop order.
			q.Push(&burstEvent{keyedEvent{t: at, key: uint64(2 * (perBatch - i)), id: id}, true})
			id++
		}
	}
	order := make([]int, 0, 2*id)
	for {
		ev := q.Pop()
		if ev == nil {
			return order
		}
		be := ev.(*burstEvent)
		order = append(order, be.id)
		if be.follows {
			// Odd keys interleave the follow-ups with the pending
			// first-round events instead of queueing behind them.
			key := uint64(be.id*7919%(2*perBatch)) | 1
			q.Push(&burstEvent{keyedEvent{t: be.t, key: key, id: id}, false})
			id++
		}
	}
}

// TestWheelSameInstantBurst is the regression test for the quadratic ready
// run: 100k events sharing one instant used to enter the sorted run one
// memmove each (when a cascade landed them on the cursor tick, and again
// for every same-instant follow-up), ~10^10 item moves for this script.
// The wheel must reproduce the heap's pop order exactly and finish well
// inside a bound no quadratic run can meet.
func TestWheelSameInstantBurst(t *testing.T) {
	const perBatch = 100_000
	want := driveBurst(NewHeap(), perBatch)
	start := time.Now()
	got := driveBurst(NewWheel(), perBatch)
	wall := time.Since(start)
	if len(got) != 4*perBatch || len(got) != len(want) {
		t.Fatalf("wheel popped %d events, heap %d, want %d", len(got), len(want), 4*perBatch)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d: wheel id %d, heap id %d", i, got[i], want[i])
		}
	}
	if wall > 5*time.Second {
		t.Fatalf("draining 2×%d same-instant events took %v; the ready run is not O(log r) per event", perBatch, wall)
	}
}

// TestHeapPushPopAllocFree pins the satellite requirement: the typed heap
// allocates nothing on steady-state Push/Pop (no container/heap interface
// boxing).
func TestHeapPushPopAllocFree(t *testing.T) {
	q := NewHeap()
	evs := make([]*testEvent, 1024)
	for i := range evs {
		evs[i] = &testEvent{t: simtime.Time(i * 997 % 1024), id: i}
	}
	run := func() {
		for _, ev := range evs {
			q.Push(ev)
		}
		for range evs {
			q.Pop()
		}
	}
	run() // warm the backing array
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("heap Push/Pop allocates %.1f per cycle, want 0", allocs)
	}
}

// TestWheelScheduleCancelAllocFree pins 0 allocs/op on the wheel's hot
// paths once its record pages and ready run have grown: schedule/cancel,
// and a push→cascade→pop cycle whose events start on levels 0, 1 and 2
// and cascade down to the ready run before they pop.
func TestWheelScheduleCancelAllocFree(t *testing.T) {
	q := NewWheel()
	evs := make([]*testEvent, 1024)
	for i := range evs {
		evs[i] = &testEvent{t: simtime.Time(i+1) * simtime.Time(simtime.Millisecond), id: i}
	}
	handles := make([]Handle, len(evs))
	run := func() {
		for i, ev := range evs {
			handles[i] = q.PushCancelable(ev)
		}
		for i := range handles {
			if _, ok := q.Cancel(handles[i]); !ok {
				t.Fatal("cancel failed")
			}
		}
	}
	run() // warm the record pages
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("wheel schedule/cancel allocates %.1f per cycle, want 0", allocs)
	}

	// 100 µs, 30 ms and 5 s ahead: levels 0, 1 and 2 of the wheel.
	ahead := [3]simtime.Duration{100 * simtime.Microsecond, 30 * simtime.Millisecond, 5 * simtime.Second}
	now := simtime.Time(0)
	cycle := func() {
		for i, ev := range evs {
			ev.t = now.Add(ahead[i%3] + simtime.Duration(i*7919%1000))
			q.Push(ev)
		}
		for range evs {
			ev := q.Pop()
			if ev.Time() < now {
				t.Fatal("pop went back in time")
			}
			now = ev.Time()
		}
	}
	cycle()
	for i, ev := range evs {
		ev.t = now.Add(ahead[i%3])
		q.Push(ev)
	}
	for level := 0; level < 3; level++ {
		if q.occ[level] == [wheelSlots / 64]uint64{} {
			t.Fatalf("no event starts on level %d", level)
		}
	}
	for range evs {
		now = q.Pop().Time()
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("wheel push/cascade/pop allocates %.1f per cycle, want 0", allocs)
	}
}

// TestRecordLayout pins the queue record beside the engines' envelopes
// (TestEventSize): 40 bytes, and no pointer anywhere in it, so the record
// pages are never scanned by the garbage collector. A Handle is 8 bytes
// and pointer-free as well.
func TestRecordLayout(t *testing.T) {
	if n := unsafe.Sizeof(rec{}); n != 40 {
		t.Errorf("rec is %d bytes, want 40", n)
	}
	if n := unsafe.Sizeof(Handle{}); n != 8 {
		t.Errorf("Handle is %d bytes, want 8", n)
	}
	for _, v := range []any{rec{}, Handle{}} {
		if path := pointerIn(reflect.TypeOf(v), reflect.TypeOf(v).Name()); path != "" {
			t.Errorf("%s holds a pointer", path)
		}
	}
}

// pointerIn returns the path to the first field of typ (named path) that
// holds a pointer, or "".
func pointerIn(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			if p := pointerIn(typ.Field(i).Type, path+"."+typ.Field(i).Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.String:
		return path
	}
	return ""
}

// --- BenchmarkEventQueue* suite -------------------------------------------
//
// Three mixes over steady-state pending populations of 1e3..1e6 timers:
//
//   - ScheduleHeavy: the hold model — pop one, schedule one — measuring
//     pure ordering cost as the population grows.
//   - CancelHeavy: the RTO/idle-timeout pattern — every op cancels a live
//     timer and rearms it, with a pop every few ops. Lazy-cancel backends
//     pay corpse traffic here; the wheel unlinks in O(1).
//   - MixedHorizon: bimodal horizons (µs-scale data events + second-scale
//     timers, a third of which cancel) spanning several wheel levels.

func benchBackends() []struct {
	name string
	mk   func() Canceler
} {
	return []struct {
		name string
		mk   func() Canceler
	}{
		{"heap", func() Canceler { return NewHeap() }},
		{"wheel", func() Canceler { return NewWheel() }},
	}
}

var benchSizes = []int{1_000, 100_000, 1_000_000}

func BenchmarkEventQueueScheduleHeavy(b *testing.B) {
	for _, size := range benchSizes {
		for _, be := range benchBackends() {
			b.Run(fmt.Sprintf("%s/pending=%d", be.name, size), func(b *testing.B) {
				q := be.mk()
				rng := rand.New(rand.NewSource(3))
				clock := simtime.Time(0)
				evs := make([]*testEvent, size)
				for i := range evs {
					evs[i] = &testEvent{t: clock.Add(simtime.Duration(rng.Int63n(int64(simtime.Second))))}
					q.Push(evs[i])
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev := q.Pop().(*testEvent)
					clock = ev.t
					ev.t = clock.Add(simtime.Duration(rng.Int63n(int64(simtime.Second))))
					q.Push(ev)
				}
			})
		}
	}
}

func BenchmarkEventQueueCancelHeavy(b *testing.B) {
	for _, size := range benchSizes {
		for _, be := range benchBackends() {
			b.Run(fmt.Sprintf("%s/pending=%d", be.name, size), func(b *testing.B) {
				q := be.mk()
				rng := rand.New(rand.NewSource(5))
				clock := simtime.Time(0)
				rto := simtime.Duration(200 * simtime.Millisecond)
				evs := make([]*testEvent, size)
				handles := make([]Handle, size)
				for i := range evs {
					evs[i] = &testEvent{t: clock.Add(rto + simtime.Duration(rng.Int63n(int64(simtime.Millisecond)))), id: i}
					handles[i] = q.PushCancelable(evs[i])
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := i % size
					// Rearm: cancel the live timer, schedule its successor —
					// the per-ACK RTO pattern.
					if _, ok := q.Cancel(handles[j]); !ok {
						b.Fatal("lost a timer")
					}
					evs[j].t = clock.Add(rto + simtime.Duration(rng.Int63n(int64(simtime.Millisecond))))
					handles[j] = q.PushCancelable(evs[j])
					if i%4 == 3 {
						// A timer fires: pop it and rearm so the population
						// holds and lazy backends get to shed corpses.
						ev := q.Pop().(*testEvent)
						clock = ev.t
						ev.t = clock.Add(rto + simtime.Duration(rng.Int63n(int64(simtime.Millisecond))))
						handles[ev.id] = q.PushCancelable(ev)
					}
				}
			})
		}
	}
}

func BenchmarkEventQueueMixedHorizon(b *testing.B) {
	for _, size := range benchSizes {
		for _, be := range benchBackends() {
			b.Run(fmt.Sprintf("%s/pending=%d", be.name, size), func(b *testing.B) {
				q := be.mk()
				rng := rand.New(rand.NewSource(7))
				clock := simtime.Time(0)
				near := int64(100 * simtime.Microsecond)
				far := int64(2 * simtime.Second)
				evs := make([]*testEvent, size)
				handles := make([]Handle, size)
				for i := range evs {
					horizon := near
					if i%2 == 0 {
						horizon = far
					}
					evs[i] = &testEvent{t: clock.Add(simtime.Duration(rng.Int63n(horizon)))}
					handles[i] = q.PushCancelable(evs[i])
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev := q.Pop().(*testEvent)
					clock = ev.t
					horizon := near
					if i%2 == 0 {
						horizon = far
					}
					ev.t = clock.Add(simtime.Duration(rng.Int63n(horizon)))
					h := q.PushCancelable(ev)
					if i%3 == 0 {
						// A third of long timers get cancelled and rearmed.
						j := i % size
						if _, ok := q.Cancel(handles[j]); ok {
							evs[j].t = clock.Add(simtime.Duration(rng.Int63n(far)))
							handles[j] = q.PushCancelable(evs[j])
						}
					}
					_ = h
				}
			})
		}
	}
}
