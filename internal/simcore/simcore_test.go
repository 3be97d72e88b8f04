package simcore

import (
	"context"
	"math/rand"
	"testing"

	"horse/internal/eventq"
	"horse/internal/simtime"
)

// testEvent is a minimal pooled event recording its dispatch.
type testEvent struct {
	at   simtime.Time
	id   int
	fire func(e *testEvent)
	pool *Pool[testEvent]
}

func (e *testEvent) Time() simtime.Time { return e.at }
func (e *testEvent) Fire()              { e.fire(e) }
func (e *testEvent) Release() {
	if e.pool != nil {
		p := e.pool
		*e = testEvent{}
		p.Put(e)
	}
}

func TestRunDispatchOrder(t *testing.T) {
	for _, b := range []eventq.Backend{eventq.BackendWheel, eventq.BackendHeap} {
		k := New(Config{Backend: b})
		var got []int
		times := []simtime.Time{30, 10, 20, 10, 0}
		for i, at := range times {
			i := i
			k.Schedule(&testEvent{at: at, id: i, fire: func(e *testEvent) { got = append(got, e.id) }})
		}
		k.Run(simtime.Never)
		want := []int{4, 1, 3, 2, 0} // time order, FIFO ties
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: dispatch order %v, want %v", b, got, want)
			}
		}
		if k.Dispatched() != uint64(len(times)) {
			t.Errorf("Dispatched = %d, want %d", k.Dispatched(), len(times))
		}
	}
}

func TestRunBound(t *testing.T) {
	k := New(Config{})
	var fired []simtime.Time
	for _, at := range []simtime.Time{5, 15, 25} {
		k.Schedule(&testEvent{at: at, fire: func(e *testEvent) { fired = append(fired, e.at) }})
	}
	k.Run(20)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 5 and 15 only", fired)
	}
	if k.Now() != 20 {
		t.Errorf("Now = %v, want clock parked at the bound", k.Now())
	}
	if k.Len() != 1 {
		t.Fatalf("Len = %d, want the out-of-bound event still queued", k.Len())
	}
	// Stepping: an event scheduled between runs, earlier than the staged
	// one, fires first; the staged event then fires at its own time.
	k.Schedule(&testEvent{at: 22, fire: func(e *testEvent) { fired = append(fired, e.at) }})
	k.Run(simtime.Never)
	if len(fired) != 4 || fired[2] != 22 || fired[3] != 25 {
		t.Fatalf("fired %v, want [5 15 22 25]", fired)
	}
}

// TestPreAdvanceHook verifies the flowsim contract: deferred work settles
// exactly when the clock would advance, and events the drain schedules at
// earlier times run before the stalled head.
func TestPreAdvanceHook(t *testing.T) {
	k := New(Config{})
	dirty := false
	var order []string
	k.AddPreAdvance(func() bool { return dirty }, func() {
		dirty = false
		order = append(order, "drain")
		k.Schedule(&testEvent{at: k.Now() + 1, fire: func(*testEvent) { order = append(order, "drained-event") }})
	})
	k.Schedule(&testEvent{at: 0, fire: func(*testEvent) {
		order = append(order, "e0")
		dirty = true
	}})
	k.Schedule(&testEvent{at: 100, fire: func(*testEvent) { order = append(order, "e100") }})
	k.Run(simtime.Never)
	want := []string{"e0", "drain", "drained-event", "e100"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestPreAdvanceDrainOnEmpty: a drain on an emptied queue may schedule the
// run's final events (flowsim's deferred solve scheduling completions).
func TestPreAdvanceDrainOnEmpty(t *testing.T) {
	k := New(Config{})
	dirty := false
	fired := 0
	k.AddPreAdvance(func() bool { return dirty }, func() {
		dirty = false
		k.Schedule(&testEvent{at: k.Now() + 10, fire: func(*testEvent) { fired++ }})
	})
	k.Schedule(&testEvent{at: 0, fire: func(*testEvent) { dirty = true }})
	k.Run(simtime.Never)
	if fired != 1 {
		t.Fatalf("drain-scheduled event fired %d times, want 1", fired)
	}
}

// keyedEvent is a testEvent with an order key.
type keyedEvent struct {
	testEvent
	key uint64
}

func (e *keyedEvent) OrderKey() uint64 { return e.key }

// TestDispatchKey: the key of the event being dispatched is visible to it
// (DefaultOrderKey for an unkeyed one); pre-advance hooks and code outside
// Run see none.
func TestDispatchKey(t *testing.T) {
	k := New(Config{})
	var got []uint64
	record := func(*testEvent) {
		if key, ok := k.DispatchKey(); ok {
			got = append(got, key)
		} else {
			got = append(got, 1)
		}
	}
	dirty := false
	k.AddPreAdvance(func() bool { return dirty }, func() {
		dirty = false
		record(nil)
	})
	k.Schedule(&keyedEvent{testEvent{at: 5, fire: record}, OrderKey(ClassData+1, 7)})
	k.Schedule(&keyedEvent{testEvent{at: 5, fire: func(e *testEvent) { record(e); dirty = true }}, OrderKey(ClassTimer, 0)})
	k.Schedule(&testEvent{at: 9, fire: record})
	if _, ok := k.DispatchKey(); ok {
		t.Fatal("DispatchKey reports an event before Run")
	}
	k.Run(simtime.Never)
	want := []uint64{OrderKey(ClassTimer, 0), OrderKey(ClassData+1, 7), 1, eventq.DefaultOrderKey}
	if len(got) != len(want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys %v, want %v", got, want)
		}
	}
	if _, ok := k.DispatchKey(); ok {
		t.Fatal("DispatchKey reports an event after Run")
	}
}

// TestPoolRecycles: envelopes cycle through the pool without disturbing
// dispatch, and steady-state reuse allocates nothing new.
func TestPoolRecycles(t *testing.T) {
	k := New(Config{})
	var pool Pool[testEvent]
	rng := rand.New(rand.NewSource(1))
	fired := 0
	var sched func(at simtime.Time)
	sched = func(at simtime.Time) {
		e := pool.Get()
		*e = testEvent{at: at, pool: &pool, fire: func(e *testEvent) {
			fired++
			if fired < 1000 {
				sched(e.at + simtime.Time(rng.Int63n(50)+1))
			}
		}}
		k.Schedule(e)
	}
	sched(0)
	k.Run(simtime.Never)
	if fired != 1000 {
		t.Fatalf("fired = %d, want 1000", fired)
	}
	// One event is in flight at a time, so the whole run rotates through
	// two envelopes: the firing one and the one it schedules.
	if len(pool.free) > 2 {
		t.Errorf("pool holds %d envelopes, want at most the 2-envelope rotation", len(pool.free))
	}
}

// TestMultipleHooks: hooks drain in registration order — the hybrid case
// of two engines sharing one kernel.
func TestMultipleHooks(t *testing.T) {
	k := New(Config{})
	var order []string
	d1, d2 := false, false
	k.AddPreAdvance(func() bool { return d1 }, func() { d1 = false; order = append(order, "h1") })
	k.AddPreAdvance(func() bool { return d2 }, func() { d2 = false; order = append(order, "h2") })
	k.Schedule(&testEvent{at: 0, fire: func(*testEvent) { d1, d2 = true, true }})
	k.Schedule(&testEvent{at: 10, fire: func(*testEvent) { order = append(order, "ev") }})
	k.Run(simtime.Never)
	if len(order) != 3 || order[0] != "h1" || order[1] != "h2" || order[2] != "ev" {
		t.Fatalf("order = %v, want [h1 h2 ev]", order)
	}
}

// TestRunContextCancellation: a cancelled context stops the dispatch loop
// promptly (within the poll granularity) and returns ctx.Err(); the queue
// and clock stay consistent for a later resume or settle.
func TestRunContextCancellation(t *testing.T) {
	k := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	dispatched := 0
	// A self-rescheduling event: without cancellation this runs forever.
	var reschedule func(e *testEvent)
	reschedule = func(e *testEvent) {
		dispatched++
		if dispatched == 10 {
			cancel()
		}
		k.Schedule(&testEvent{at: e.at + 1, fire: reschedule})
	}
	k.Schedule(&testEvent{at: 0, fire: reschedule})
	if err := k.RunContext(ctx, simtime.Never); err != context.Canceled {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if dispatched < 10 || dispatched > 10+2*ctxPollEvery {
		t.Errorf("dispatched %d events; cancellation not honored within the poll window", dispatched)
	}
	if k.Len() == 0 {
		t.Error("queue drained despite cancellation")
	}
	// The kernel is resumable after a cancel: a fresh context continues.
	before := dispatched
	k.Schedule(&testEvent{at: k.Now() + 1000, fire: func(e *testEvent) {}})
	stop := k.Now() + 500
	if err := k.RunContext(context.Background(), stop); err != nil {
		t.Fatalf("resume RunContext = %v", err)
	}
	if dispatched <= before {
		t.Error("resume dispatched nothing")
	}
}

// TestRunContextBackgroundMatchesRun: an uncancellable context takes the
// plain Run path and honors the bound identically.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	run := func(useCtx bool) []simtime.Time {
		k := New(Config{})
		var fired []simtime.Time
		for _, at := range []simtime.Time{5, 15, 25} {
			k.Schedule(&testEvent{at: at, fire: func(e *testEvent) { fired = append(fired, e.at) }})
		}
		if useCtx {
			if err := k.RunContext(context.Background(), 20); err != nil {
				t.Fatal(err)
			}
		} else {
			k.Run(20)
		}
		if k.Now() != 20 {
			t.Fatalf("clock parked at %v, want 20", k.Now())
		}
		return fired
	}
	a, b := run(false), run(true)
	if len(a) != 2 || len(b) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("Run %v vs RunContext %v", a, b)
	}
}

// TestDefaultQueueIsWheel: the zero Config, which every engine's New
// passes, runs on the timing wheel; the heap is built only when named.
func TestDefaultQueueIsWheel(t *testing.T) {
	if _, ok := New(Config{}).q.(*eventq.Wheel); !ok {
		t.Error("New(Config{}) is not on the wheel")
	}
	if _, ok := New(Config{Backend: eventq.BackendHeap}).q.(*eventq.Heap); !ok {
		t.Error("New(Config{Backend: BackendHeap}) is not on the heap")
	}
}

// countEvent counts its firings and releases.
type countEvent struct {
	at              simtime.Time
	fired, released int
}

func (e *countEvent) Time() simtime.Time { return e.at }
func (e *countEvent) Fire()              { e.fired++ }
func (e *countEvent) Release()           { e.released++ }

// TestCancel: on either backend a cancelled timer never fires and is
// released exactly once, Cancel succeeds once and is a no-op on the stale
// handle, and the zero Timer cancels as a no-op.
func TestCancel(t *testing.T) {
	for name, b := range map[string]eventq.Backend{"wheel": eventq.BackendWheel, "heap": eventq.BackendHeap} {
		t.Run(name, func(t *testing.T) {
			k := New(Config{Backend: b})
			if k.Cancel(Timer{}) {
				t.Error("Cancel(zero Timer) = true")
			}
			dead, live := &countEvent{at: 10}, &countEvent{at: 20}
			tm := k.ScheduleCancelable(dead)
			lt := k.ScheduleCancelable(live)
			if !k.Cancel(tm) {
				t.Fatal("Cancel of a pending timer = false")
			}
			if dead.released != 1 {
				t.Fatalf("cancelled event released %d times on Cancel, want 1", dead.released)
			}
			if k.Cancel(tm) {
				t.Error("Cancel of a stale handle = true")
			}
			if k.Len() != 1 {
				t.Errorf("Len = %d after cancelling one of two, want 1", k.Len())
			}
			k.Run(simtime.Never)
			if k.Cancel(tm) || k.Cancel(lt) {
				t.Error("Cancel after Run of a cancelled or fired timer = true")
			}
			if dead.fired != 0 || dead.released != 1 {
				t.Errorf("cancelled event fired %d, released %d; want 0, 1", dead.fired, dead.released)
			}
			if live.fired != 1 || live.released != 1 {
				t.Errorf("live event fired %d, released %d; want 1, 1", live.fired, live.released)
			}
			if k.Dispatched() != 1 {
				t.Errorf("Dispatched = %d, want 1", k.Dispatched())
			}
		})
	}
}
