package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"horse/internal/simtime"
)

type testEvent struct {
	t  simtime.Time
	id int
}

func (e *testEvent) Time() simtime.Time { return e.t }
func (e *testEvent) Fire()              {}
func (e *testEvent) Release()           {}

func queues() map[string]func() Queue {
	return map[string]func() Queue{
		"heap":  func() Queue { return NewHeap() },
		"wheel": func() Queue { return NewWheel() },
	}
}

func TestEmptyQueue(t *testing.T) {
	for name, mk := range queues() {
		q := mk()
		if q.Len() != 0 {
			t.Errorf("%s: new queue Len = %d, want 0", name, q.Len())
		}
		if q.Pop() != nil {
			t.Errorf("%s: Pop on empty queue != nil", name)
		}
		if q.Peek() != nil {
			t.Errorf("%s: Peek on empty queue != nil", name)
		}
	}
}

func TestSingleEvent(t *testing.T) {
	for name, mk := range queues() {
		q := mk()
		ev := &testEvent{t: 42}
		q.Push(ev)
		if q.Len() != 1 {
			t.Errorf("%s: Len = %d, want 1", name, q.Len())
		}
		if got := q.Peek(); got != ev {
			t.Errorf("%s: Peek = %v, want the pushed event", name, got)
		}
		if got := q.Pop(); got != ev {
			t.Errorf("%s: Pop = %v, want the pushed event", name, got)
		}
		if q.Len() != 0 {
			t.Errorf("%s: Len after pop = %d, want 0", name, q.Len())
		}
	}
}

func TestOrdering(t *testing.T) {
	times := []simtime.Time{50, 10, 30, 20, 40, 10, 0, 60, 25}
	for name, mk := range queues() {
		q := mk()
		for i, tm := range times {
			q.Push(&testEvent{t: tm, id: i})
		}
		var got []simtime.Time
		for q.Len() > 0 {
			got = append(got, q.Pop().Time())
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Errorf("%s: popped out of order: %v", name, got)
		}
		if len(got) != len(times) {
			t.Errorf("%s: popped %d events, want %d", name, len(got), len(times))
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	for name, mk := range queues() {
		q := mk()
		const n = 100
		for i := 0; i < n; i++ {
			q.Push(&testEvent{t: 7, id: i})
		}
		for i := 0; i < n; i++ {
			ev := q.Pop().(*testEvent)
			if ev.id != i {
				t.Fatalf("%s: tie-break violated: got id %d at position %d", name, ev.id, i)
			}
		}
	}
}

func TestInterleavedPushPop(t *testing.T) {
	for name, mk := range queues() {
		q := mk()
		rng := rand.New(rand.NewSource(1))
		var last simtime.Time = -1
		pushed, popped := 0, 0
		clock := simtime.Time(0)
		for i := 0; i < 5000; i++ {
			if q.Len() == 0 || rng.Intn(3) > 0 {
				// Future events only: times at or after the current clock,
				// as in a real simulation.
				dt := simtime.Duration(rng.Int63n(int64(simtime.Second)))
				q.Push(&testEvent{t: clock.Add(dt), id: pushed})
				pushed++
			} else {
				ev := q.Pop()
				popped++
				if ev.Time() < last {
					t.Fatalf("%s: time went backwards: %v after %v", name, ev.Time(), last)
				}
				last = ev.Time()
				clock = ev.Time()
			}
		}
		for q.Len() > 0 {
			ev := q.Pop()
			popped++
			if ev.Time() < last {
				t.Fatalf("%s: drain: time went backwards: %v after %v", name, ev.Time(), last)
			}
			last = ev.Time()
		}
		if pushed != popped {
			t.Errorf("%s: pushed %d, popped %d", name, pushed, popped)
		}
	}
}

func TestHeapWheelAgree(t *testing.T) {
	h, c := NewHeap(), NewWheel()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		tm := simtime.Time(rng.Int63n(int64(10 * simtime.Second)))
		h.Push(&testEvent{t: tm, id: i})
		c.Push(&testEvent{t: tm, id: i})
	}
	for h.Len() > 0 {
		he := h.Pop().(*testEvent)
		ce := c.Pop().(*testEvent)
		if he.t != ce.t || he.id != ce.id {
			t.Fatalf("queues diverged: heap (%v,%d) wheel (%v,%d)", he.t, he.id, ce.t, ce.id)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("wheel has %d leftover events", c.Len())
	}
}

// Property: for any set of event times, both queues return them sorted and
// complete.
func TestQueueSortProperty(t *testing.T) {
	prop := func(raw []int64) bool {
		for name, mk := range queues() {
			q := mk()
			want := make([]simtime.Time, len(raw))
			for i, v := range raw {
				tm := simtime.Time(v & 0x3fffffffffff) // keep times positive
				want[i] = tm
				q.Push(&testEvent{t: tm, id: i})
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for i := range want {
				ev := q.Pop()
				if ev == nil || ev.Time() != want[i] {
					t.Logf("%s: mismatch at %d", name, i)
					return false
				}
			}
			if q.Pop() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPeekAgreesWithPop drives both queues through a randomized
// push/peek/pop schedule and checks that Peek always previews exactly the
// event Pop then returns, whatever mix of pushes, pops and cursor
// advances came before.
func TestPeekAgreesWithPop(t *testing.T) {
	for name, mk := range queues() {
		q := mk()
		rng := rand.New(rand.NewSource(17))
		clock := simtime.Time(0)
		pushed := 0
		for i := 0; i < 20000; i++ {
			switch {
			case q.Len() == 0 || rng.Intn(4) > 0:
				// Mix far-future and near-term times so cascades and head
				// updates both trigger.
				dt := simtime.Duration(rng.Int63n(int64(10 * simtime.Second)))
				if rng.Intn(8) == 0 {
					dt = simtime.Duration(rng.Int63n(int64(simtime.Hour)))
				}
				q.Push(&testEvent{t: clock.Add(dt), id: pushed})
				pushed++
			default:
				want := q.Peek().(*testEvent)
				if again := q.Peek().(*testEvent); again != want {
					t.Fatalf("%s: consecutive Peeks disagree", name)
				}
				got := q.Pop().(*testEvent)
				if got != want {
					t.Fatalf("%s: Peek previewed (%v,%d) but Pop returned (%v,%d)",
						name, want.t, want.id, got.t, got.id)
				}
				clock = got.t
			}
		}
		var last simtime.Time = -1
		for q.Len() > 0 {
			want := q.Peek()
			got := q.Pop()
			if want != got {
				t.Fatalf("%s: drain: Peek/Pop disagree", name)
			}
			if got.Time() < last {
				t.Fatalf("%s: drain out of order", name)
			}
			last = got.Time()
		}
	}
}

func BenchmarkHeapPushPop(b *testing.B) {
	benchQueue(b, NewHeap())
}

func BenchmarkWheelPushPop(b *testing.B) {
	benchQueue(b, NewWheel())
}

// BenchmarkWheelPeekPop measures a Peek before every Pop, the cost the
// kernel's single PopUntil avoids.
func BenchmarkWheelPeekPop(b *testing.B) {
	benchPeekQueue(b, NewWheel())
}

func BenchmarkHeapPeekPop(b *testing.B) {
	benchPeekQueue(b, NewHeap())
}

func benchPeekQueue(b *testing.B, q Queue) {
	rng := rand.New(rand.NewSource(3))
	const pop = 10000
	clock := simtime.Time(0)
	for i := 0; i < pop; i++ {
		q.Push(&testEvent{t: clock.Add(simtime.Duration(rng.Int63n(int64(simtime.Second))))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if q.Peek() == nil {
			b.Fatal("empty")
		}
		ev := q.Pop()
		clock = ev.Time()
		q.Push(&testEvent{t: clock.Add(simtime.Duration(rng.Int63n(int64(simtime.Second))))})
	}
}

func benchQueue(b *testing.B, q Queue) {
	rng := rand.New(rand.NewSource(3))
	// Hold-model benchmark: steady-state population of 10k events.
	const pop = 10000
	clock := simtime.Time(0)
	for i := 0; i < pop; i++ {
		q.Push(&testEvent{t: clock.Add(simtime.Duration(rng.Int63n(int64(simtime.Second))))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := q.Pop()
		clock = ev.Time()
		q.Push(&testEvent{t: clock.Add(simtime.Duration(rng.Int63n(int64(simtime.Second))))})
	}
}
