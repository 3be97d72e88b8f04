package stats

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mapOracle is the reorder buffer the engines used before InOrder: a map
// of parked records keyed by index, drained while the next expected index
// is present, and flushed by sorting the leftover keys.
type mapOracle struct {
	emit    func(FlowRecord)
	next    int
	pending map[int]FlowRecord
}

func (o *mapOracle) put(idx int, r FlowRecord) {
	if idx != o.next {
		if o.pending == nil {
			o.pending = make(map[int]FlowRecord)
		}
		o.pending[idx] = r
		return
	}
	o.emit(r)
	o.next++
	for {
		r2, ok := o.pending[o.next]
		if !ok {
			return
		}
		delete(o.pending, o.next)
		o.emit(r2)
		o.next++
	}
}

func (o *mapOracle) flush() {
	keys := make([]int, 0, len(o.pending))
	for k := range o.pending {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		o.emit(o.pending[k])
		delete(o.pending, k)
	}
}

// checkInOrder puts the indices of order (a permutation of a subset of
// [0, n)) into both emitters and requires identical emission after every
// Put and after the final Flush.
func checkInOrder(t *testing.T, order []int) {
	t.Helper()
	var got, want []int64
	em := NewInOrder(func(r FlowRecord) { got = append(got, r.ID) })
	oracle := &mapOracle{emit: func(r FlowRecord) { want = append(want, r.ID) }}
	for step, idx := range order {
		r := FlowRecord{ID: int64(idx + 1), Outcome: "completed"}
		em.Put(idx, r)
		oracle.put(idx, r)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after put %d (index %d): emitted %v, oracle %v", step, idx, got, want)
		}
	}
	em.Flush()
	oracle.flush()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after flush: emitted %v, oracle %v", got, want)
	}
	if len(got) != len(order) {
		t.Fatalf("emitted %d of %d records", len(got), len(order))
	}
}

// permutation derives, from fuzz bytes, a random order over [0, n) with
// some indices left out (holes), the shape the engines feed the emitter:
// finalize order roughly tracks index order, with stragglers and indices
// that never finish.
func permutation(seed int64, n int, holeEvery, spread uint8) []int {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]float64, n)
	idx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if holeEvery > 0 && rng.Intn(int(holeEvery)+1) == 0 {
			continue
		}
		keys[i] = float64(i) + rng.Float64()*float64(spread)
		idx = append(idx, i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	return idx
}

func TestInOrderScenarios(t *testing.T) {
	checkInOrder(t, nil)
	checkInOrder(t, []int{0, 1, 2, 3})
	checkInOrder(t, []int{3, 2, 1, 0})
	checkInOrder(t, []int{5, 2, 9, 0, 7})        // holes at 1, 3, 4, 6, 8
	checkInOrder(t, []int{100, 1, 0, 40, 39, 2}) // ring growth past a hole
	for seed := int64(0); seed < 50; seed++ {
		checkInOrder(t, permutation(seed, 300, uint8(seed%7), uint8(seed*5)))
	}
}

// TestInOrderRejectsReplay: an index already emitted is a caller bug.
func TestInOrderRejectsReplay(t *testing.T) {
	em := NewInOrder(func(FlowRecord) {})
	em.Put(0, FlowRecord{})
	defer func() {
		if recover() == nil {
			t.Error("Put of an emitted index did not panic")
		}
	}()
	em.Put(0, FlowRecord{})
}

// FuzzInOrder holds the dense emitter to the map-based oracle on random
// index permutations with holes and a final Flush.
func FuzzInOrder(f *testing.F) {
	f.Add(int64(1), uint16(10), uint8(0), uint8(0))
	f.Add(int64(2), uint16(64), uint8(3), uint8(20))
	f.Add(int64(3), uint16(500), uint8(1), uint8(255))
	f.Add(int64(4), uint16(1), uint8(0), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, holeEvery, spread uint8) {
		checkInOrder(t, permutation(seed, int(n%2048), holeEvery, spread))
	})
}
