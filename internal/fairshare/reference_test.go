package fairshare

// The flat-array Allocator is property-tested here against an independent
// map-based max–min solver: the naive progressive-filling textbook
// algorithm over map[FlowID]/map[ResourceID] state, written for obvious
// correctness rather than speed. Any divergence on a randomized sharing
// graph is a solver bug, not a tolerance artifact.

import (
	"math"
	"math/rand"
	"testing"
)

// refFlow and refNet are the reference solver's state: plain maps, no
// index compaction, no incremental machinery.
type refFlow struct {
	demand float64
	routes []ResourceID
}

type refNet struct {
	caps  map[ResourceID]float64
	flows map[FlowID]*refFlow
}

func newRefNet() *refNet {
	return &refNet{caps: map[ResourceID]float64{}, flows: map[FlowID]*refFlow{}}
}

// solve runs textbook progressive filling: repeatedly find the bottleneck
// resource (minimum fair share among unfrozen flows), freeze its flows at
// that share, and recurse until every flow is frozen by a resource or by
// its demand.
func (n *refNet) solve() map[FlowID]float64 {
	rate := map[FlowID]float64{}
	frozen := map[FlowID]bool{}
	remaining := map[ResourceID]float64{}
	for r, c := range n.caps {
		remaining[r] = c
	}
	for {
		// Fair share each resource could still grant its unfrozen flows.
		best := math.Inf(1)
		haveRes := false
		for r := range n.caps {
			active := 0
			for id, f := range n.flows {
				if !frozen[id] && f.demand > 0 && contains(f.routes, r) {
					active++
				}
			}
			if active == 0 {
				continue
			}
			haveRes = true
			if s := remaining[r] / float64(active); s < best {
				best = s
			}
		}
		// Demand-limited flows below the bottleneck share freeze first.
		minDemand := math.Inf(1)
		for id, f := range n.flows {
			if !frozen[id] && f.demand > 0 && len(f.routes) > 0 && f.demand < minDemand {
				minDemand = f.demand
			}
		}
		if !haveRes {
			break
		}
		if minDemand < best {
			// Freeze every flow at exactly its demand ≤ minDemand... but
			// progressive filling freezes the single smallest demand tier,
			// then re-evaluates. Charge the frozen flow to its resources.
			for id, f := range n.flows {
				if frozen[id] || f.demand > minDemand || f.demand <= 0 || len(f.routes) == 0 {
					continue
				}
				frozen[id] = true
				rate[id] = f.demand
				for _, r := range f.routes {
					remaining[r] -= f.demand
				}
			}
			continue
		}
		// Freeze the flows of every resource at the bottleneck share.
		for r := range n.caps {
			active := 0
			for id, f := range n.flows {
				if !frozen[id] && f.demand > 0 && contains(f.routes, r) {
					active++
				}
			}
			if active == 0 {
				continue
			}
			if share := remaining[r] / float64(active); share <= best*(1+1e-12)+1e-15 {
				for id, f := range n.flows {
					if !frozen[id] && f.demand > 0 && contains(f.routes, r) {
						frozen[id] = true
						rate[id] = math.Min(best, f.demand)
						for _, r2 := range f.routes {
							remaining[r2] -= rate[id]
						}
					}
				}
			}
		}
	}
	for id, f := range n.flows {
		if !frozen[id] {
			rate[id] = 0
			if len(f.routes) == 0 {
				rate[id] = f.demand
			}
		}
	}
	return rate
}

func contains(rs []ResourceID, r ResourceID) bool {
	for _, x := range rs {
		if x == r {
			return true
		}
	}
	return false
}

// refClose uses a looser tolerance than almost(): the reference freezes
// whole resources at once and accumulates float error differently.
func refClose(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	return diff < 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestFlatMatchesReference drives both solvers through randomized sharing
// graphs — random capacities, routes, demand mixes, arrivals, departures,
// capacity changes — and demands identical rates after every step, for
// both RecomputeAll and incremental Recompute.
func TestFlatMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nRes := rng.Intn(12) + 3
		full := newByID()
		inc := newByID()
		full.Epsilon, inc.Epsilon = 0, 0
		ref := newRefNet()
		for r := ResourceID(0); r < ResourceID(nRes); r++ {
			c := float64(rng.Intn(1000)+1) * 1e6
			full.SetCapacity(r, c)
			inc.SetCapacity(r, c)
			ref.caps[r] = c
		}
		nextID := FlowID(0)
		for step := 0; step < 120; step++ {
			switch op := rng.Float64(); {
			case op < 0.55 || len(ref.flows) == 0:
				k := rng.Intn(min(4, nRes)) + 1
				var rs []ResourceID
				for len(rs) < k {
					r := ResourceID(rng.Intn(nRes))
					if !contains(rs, r) {
						rs = append(rs, r)
					}
				}
				demand := Unlimited
				if rng.Float64() < 0.4 {
					demand = float64(rng.Intn(500)+1) * 1e6
				}
				full.AddFlow(nextID, demand, rs)
				inc.AddFlow(nextID, demand, rs)
				ref.flows[nextID] = &refFlow{demand: demand, routes: rs}
				nextID++
			case op < 0.8:
				victim := pickFlow(rng, ref)
				full.RemoveFlow(victim)
				inc.RemoveFlow(victim)
				delete(ref.flows, victim)
			default:
				r := ResourceID(rng.Intn(nRes))
				c := float64(rng.Intn(1000)+1) * 1e6
				full.SetCapacity(r, c)
				inc.SetCapacity(r, c)
				ref.caps[r] = c
			}
			full.RecomputeAll()
			inc.Recompute()
			want := ref.solve()
			for id := range ref.flows {
				if !refClose(full.Rate(id), want[id]) {
					t.Fatalf("seed %d step %d: flat full solver flow %d = %g, reference = %g",
						seed, step, id, full.Rate(id), want[id])
				}
				if !refClose(inc.Rate(id), want[id]) {
					t.Fatalf("seed %d step %d: flat incremental solver flow %d = %g, reference = %g",
						seed, step, id, inc.Rate(id), want[id])
				}
			}
		}
	}
}

// pickFlow selects a deterministic victim given the rng: the k-th smallest
// live ID, so the test does not depend on map iteration order.
func pickFlow(rng *rand.Rand, ref *refNet) FlowID {
	min, max := FlowID(math.MaxInt64), FlowID(-1)
	for id := range ref.flows {
		if id < min {
			min = id
		}
		if id > max {
			max = id
		}
	}
	target := min + FlowID(rng.Int63n(int64(max-min+1)))
	// Walk up from target to the nearest live ID.
	for id := target; ; id++ {
		if _, ok := ref.flows[id]; ok {
			return id
		}
		if id > max {
			return min
		}
	}
}

// TestFlatSlotReuse verifies that heavy add/remove churn (exercising the
// free list and swap-removal) never corrupts adjacency: after churn, a
// final solve must match the reference.
func TestFlatSlotReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := newByID()
	a.Epsilon = 0
	ref := newRefNet()
	const nRes = 8
	for r := ResourceID(0); r < nRes; r++ {
		a.SetCapacity(r, 1e9)
		ref.caps[r] = 1e9
	}
	live := map[FlowID]bool{}
	for i := 0; i < 2000; i++ {
		id := FlowID(rng.Intn(200)) // small ID space forces constant reuse
		if live[id] {
			a.RemoveFlow(id)
			delete(ref.flows, id)
			delete(live, id)
		} else {
			rs := []ResourceID{ResourceID(rng.Intn(nRes)), ResourceID(rng.Intn(nRes))}
			a.AddFlow(id, Unlimited, rs)
			dedup := rs[:1]
			if rs[1] != rs[0] {
				dedup = rs
			}
			ref.flows[id] = &refFlow{demand: Unlimited, routes: dedup}
			live[id] = true
		}
	}
	a.RecomputeAll()
	want := ref.solve()
	for id := range ref.flows {
		if !refClose(a.Rate(id), want[id]) {
			t.Fatalf("flow %d = %g, reference = %g", id, a.Rate(id), want[id])
		}
	}
}

// TestDuplicateRouteEntries: duplicate resources in a route are collapsed,
// so a flow listed twice on a link gets one share, not two.
func TestDuplicateRouteEntries(t *testing.T) {
	a := newByID()
	a.SetCapacity(1, 1e9)
	a.AddFlow(1, Unlimited, []ResourceID{1, 1})
	a.AddFlow(2, Unlimited, []ResourceID{1})
	a.RecomputeAll()
	if !almost(a.Rate(1), 5e8) || !almost(a.Rate(2), 5e8) {
		t.Errorf("rates = %g, %g; want equal 5e8 shares", a.Rate(1), a.Rate(2))
	}
	a.RemoveFlow(1)
	a.Recompute()
	if !almost(a.Rate(2), 1e9) {
		t.Errorf("after duplicate-route flow removal rate = %g, want 1e9", a.Rate(2))
	}
}
