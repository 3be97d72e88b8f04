package fairshare

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	return diff < 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSingleFlowDemandLimited(t *testing.T) {
	a := newByID()
	a.SetCapacity(1, 1e9)
	a.AddFlow(1, 3e8, []ResourceID{1})
	a.RecomputeAll()
	if !almost(a.Rate(1), 3e8) {
		t.Errorf("rate = %g, want demand 3e8", a.Rate(1))
	}
}

func TestSingleFlowCapacityLimited(t *testing.T) {
	a := newByID()
	a.SetCapacity(1, 1e9)
	a.AddFlow(1, Unlimited, []ResourceID{1})
	a.RecomputeAll()
	if !almost(a.Rate(1), 1e9) {
		t.Errorf("rate = %g, want capacity 1e9", a.Rate(1))
	}
}

func TestEqualSharing(t *testing.T) {
	a := newByID()
	a.SetCapacity(1, 9e8)
	for i := FlowID(1); i <= 3; i++ {
		a.AddFlow(i, Unlimited, []ResourceID{1})
	}
	a.RecomputeAll()
	for i := FlowID(1); i <= 3; i++ {
		if !almost(a.Rate(i), 3e8) {
			t.Errorf("flow %d rate = %g, want 3e8", i, a.Rate(i))
		}
	}
}

func TestMaxMinClassic(t *testing.T) {
	// Classic example: flows A,B on link1 (cap 1); B,C on link2 (cap 2).
	// Max-min: A=0.5, B=0.5, C=1.5.
	a := newByID()
	a.SetCapacity(1, 1)
	a.SetCapacity(2, 2)
	a.AddFlow(1, Unlimited, []ResourceID{1})    // A
	a.AddFlow(2, Unlimited, []ResourceID{1, 2}) // B
	a.AddFlow(3, Unlimited, []ResourceID{2})    // C
	a.RecomputeAll()
	if !almost(a.Rate(1), 0.5) || !almost(a.Rate(2), 0.5) || !almost(a.Rate(3), 1.5) {
		t.Errorf("rates = %g,%g,%g want 0.5,0.5,1.5", a.Rate(1), a.Rate(2), a.Rate(3))
	}
}

func TestDemandFreesShare(t *testing.T) {
	// One small demand flow leaves headroom for the greedy one.
	a := newByID()
	a.SetCapacity(1, 1e9)
	a.AddFlow(1, 1e8, []ResourceID{1})
	a.AddFlow(2, Unlimited, []ResourceID{1})
	a.RecomputeAll()
	if !almost(a.Rate(1), 1e8) {
		t.Errorf("small flow rate = %g, want its demand", a.Rate(1))
	}
	if !almost(a.Rate(2), 9e8) {
		t.Errorf("greedy flow rate = %g, want the rest (9e8)", a.Rate(2))
	}
}

func TestZeroCapacityStarves(t *testing.T) {
	a := newByID()
	a.SetCapacity(1, 0)
	a.AddFlow(1, Unlimited, []ResourceID{1})
	a.AddFlow(2, 100, []ResourceID{1})
	a.RecomputeAll()
	if a.Rate(1) != 0 || a.Rate(2) != 0 {
		t.Errorf("rates = %g,%g, want 0,0 on a dead link", a.Rate(1), a.Rate(2))
	}
}

func TestZeroDemandFlow(t *testing.T) {
	a := newByID()
	a.SetCapacity(1, 1e9)
	a.AddFlow(1, 0, []ResourceID{1})
	a.AddFlow(2, Unlimited, []ResourceID{1})
	a.RecomputeAll()
	if a.Rate(1) != 0 {
		t.Errorf("zero-demand flow got rate %g", a.Rate(1))
	}
	if !almost(a.Rate(2), 1e9) {
		t.Errorf("other flow rate = %g, want full capacity", a.Rate(2))
	}
}

func TestFlowWithNoResources(t *testing.T) {
	a := newByID()
	a.AddFlow(1, 5e8, nil)
	a.RecomputeAll()
	if !almost(a.Rate(1), 5e8) {
		t.Errorf("resource-free flow rate = %g, want demand", a.Rate(1))
	}
}

func TestRemoveFlowRedistributes(t *testing.T) {
	a := newByID()
	a.SetCapacity(1, 1e9)
	a.AddFlow(1, Unlimited, []ResourceID{1})
	a.AddFlow(2, Unlimited, []ResourceID{1})
	a.RecomputeAll()
	if !almost(a.Rate(1), 5e8) {
		t.Fatalf("initial share = %g", a.Rate(1))
	}
	a.RemoveFlow(2)
	changed := a.Recompute()
	if !almost(a.Rate(1), 1e9) {
		t.Errorf("after removal rate = %g, want 1e9", a.Rate(1))
	}
	if len(changed) != 1 || changed[0].ID != 1 {
		t.Errorf("changed = %v, want flow 1 only", changed)
	}
}

func TestMeterAsExtraResource(t *testing.T) {
	// A meter is just another resource on the flow's path: a 5e8 meter on
	// a 1e9 link caps the flow at 5e8.
	a := newByID()
	a.SetCapacity(1, 1e9)   // link
	a.SetCapacity(100, 5e8) // meter
	a.AddFlow(1, Unlimited, []ResourceID{1, 100})
	a.AddFlow(2, Unlimited, []ResourceID{1})
	a.RecomputeAll()
	if !almost(a.Rate(1), 5e8) {
		t.Errorf("metered flow = %g, want 5e8", a.Rate(1))
	}
	if !almost(a.Rate(2), 5e8) {
		t.Errorf("unmetered flow = %g, want leftover 5e8", a.Rate(2))
	}
}

func TestSetDemandTriggersDirty(t *testing.T) {
	a := newByID()
	a.SetCapacity(1, 1e9)
	a.AddFlow(1, 1e8, []ResourceID{1})
	a.RecomputeAll()
	a.SetDemand(1, 2e8)
	changed := a.Recompute()
	if len(changed) != 1 || !almost(a.Rate(1), 2e8) {
		t.Errorf("demand change not applied: rate=%g changed=%v", a.Rate(1), changed)
	}
	// No-op demand change must not dirty anything.
	a.SetDemand(1, 2e8)
	if got := a.Recompute(); got != nil {
		t.Errorf("no-op SetDemand caused recompute: %v", got)
	}
}

func TestEpsilonSuppression(t *testing.T) {
	a := newByID()
	a.Epsilon = 0.05
	a.SetCapacity(1, 1e9)
	a.AddFlow(1, Unlimited, []ResourceID{1})
	a.RecomputeAll()
	// Adding a tiny-demand flow changes flow 1's rate by < epsilon.
	a.AddFlow(2, 1e6, []ResourceID{1}) // 0.1% of capacity
	changed := a.Recompute()
	for _, c := range changed {
		if c.ID == 1 {
			t.Errorf("sub-epsilon change reported: %+v", c)
		}
	}
	// But the rate itself is still updated.
	if !almost(a.Rate(1), 1e9-1e6) {
		t.Errorf("rate = %g, want 9.99e8", a.Rate(1))
	}
}

func TestIncrementalMatchesFull(t *testing.T) {
	// Build a random sharing structure, mutate it step by step, and check
	// Recompute (incremental) tracks RecomputeAll (reference) exactly.
	rng := rand.New(rand.NewSource(11))
	inc := newByID()
	ref := newByID()
	inc.Epsilon, ref.Epsilon = 0, 0
	const nRes = 20
	for r := ResourceID(0); r < nRes; r++ {
		cap := float64(rng.Intn(10)+1) * 1e8
		inc.SetCapacity(r, cap)
		ref.SetCapacity(r, cap)
	}
	nextID := FlowID(0)
	live := map[FlowID][]ResourceID{}
	for step := 0; step < 300; step++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			k := rng.Intn(3) + 1
			var rs []ResourceID
			seen := map[ResourceID]bool{}
			for len(rs) < k {
				r := ResourceID(rng.Intn(nRes))
				if !seen[r] {
					seen[r] = true
					rs = append(rs, r)
				}
			}
			demand := Unlimited
			if rng.Float64() < 0.3 {
				demand = float64(rng.Intn(5)+1) * 1e7
			}
			inc.AddFlow(nextID, demand, rs)
			ref.AddFlow(nextID, demand, rs)
			live[nextID] = rs
			nextID++
		} else {
			var victim FlowID = -1
			for id := range live {
				victim = id
				break
			}
			inc.RemoveFlow(victim)
			ref.RemoveFlow(victim)
			delete(live, victim)
		}
		inc.Recompute()
		ref.RecomputeAll()
		for id := range live {
			if !almost(inc.Rate(id), ref.Rate(id)) {
				t.Fatalf("step %d: flow %d incremental=%g full=%g", step, id, inc.Rate(id), ref.Rate(id))
			}
		}
	}
	if inc.ComponentSolves == 0 {
		t.Error("incremental path never exercised")
	}
}

// Property: allocations never exceed capacity on any resource and never
// exceed demand on any flow.
func TestFeasibilityProperty(t *testing.T) {
	prop := func(caps [5]uint32, routes [12]uint8, demands [12]uint32) bool {
		a := newByID()
		for r := ResourceID(0); r < 5; r++ {
			a.SetCapacity(r, float64(caps[r]%1000)+1)
		}
		for i := 0; i < 12; i++ {
			r1 := ResourceID(routes[i] % 5)
			r2 := ResourceID((routes[i] / 5) % 5)
			rs := []ResourceID{r1}
			if r2 != r1 {
				rs = append(rs, r2)
			}
			d := float64(demands[i]%2000) + 1
			a.AddFlow(FlowID(i), d, rs)
		}
		a.RecomputeAll()
		for r := ResourceID(0); r < 5; r++ {
			if a.ResourceUsage(r) > a.Capacity(r)*(1+1e-6)+1e-6 {
				return false
			}
		}
		for i := 0; i < 12; i++ {
			if a.Rate(FlowID(i)) > a.Demand(FlowID(i))*(1+1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property (max-min defining property, weak form): no flow can be starved
// while another flow on the same bottleneck holds more than its share: for
// any two unlimited flows sharing identical resource sets, rates are equal.
func TestSymmetryProperty(t *testing.T) {
	prop := func(caps [4]uint32, route uint8) bool {
		a := newByID()
		for r := ResourceID(0); r < 4; r++ {
			a.SetCapacity(r, float64(caps[r]%1000)+1)
		}
		rs := []ResourceID{ResourceID(route % 4), ResourceID((route / 4) % 4)}
		if rs[0] == rs[1] {
			rs = rs[:1]
		}
		a.AddFlow(1, Unlimited, rs)
		a.AddFlow(2, Unlimited, rs)
		a.RecomputeAll()
		return almost(a.Rate(1), a.Rate(2))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: work conservation — every unlimited flow is bottlenecked by at
// least one saturated resource.
func TestWorkConservationProperty(t *testing.T) {
	prop := func(caps [4]uint32, routes [6]uint8) bool {
		a := newByID()
		for r := ResourceID(0); r < 4; r++ {
			a.SetCapacity(r, float64(caps[r]%1000)+1)
		}
		for i := 0; i < 6; i++ {
			a.AddFlow(FlowID(i), Unlimited, []ResourceID{ResourceID(routes[i] % 4)})
		}
		a.RecomputeAll()
		for i := 0; i < 6; i++ {
			r := ResourceID(routes[i] % 4)
			if !almost(a.ResourceUsage(r), a.Capacity(r)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAddFlowReplacesExisting(t *testing.T) {
	a := newByID()
	a.SetCapacity(1, 1e9)
	a.SetCapacity(2, 1e9)
	a.AddFlow(1, Unlimited, []ResourceID{1})
	a.AddFlow(1, Unlimited, []ResourceID{2}) // re-add on a different route
	a.RecomputeAll()
	if a.NumFlows() != 1 {
		t.Fatalf("NumFlows = %d, want 1", a.NumFlows())
	}
	if got := a.ResourceUsage(1); got != 0 {
		t.Errorf("old route still carries %g", got)
	}
	if !almost(a.ResourceUsage(2), 1e9) {
		t.Errorf("new route carries %g", a.ResourceUsage(2))
	}
}

func TestCapacityChangePropagates(t *testing.T) {
	a := newByID()
	a.SetCapacity(1, 1e9)
	a.AddFlow(1, Unlimited, []ResourceID{1})
	a.RecomputeAll()
	a.SetCapacity(1, 2e9)
	a.Recompute()
	if !almost(a.Rate(1), 2e9) {
		t.Errorf("rate = %g after capacity increase, want 2e9", a.Rate(1))
	}
}

func BenchmarkFairshareFull1000Flows(b *testing.B) {
	a := setupBench(1000, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.RecomputeAll()
	}
}

func BenchmarkFairshareIncremental1000Flows(b *testing.B) {
	a := setupBench(1000, 100)
	a.RecomputeAll()
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := FlowID(i + 1000000)
		a.AddFlow(id, Unlimited, []ResourceID{ResourceID(rng.Intn(100))})
		a.Recompute()
		a.RemoveFlow(id)
		a.Recompute()
	}
}

// BenchmarkFairshareIslands exercises the incremental path where it should
// shine: 64 disjoint 16-flow islands, churn confined to one island per
// event, so each Recompute touches ~1/64 of the flows.
func BenchmarkFairshareIslands(b *testing.B) {
	const islands, flowsPer = 64, 16
	a := newByID()
	for i := 0; i < islands; i++ {
		a.SetCapacity(ResourceID(i), 1e9)
		for j := 0; j < flowsPer; j++ {
			a.AddFlow(FlowID(i*flowsPer+j), Unlimited, []ResourceID{ResourceID(i)})
		}
	}
	a.RecomputeAll()
	rng := rand.New(rand.NewSource(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		island := ResourceID(rng.Intn(islands))
		id := FlowID(1000000 + i)
		a.AddFlow(id, Unlimited, []ResourceID{island})
		a.Recompute()
		a.RemoveFlow(id)
		a.Recompute()
	}
}

// BenchmarkFairshareChurn measures the mutation API itself (add/remove
// without solving): slot reuse must keep it allocation-light.
func BenchmarkFairshareChurn(b *testing.B) {
	a := setupBench(1000, 100)
	a.RecomputeAll()
	rng := rand.New(rand.NewSource(9))
	route := make([]ResourceID, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range route {
			route[j] = ResourceID(rng.Intn(100))
		}
		id := FlowID(2000000 + i)
		a.AddFlow(id, Unlimited, route)
		a.RemoveFlow(id)
	}
}

func setupBench(flows, resources int) *byID {
	a := newByID()
	rng := rand.New(rand.NewSource(17))
	for r := 0; r < resources; r++ {
		a.SetCapacity(ResourceID(r), 1e9)
	}
	for f := 0; f < flows; f++ {
		rs := []ResourceID{
			ResourceID(rng.Intn(resources)),
			ResourceID(rng.Intn(resources)),
			ResourceID(rng.Intn(resources)),
		}
		a.AddFlow(FlowID(f), Unlimited, rs)
	}
	return a
}

// TestChurnAllocFree: once warm, cycles of adds, demand changes, removals
// and recomputes allocate nothing, though every flow carries a new label:
// nothing is keyed by label, and slots, routes and solver scratch are
// reused. The one measured run holds 100 cycles, 4,000 new labels, and
// AllocsPerRun's own warm-up run is skipped, so a table that grows with
// the labels shows as a count rather than averaging away or growing
// ahead unmeasured. The cycles take the lone-route case, the slack path
// and the solve.
func TestChurnAllocFree(t *testing.T) {
	const nRes, nFlows = 24, 40
	a := New()
	for k := range nRes {
		a.SetCapacity(ResourceID(k), 1e9)
	}
	rng := rand.New(rand.NewSource(1))
	routes := make([][]ResourceID, nFlows)
	for i := range routes {
		for n := 1 + rng.Intn(3); len(routes[i]) < n; {
			routes[i] = append(routes[i], ResourceID(rng.Intn(nRes)))
		}
	}
	routes[0] = []ResourceID{nRes} // alone on a resource of its own
	a.SetCapacity(nRes, 1e9)
	slots := make([]int32, nFlows)
	label := FlowID(0)
	cycle := func() {
		for i, r := range routes {
			label++
			slots[i] = a.AddFlow(label, 1e7, r)
		}
		a.Recompute()
		for _, fi := range slots {
			a.SetDemand(fi, 6e8)
		}
		a.Recompute()
		for _, fi := range slots {
			a.Remove(fi)
		}
		a.Recompute()
	}
	cycle()
	cycle()
	slack, solves := a.SlackRecomputes, a.ComponentSolves
	warm := true
	n := testing.AllocsPerRun(1, func() {
		if warm {
			warm = false
			return
		}
		for range 100 {
			cycle()
		}
	})
	if n != 0 {
		t.Errorf("100 warm add/SetDemand/Remove/Recompute cycles allocate %.0f objects", n)
	}
	if a.SlackRecomputes == slack || a.ComponentSolves == solves {
		t.Errorf("the cycles took the slack path %d times and solved %d times, want both", a.SlackRecomputes-slack, a.ComponentSolves-solves)
	}
}
