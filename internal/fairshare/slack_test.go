package fairshare

// The slack path's oracle is the max–min allocation itself: after every
// Recompute the rates must match a from-scratch solve of the same state,
// be feasible, and carry the max–min certificate flow by flow.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// slackFlow is the test's own record of a registered flow.
type slackFlow struct {
	demand float64
	route  []ResourceID // distinct resources
}

// slackRun drives an allocator and a twin with the same changes; the twin
// always re-solves from scratch.
type slackRun struct {
	rng   *rand.Rand
	a, b  *byID
	caps  []float64
	flows map[FlowID]slackFlow
	ids   int // flow IDs are drawn from [0, ids)
	hosts int // on a star (see newStarRun), else 0
	err   error
}

func newSlackRun(seed int64, nFlows, nRes int) *slackRun {
	r := &slackRun{
		rng:   rand.New(rand.NewSource(seed)),
		a:     newByID(),
		b:     newByID(),
		flows: map[FlowID]slackFlow{},
		ids:   2 * nFlows,
	}
	for k := 0; k < nRes; k++ {
		r.caps = append(r.caps, r.capacity(k))
		r.setCapacity(ResourceID(k), r.caps[k])
	}
	for i := 0; i < nFlows; i++ {
		r.add(FlowID(i))
	}
	return r
}

// newStarRun is newSlackRun on a star, the shape of line-rate flows
// between hosts: each host has an uplink (resource 2h) and a downlink
// (2h+1), and a flow crosses its source's uplink and its destination's
// downlink. With a few flows per host most routes are lone. Flow 0 alone
// crosses a private pair of resources that may both hold +Inf capacities;
// its demand stays finite, so wherever no finite capacity binds it gets
// its demand. NaN capacities are left to TestLoneRoute: Recompute fills
// the union of the dirty components at one level, at whose first step a
// NaN resource is exhausted, so its flows' rates depend on what else is
// dirty, and RecomputeAll, which fills component by component, disagrees.
func newStarRun(seed int64, nFlows, hosts int) *slackRun {
	r := &slackRun{
		rng:   rand.New(rand.NewSource(seed)),
		a:     newByID(),
		b:     newByID(),
		flows: map[FlowID]slackFlow{},
		ids:   2 * nFlows,
		hosts: hosts,
	}
	for k := 0; k < 2*hosts+2; k++ {
		r.caps = append(r.caps, r.capacity(k))
		r.setCapacity(ResourceID(k), r.caps[k])
	}
	for i := 0; i < nFlows; i++ {
		r.add(FlowID(i))
	}
	return r
}

// lineRate is the star's link capacity.
const lineRate = 1e9

// capacity draws resource k's capacity. Off the star it is slack-heavy:
// most resources hold many flows' demands, one in six saturates under a
// few. On the star it is the line rate, now and then 0 or, on uplinks only
// (so every host route keeps a finite resource), +Inf.
func (r *slackRun) capacity(k int) float64 {
	if r.hosts == 0 {
		if r.rng.Intn(6) == 0 {
			return (0.5 + 1.5*r.rng.Float64()) * 1e8
		}
		return (0.5 + 4*r.rng.Float64()) * 1e9
	}
	switch k - 2*r.hosts {
	case 0:
		return [...]float64{lineRate, math.Inf(1), 0}[r.rng.Intn(3)]
	case 1:
		return [...]float64{lineRate, lineRate / 3, math.Inf(1), 0}[r.rng.Intn(4)]
	}
	switch r.rng.Intn(8) {
	case 0:
		return 0
	case 1:
		if k%2 == 0 {
			return math.Inf(1)
		}
	}
	return lineRate
}

// demand draws flow id's demand. Off the star it is off any round number,
// so that no rate move sits exactly on the Epsilon boundary, and now and
// then backlogged or idle. On the star it is most often the line rate,
// else above or below it, 0, negative or (not for flow 0) backlogged.
func (r *slackRun) demand(id FlowID) float64 {
	if r.hosts == 0 {
		switch r.rng.Intn(48) {
		case 0:
			return Unlimited
		case 1:
			return 0
		}
		return (0.01 + r.rng.Float64()) * 1e8
	}
	switch r.rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return -lineRate * r.rng.Float64()
	case 2:
		if id != 0 {
			return Unlimited
		}
	case 3:
		return lineRate * (1 + r.rng.Float64())
	case 4:
		return lineRate * (0.01 + r.rng.Float64())
	}
	return lineRate
}

// route draws flow id's route: 1 to 4 distinct resources, or on the star
// an uplink and a downlink (flow 0: its private pair).
func (r *slackRun) route(id FlowID) []ResourceID {
	var route []ResourceID
	switch {
	case r.hosts == 0:
		for n := 1 + r.rng.Intn(4); len(route) < n && len(route) < len(r.caps); {
			if k := ResourceID(r.rng.Intn(len(r.caps))); !slices.Contains(route, k) {
				route = append(route, k)
			}
		}
	case id == 0:
		route = []ResourceID{ResourceID(2 * r.hosts), ResourceID(2*r.hosts + 1)}
	default:
		route = []ResourceID{ResourceID(2 * r.rng.Intn(r.hosts)), ResourceID(2*r.rng.Intn(r.hosts) + 1)}
	}
	return route
}

// fills reports whether some resource on route carries a single flow
// whose rate is the resource's whole capacity: a flow joining it cannot
// take the slack path.
func (r *slackRun) fills(route []ResourceID) bool {
	for _, k := range route {
		if i := r.a.lookup(k); i >= 0 {
			if rs := r.a.res[i]; len(rs.flows) == 1 && r.a.flow(rs.flows[0].flow).rate >= rs.capacity {
				return true
			}
		}
	}
	return false
}

func (r *slackRun) setCapacity(k ResourceID, c float64) {
	r.a.SetCapacity(k, c)
	r.b.SetCapacity(k, c)
}

// add registers flow id, replacing it if live. Joining a resource a lone
// flow fills must break the batch.
func (r *slackRun) add(id FlowID) {
	route := r.route(id)
	d := r.demand(id)
	r.flows[id] = slackFlow{demand: d, route: route}
	r.a.RemoveFlow(id)
	fills := r.fills(route)
	r.a.AddFlow(id, d, route)
	r.b.AddFlow(id, d, route)
	if fills && !r.a.broken && r.err == nil {
		r.err = fmt.Errorf("flow %d joined a resource a lone flow fills and the batch held", id)
	}
}

// pick returns a registered flow, or -1 if there is none.
func (r *slackRun) pick() FlowID {
	if len(r.flows) == 0 {
		return -1
	}
	ids := make([]FlowID, 0, len(r.flows))
	for id := range r.flows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids[r.rng.Intn(len(ids))]
}

// batch applies one to four random changes to both allocators, now and
// then with a capacity change among them.
func (r *slackRun) batch() {
	for n := 1 + r.rng.Intn(4); n > 0; n-- {
		switch op := r.rng.Intn(20); {
		case op == 0:
			k := r.rng.Intn(len(r.caps))
			r.caps[k] = r.capacity(k)
			r.setCapacity(ResourceID(k), r.caps[k])
		case op < 8: // a new flow, or a live one replaced
			r.add(FlowID(r.rng.Intn(r.ids)))
		case op < 13:
			if id := r.pick(); id >= 0 {
				delete(r.flows, id)
				r.a.RemoveFlow(id)
				r.b.RemoveFlow(id)
			}
		default:
			if id := r.pick(); id >= 0 {
				f := r.flows[id]
				f.demand = r.demand(id)
				if r.rng.Intn(2) == 0 && !math.IsInf(r.flows[id].demand, 0) {
					f.demand = r.flows[id].demand * (0.5 + r.rng.Float64())
				}
				r.flows[id] = f
				r.a.SetDemand(id, f.demand)
				r.b.SetDemand(id, f.demand)
			}
		}
	}
}

// check recomputes both allocators and holds the incremental one to the
// twin's from-scratch solve, to capacity, and to the max–min certificate.
func (r *slackRun) check() error {
	if r.err != nil {
		return r.err
	}
	got := changedIDs(r.a.Recompute())
	want := changedIDs(r.b.RecomputeAll())
	if !slices.Equal(got, want) {
		return fmt.Errorf("reported %v, from scratch %v", got, want)
	}
	for id := range r.flows {
		x, y := r.a.Rate(id), r.b.Rate(id)
		if math.Abs(x-y) > 1e-12*max(math.Abs(x), math.Abs(y)) {
			return fmt.Errorf("flow %d rate %v, from scratch %v", id, x, y)
		}
	}
	used := make([]float64, len(r.caps))
	top := make([]float64, len(r.caps))
	for id, f := range r.flows {
		rate := r.a.Rate(id)
		for _, k := range f.route {
			used[k] += rate
			top[k] = max(top[k], rate)
		}
	}
	margin := func(k ResourceID) float64 { return 2*tiny + 1e-12*r.caps[k] }
	for k, c := range r.caps {
		if used[k] > c+margin(ResourceID(k)) {
			return fmt.Errorf("resource %d carries %v over capacity %v", k, used[k], c)
		}
	}
	for id, f := range r.flows {
		rate := r.a.Rate(id)
		if rate >= max(f.demand, 0)*(1-1e-12)-tiny {
			continue // at its demand
		}
		bottleneck := false
		for _, k := range f.route {
			if used[k] >= r.caps[k]-margin(k) && rate >= top[k]*(1-1e-12)-tiny {
				bottleneck = true
				break
			}
		}
		if !bottleneck {
			return fmt.Errorf("flow %d at %v below demand %v with no saturated resource where it gets most", id, rate, f.demand)
		}
	}
	return nil
}

func changedIDs(cs []Changed) []FlowID {
	ids := make([]FlowID, len(cs))
	for i, c := range cs {
		ids[i] = c.ID
	}
	slices.Sort(ids)
	return ids
}

// checkSlack runs batches of changes on r and checks after each
// recompute. It returns the share of recomputes the slack path settled.
func checkSlack(t testing.TB, r *slackRun, seed int64, batches int) float64 {
	t.Helper()
	if err := r.check(); err != nil {
		t.Fatalf("seed %d initial solve: %v", seed, err)
	}
	for i := 0; i < batches; i++ {
		r.batch()
		if err := r.check(); err != nil {
			t.Fatalf("seed %d batch %d: %v", seed, i, err)
		}
	}
	return float64(r.a.SlackRecomputes) / float64(r.a.SlackRecomputes+r.a.ComponentSolves)
}

func FuzzSlackPath(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(8*seed), uint8(2*seed), uint8(200), false)
		f.Add(seed, uint8(3*seed), uint8(4*seed), uint8(200), true)
	}
	f.Fuzz(func(t *testing.T, seed int64, flows, res, batches uint8, star bool) {
		if star {
			hosts := 2 + int(res)%30
			checkSlack(t, newStarRun(seed, 1+int(flows)%hosts, hosts), seed, 1+int(batches))
		} else {
			checkSlack(t, newSlackRun(seed, 1+int(flows)%96, 1+int(res)%24), seed, 1+int(batches))
		}
	})
}

// TestSlackPathTaken pins that FuzzSlackPath's instances reach both paths:
// the slack path and the solve each settle at least a quarter of the
// recomputes.
func TestSlackPathTaken(t *testing.T) {
	if share := checkSlack(t, newSlackRun(1, 40, 16), 1, 400); share < 0.25 || share > 0.75 {
		t.Fatalf("slack path settled %.0f%% of recomputes, want 25%% to 75%%", 100*share)
	}
}

// TestLoneRoute: a flow alone on its route gets, without a solve, the rate
// the solve gives it, bit for bit; a NaN or +Inf minimum capacity breaks
// the batch instead.
func TestLoneRoute(t *testing.T) {
	caps := []float64{-1, 0, 1, lineRate, math.Inf(1), math.NaN()}
	demands := []float64{-1, 0, 1, lineRate / 3, lineRate, 2 * lineRate, Unlimited}
	route := []ResourceID{0, 1}
	for _, c0 := range caps {
		for _, c1 := range caps {
			for _, d := range demands {
				a, b := New(), New()
				for _, x := range []*Allocator{a, b} {
					x.SetCapacity(0, c0)
					x.SetCapacity(1, c1)
					x.Recompute()
				}
				solves := a.ComponentSolves
				fa, fb := a.AddFlow(1, d, route), b.AddFlow(1, d, route)
				a.Recompute()
				b.RecomputeAll()
				got, want := a.Rate(fa), b.Rate(fb)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("caps %v, %v, demand %v: rate %v, solve %v", c0, c1, d, got, want)
				}
				if solved, breaks := a.ComponentSolves > solves, !(min(c0, c1) < math.Inf(1)); solved != breaks {
					t.Errorf("caps %v, %v, demand %v: solved %v, want %v", c0, c1, d, solved, breaks)
				}
			}
		}
	}
}
