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
	a, b  *Allocator
	caps  []float64
	flows map[FlowID]slackFlow
	ids   int // flow IDs are drawn from [0, ids)
}

func newSlackRun(seed int64, nFlows, nRes int) *slackRun {
	r := &slackRun{
		rng:   rand.New(rand.NewSource(seed)),
		a:     New(),
		b:     New(),
		flows: map[FlowID]slackFlow{},
		ids:   2 * nFlows,
	}
	for k := 0; k < nRes; k++ {
		r.caps = append(r.caps, r.capacity())
		r.setCapacity(ResourceID(k), r.caps[k])
	}
	for i := 0; i < nFlows; i++ {
		r.add(FlowID(i))
	}
	return r
}

// capacity draws a slack-heavy capacity: most resources hold many flows'
// demands, one in six saturates under a few.
func (r *slackRun) capacity() float64 {
	if r.rng.Intn(6) == 0 {
		return (0.5 + 1.5*r.rng.Float64()) * 1e8
	}
	return (0.5 + 4*r.rng.Float64()) * 1e9
}

// demand draws a demand off any round number, so that no rate move sits
// exactly on the Epsilon boundary; now and then backlogged or idle.
func (r *slackRun) demand() float64 {
	switch r.rng.Intn(48) {
	case 0:
		return Unlimited
	case 1:
		return 0
	}
	return (0.01 + r.rng.Float64()) * 1e8
}

func (r *slackRun) setCapacity(k ResourceID, c float64) {
	r.a.SetCapacity(k, c)
	r.b.SetCapacity(k, c)
}

func (r *slackRun) add(id FlowID) {
	var route []ResourceID
	for n := 1 + r.rng.Intn(4); len(route) < n && len(route) < len(r.caps); {
		if k := ResourceID(r.rng.Intn(len(r.caps))); !slices.Contains(route, k) {
			route = append(route, k)
		}
	}
	d := r.demand()
	r.flows[id] = slackFlow{demand: d, route: route}
	r.a.AddFlow(id, d, route)
	r.b.AddFlow(id, d, route)
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
			r.caps[k] = r.capacity()
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
				f.demand = r.demand()
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

// checkSlack runs batches of changes and checks after each recompute. It
// returns the share of recomputes the slack path settled.
func checkSlack(t testing.TB, seed int64, nFlows, nRes, batches int) float64 {
	t.Helper()
	r := newSlackRun(seed, nFlows, nRes)
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
		f.Add(seed, uint8(8*seed), uint8(2*seed), uint8(200))
	}
	f.Fuzz(func(t *testing.T, seed int64, flows, res, batches uint8) {
		checkSlack(t, seed, 1+int(flows)%96, 1+int(res)%24, 1+int(batches))
	})
}

// TestSlackPathTaken pins that FuzzSlackPath's instances reach both paths:
// the slack path and the solve each settle at least a quarter of the
// recomputes.
func TestSlackPathTaken(t *testing.T) {
	if share := checkSlack(t, 1, 40, 16, 400); share < 0.25 || share > 0.75 {
		t.Fatalf("slack path settled %.0f%% of recomputes, want 25%% to 75%%", 100*share)
	}
}
