package fairshare

// The exactness oracle: solveEager is eager progressive filling, which
// updates every active resource on every iteration. The heap-driven solve
// must reproduce its rates bit for bit and its change lists entry for
// entry, through every recompute entry point.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// solveEager is the oracle: progressive filling with a scan of every
// active resource per iteration.
func (a *Allocator) solveEager(comp []int32, w *solveWorker) {
	w.visited += uint64(len(comp))
	s := &a.scratch
	ep := s.solveEpoch

	order := w.order[:0]
	var activeRes []int32
	for _, fi := range comp {
		f := a.flow(fi)
		for _, k := range f.res {
			if s.resMark[k] != ep {
				s.resMark[k] = ep
				s.remaining[k] = a.res[k].capacity
				s.active[k] = 0
				activeRes = append(activeRes, k)
			}
		}
		if f.demand <= 0 {
			s.frozen[fi] = ep
			s.allocVal[fi] = 0
			continue
		}
		for _, k := range f.res {
			s.active[k]++
		}
		order = append(order, fi)
	}
	slices.SortFunc(order, func(x, y int32) int {
		return cmp.Compare(a.flow(x).demand, a.flow(y).demand)
	})
	nextDemand := 0
	w.activeCount = len(order)
	w.level = 0

	for w.activeCount > 0 {
		for nextDemand < len(order) && s.frozen[order[nextDemand]] == ep {
			nextDemand++
		}
		delta := math.Inf(1)
		if nextDemand < len(order) {
			if d := a.flow(order[nextDemand]).demand - w.level; d < delta {
				delta = d
			}
		}
		for x := 0; x < len(activeRes); {
			k := activeRes[x]
			if s.active[k] == 0 {
				activeRes[x] = activeRes[len(activeRes)-1]
				activeRes = activeRes[:len(activeRes)-1]
				continue
			}
			if inc := s.remaining[k] / float64(s.active[k]); inc < delta {
				delta = inc
			}
			x++
		}
		if math.IsInf(delta, 1) {
			break
		}
		if delta < 0 {
			delta = 0
		}
		w.fillSteps++
		w.level += delta
		for _, k := range activeRes {
			s.remaining[k] -= delta * float64(s.active[k])
		}
		w.residualSteps += uint64(len(activeRes))
		progressed := false
		for nextDemand < len(order) {
			fi := order[nextDemand]
			if s.frozen[fi] == ep {
				nextDemand++
				continue
			}
			if w.level >= a.flow(fi).demand-tiny {
				a.freezeEager(fi, w)
				nextDemand++
				progressed = true
				continue
			}
			break
		}
		for _, k := range activeRes {
			if s.remaining[k] > tiny {
				continue
			}
			for _, er := range a.res[k].flows {
				if s.frozen[er.flow] != ep {
					a.freezeEager(er.flow, w)
					progressed = true
				}
			}
		}
		if delta == 0 && !progressed {
			break
		}
	}
	for _, fi := range order {
		if s.frozen[fi] != ep {
			s.allocVal[fi] = math.Min(w.level, a.flow(fi).demand)
		}
	}
	w.order = order
	for _, fi := range comp {
		f := a.flow(fi)
		newRate := s.allocVal[fi]
		old := f.rate
		f.rate = newRate
		if a.Significant(old, newRate) {
			w.changed = append(w.changed, Changed{ID: f.id, Slot: fi, OldRate: old, NewRate: newRate})
		}
	}
}

func (a *Allocator) freezeEager(fi int32, w *solveWorker) {
	s := &a.scratch
	f := a.flow(fi)
	s.frozen[fi] = s.solveEpoch
	s.allocVal[fi] = math.Min(w.level, f.demand)
	w.activeCount--
	for _, k := range f.res {
		s.active[k]--
	}
}

// eagerRecompute is Recompute with the oracle solver.
func (a *Allocator) eagerRecompute() []Changed {
	if len(a.dirtyRes) == 0 {
		return nil
	}
	a.ComponentSolves++
	w := a.openPass()
	a.solveEager(a.dirtyComponent(), w)
	a.collect(w)
	return w.changed
}

// eagerRecomputeAll is RecomputeAll with the oracle solver.
func (a *Allocator) eagerRecomputeAll() []Changed {
	a.FullSolves++
	cnt, pos, grouped := a.groupComponents()
	w := a.openPass()
	for r, c := range cnt {
		if c > 0 {
			a.solveEager(grouped[pos[r]-c:pos[r]], w)
		}
	}
	a.collect(w)
	return w.changed
}

// instance is a sharing graph: capacities by resource and flows by ID.
type instance struct {
	caps    []float64
	demands []float64
	routes  [][]ResourceID
	epsilon float64
}

func (in *instance) build() *byID {
	a := newByID()
	a.Epsilon = in.epsilon
	for r, c := range in.caps {
		a.SetCapacity(ResourceID(r), c)
	}
	for f, d := range in.demands {
		a.AddFlow(FlowID(f), d, in.routes[f])
	}
	return a
}

// recomputeModes are the entry points under test, each paired with its
// oracle.
var recomputeModes = []struct {
	name   string
	run    func(*Allocator) []Changed
	oracle func(*Allocator) []Changed
}{
	{"Recompute", (*Allocator).Recompute, (*Allocator).eagerRecompute},
	{"RecomputeAll", (*Allocator).RecomputeAll, (*Allocator).eagerRecomputeAll},
}

// checkExact solves in through every entry point and against the oracle,
// then churns a third of the flows and a few capacities and solves again,
// requiring bit-identical rates and identical change lists each time. It
// does so with solve's own choice of strategy and with each forced. A
// large instance is one IXP-shaped component, on which solve already
// picks the heap, so it skips forcing the heap (the race detector makes
// each eager solve of it cost a quarter second).
func checkExact(t testing.TB, in *instance, seed int64) {
	t.Helper()
	defer func(g float64) { heapGain = g }(heapGain)
	gains, modes := []float64{heapGain, 0, math.Inf(1)}, recomputeModes
	if len(in.demands) > 1000 {
		gains = []float64{heapGain, math.Inf(1)}
	}
	for _, gain := range gains {
		heapGain = gain
		for _, m := range modes {
			got, want := in.build(), in.build()
			rng := rand.New(rand.NewSource(seed))
			for round := 0; round < 2; round++ {
				if round == 1 {
					churn(rng, in, got, want)
				}
				if err := sameChanges(m.run(got.Allocator), m.oracle(want.Allocator)); err != nil {
					t.Fatalf("%s gain %g round %d: %v", m.name, gain, round, err)
				}
				for f := range in.demands {
					id := FlowID(f)
					if gb, wb := math.Float64bits(got.Rate(id)), math.Float64bits(want.Rate(id)); gb != wb {
						t.Fatalf("%s gain %g round %d: flow %d rate %v (%#x), eager %v (%#x)",
							m.name, gain, round, f, got.Rate(id), gb, want.Rate(id), wb)
					}
				}
			}
		}
	}
}

// churn applies the same random mutations to both allocators.
func churn(rng *rand.Rand, in *instance, as ...*byID) {
	for f := range in.demands {
		if rng.Intn(3) != 0 {
			continue
		}
		id := FlowID(f)
		switch rng.Intn(3) {
		case 0:
			for _, a := range as {
				a.RemoveFlow(id)
			}
		case 1:
			d := in.demands[f] * 0.5
			for _, a := range as {
				a.SetDemand(id, d)
			}
		default:
			for _, a := range as {
				a.AddFlow(id, in.demands[f], in.routes[f])
			}
		}
	}
	for i := 0; i < 3 && len(in.caps) > 0; i++ {
		r := rng.Intn(len(in.caps))
		c := in.caps[r] * (0.5 + rng.Float64())
		for _, a := range as {
			a.SetCapacity(ResourceID(r), c)
		}
	}
}

func sameChanges(got, want []Changed) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d changes, eager %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Slot != w.Slot ||
			math.Float64bits(g.OldRate) != math.Float64bits(w.OldRate) ||
			math.Float64bits(g.NewRate) != math.Float64bits(w.NewRate) {
			return fmt.Errorf("change %d = %+v, eager %+v", i, g, w)
		}
	}
	return nil
}

// Instance shapes for the oracle tests and the fuzz corpus.
const (
	shapeRandom = iota
	shapeEqualDemands
	shapeEqualLevels
	shapeExtremeCaps
	shapeOddDemands
	shapeOddRoutes
	shapeIXP
	numShapes
)

// genInstance builds a pseudo-random instance of the given shape.
func genInstance(seed int64, shape, flows, res int, epsilon float64) *instance {
	rng := rand.New(rand.NewSource(seed))
	if shape == shapeIXP {
		return ixpInstance(seed, epsilon)
	}
	flows, res = 1+flows%400, 1+res%64
	in := &instance{epsilon: epsilon}
	for r := 0; r < res; r++ {
		c := float64(1+rng.Intn(100)) * 1e8
		switch {
		case shape == shapeEqualLevels:
			c = 1e9
		case shape == shapeExtremeCaps && rng.Intn(4) == 0:
			c = 0
		case shape == shapeExtremeCaps && rng.Intn(3) == 0:
			c = math.Inf(1)
		case shape == shapeExtremeCaps && rng.Intn(8) == 0:
			c = math.NaN()
		}
		in.caps = append(in.caps, c)
	}
	for f := 0; f < flows; f++ {
		d := float64(1+rng.Intn(1000)) * 1e6
		switch shape {
		case shapeEqualDemands:
			d = 5e7
		case shapeEqualLevels:
			d = Unlimited
		case shapeOddDemands:
			switch rng.Intn(4) {
			case 0:
				d = Unlimited
			case 1:
				d = 0
			}
		}
		var route []ResourceID
		n := 1 + rng.Intn(4)
		if shape == shapeOddRoutes {
			n = rng.Intn(5) // some flows cross nothing
		}
		for i := 0; i < n; i++ {
			r := ResourceID(rng.Intn(res))
			route = append(route, r)
			if shape == shapeOddRoutes && rng.Intn(3) == 0 {
				route = append(route, r) // duplicate entry
			}
		}
		if shape == shapeEqualLevels {
			// Every flow crosses resource 0 and one private-ish resource,
			// so many resources saturate at the same level.
			route = []ResourceID{0, ResourceID(f % res)}
		}
		in.demands = append(in.demands, d)
		in.routes = append(in.routes, route)
	}
	return in
}

// ixpInstance is shaped like one epoch of an IXP replay: 10,000 gravity
// flows between 300 members over 720 link directions (member ports in
// both directions, edge↔core fabric links), most flows demand-limited and
// a handful of member ports saturating.
func ixpInstance(seed int64, epsilon float64) *instance {
	const members, edges, cores, flows = 300, 20, 3, 10_000
	rng := rand.New(rand.NewSource(seed))
	in := &instance{epsilon: epsilon}
	// Resources: member up 0..299, member down 300..599, then edge→core
	// and core→edge for each (edge, core) pair.
	for m := 0; m < 2*members; m++ {
		in.caps = append(in.caps, 10e9)
	}
	for i := 0; i < 2*edges*cores; i++ {
		in.caps = append(in.caps, 100e9)
	}
	up := func(e, c int) ResourceID { return ResourceID(2*members + 2*(e*cores+c)) }
	mass := make([]float64, members)
	for m := range mass {
		mass[m] = math.Pow(1-rng.Float64(), -1/1.2) // Pareto, alpha 1.2
	}
	for f := 0; f < flows; f++ {
		s, d := rng.Intn(members), rng.Intn(members)
		for d == s {
			d = rng.Intn(members)
		}
		route := []ResourceID{ResourceID(s)}
		if es, ed := s%edges, d%edges; es != ed {
			c := rng.Intn(cores)
			route = append(route, up(es, c), up(ed, c)+1)
		}
		route = append(route, ResourceID(members+d))
		in.demands = append(in.demands, 3e6*mass[s]*mass[d]*(0.5+rng.Float64()))
		in.routes = append(in.routes, route)
	}
	return in
}

func TestSolveMatchesEager(t *testing.T) {
	for shape := 0; shape < numShapes; shape++ {
		for seed := int64(1); seed <= 4; seed++ {
			if shape == shapeIXP && seed > 1 {
				break
			}
			for _, eps := range []float64{0, 0.01} {
				t.Run(fmt.Sprintf("shape%d/seed%d/eps%g", shape, seed, eps), func(t *testing.T) {
					checkExact(t, genInstance(seed, shape, 300, 40, eps), seed)
				})
			}
		}
	}
}

func FuzzSolveExact(f *testing.F) {
	for shape := 0; shape < numShapes; shape++ {
		f.Add(int64(shape+1), uint8(shape), uint16(200), uint8(30), false)
		f.Add(int64(shape+7), uint8(shape), uint16(3), uint8(2), true)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, flows uint16, res uint8, noEpsilon bool) {
		eps := 0.01
		if noEpsilon {
			eps = 0
		}
		checkExact(t, genInstance(seed, int(shape)%numShapes, int(flows), int(res), eps), seed)
	})
}

// TestSolveWorkTracksBindingResources pins the point of the heap: on the
// IXP-shaped instance, where a handful of resources ever bind, residual
// updates are a small fraction of what a per-iteration scan would do.
func TestSolveWorkTracksBindingResources(t *testing.T) {
	in := ixpInstance(1, 0.01)
	a := in.build()
	a.RecomputeAll()
	limit := 0.02 * float64(a.FillSteps) * float64(len(in.caps))
	t.Logf("fill steps %d, residual steps %d (limit %.0f)", a.FillSteps, a.ResidualSteps, limit)
	if a.FillSteps < 1000 {
		t.Fatalf("only %d fill steps: instance no longer IXP-shaped", a.FillSteps)
	}
	if float64(a.ResidualSteps) > limit {
		t.Fatalf("residual steps %d > 2%% of fill steps × resources (%.0f)", a.ResidualSteps, limit)
	}
}

func BenchmarkFairshareIXPShape(b *testing.B) {
	a := ixpInstance(1, 0.01).build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.RecomputeAll()
	}
}
