// Package fairshare computes the rate of every data flow in the network.
// This is the traffic-dynamics heart of the flow-level abstraction: instead
// of simulating packets, Horse assigns each flow the rate it would converge
// to under max–min fairness across every capacity-constrained resource it
// traverses — full-duplex link directions and OpenFlow meters alike.
//
// The solver is the classic progressive-filling (water-filling) algorithm:
// raise all unfrozen flows' rates together until a resource saturates or a
// flow reaches its demand, freeze, repeat. Max–min allocations decompose
// exactly over connected components of the flow/resource sharing graph, so
// the Allocator also supports incremental recomputation: when flows arrive
// or depart, only the components touched by a dirty resource are re-solved.
// Both modes produce the same allocations (property-tested); the E6
// ablation benchmarks their cost.
//
// A fill iteration does not scan every resource. On a large component,
// resources wait in a min-heap keyed by a conservative lower bound on the
// fill level at which each can saturate. A resource is brought up to date
// only when the next candidate level reaches its bound, by replaying the
// updates it missed. Almost every iteration of an IXP-shaped component is
// a demand freeze, so a solve costs O(F·deg·log R + iterations + replay of
// resources that come near) rather than O(iterations·R). A solve is
// bit-identical to eager progressive filling: exact_test.go holds the
// eager solver as an oracle and fuzzes every recompute entry point against
// it.
//
// Most changes need no solve at all. Max–min fairness has a local
// certificate: an allocation is max–min fair iff every flow is at its
// demand or crosses a saturated resource on which no flow gets more. So
// when AddFlow, Remove or SetDemand finds that every resource on the
// flow's route keeps headroom both before and after the change, the flow's
// rate becomes its demand at once and no other rate moves. A flow alone on
// every resource of its route is a component of its own, whose solve ends
// in its first iteration at max(0, min(demand, min capacity)): that value
// is set at once too, bit for bit. The next Recompute reports the flows so
// set and solves nothing. The first change that fits neither case, or a
// capacity change, breaks the batch: Recompute then puts the batch's rates
// back and solves the dirty components. slack_test.go holds both cases to
// a from-scratch solve and to the certificate.
//
// Capacities must not be NaN. A NaN resource counts as exhausted at a
// fill's first step, so its flows freeze at whatever level that fill
// starts from, and Recompute, which fills every dirty component in one
// pass, and RecomputeAll, which fills component by component, then give
// them different rates. The simulator only sets link bandwidths and meter
// rates, and openflow.MeterTable refuses a meter whose rate is not
// positive, NaN included.
//
// The allocator is addressed by slot: AddFlow returns one, and Remove,
// SetDemand and Rate take it. The caller's flow ID is an opaque label,
// repeated in Changed, so nothing is keyed by an ID that grows with every
// flow. Resources are found through a table indexed by the caller's dense
// ResourceID and keep their slots in first-registration order. Flow slots
// live in fixed-size pages (the table grows without copying a slot). A
// slot's one route array holds its resources and, parallel to them, its
// position in each one's flow list: the caller need not keep the route.
// Adjacency is slice-of-int32 in both directions, and every solve runs on
// reusable scratch buffers with epoch-stamped visited marks: no maps, and
// once warm a change and its recompute allocate nothing. RecomputeAll
// additionally splits the graph into connected components with a
// union-find over resource slots and solves each independently.
package fairshare

import (
	"cmp"
	"math"
	"slices"

	"horse/internal/grow"
)

// ResourceID identifies a capacity-constrained resource: a small
// non-negative integer the caller assigns. The allocator finds a resource's
// slot through a table indexed by ID, so IDs should be dense (the simulator
// numbers link directions 2·link+dir, then meters as they are installed).
type ResourceID int32

// FlowID is the caller's label for a flow. The allocator keeps it in the
// flow's slot and repeats it in Changed; it never looks a flow up by it.
type FlowID int64

// Unlimited is the demand of a flow that will take all the bandwidth it can
// get (a backlogged TCP transfer).
var Unlimited = math.Inf(1)

// edgeRef locates one flow↔resource adjacency from the resource side: the
// flow's slot and the position of this resource in the flow's route, so a
// departing flow can unlink itself from every resource in O(degree).
type edgeRef struct {
	flow int32
	edge int32
}

// flowSlot is a flow's dense record, 56 bytes. Removed slots go on a free
// list and keep their route array for reuse.
type flowSlot struct {
	id     FlowID
	demand float64
	rate   float64
	// route holds the n distinct dense resource indices the flow crosses,
	// then, parallel to them, the flow's position in each one's flows list:
	// one array of 2n, so a route costs one slice header.
	route []int32
	live  bool
	noted bool // the open slack batch holds this flow's rate from before it
}

// res returns the dense resource indices the flow crosses.
func (f *flowSlot) res() []int32 { return f.route[:len(f.route)/2] }

// pos returns where the flow sits in the flows list of its e-th resource.
func (f *flowSlot) pos(e int32) *int32 { return &f.route[int32(len(f.route)/2)+e] }

// resSlot is a resource's dense record. Resources are never deleted (the
// simulator's link and meter set is fixed per topology), so slots only grow.
type resSlot struct {
	capacity float64
	flows    []edgeRef
	dirty    bool
}

// Flow slots live in pages of slotPage: slot fi is entry fi%slotPage of
// page fi/slotPage, so a new page never moves the slots already held.
const (
	slotPageBits = 8
	slotPage     = 1 << slotPageBits
)

// Allocator maintains the flow/resource sharing state and produces max–min
// fair rates. The zero value is not usable; call New.
type Allocator struct {
	slotOf []int32 // by ResourceID: the resource's slot + 1, 0 if unknown
	pages  []*[slotPage]flowSlot
	nSlots int32 // flow slots in use or free: slots [0, nSlots) exist
	res    []resSlot

	freeFlows []int32
	dirtyRes  []int32 // dense indices with res[k].dirty set

	// The slack batch: the changes since the last recompute that set a
	// flow's rate directly (see slack), each noted with the rate the flow
	// had before; broken once a change needs a solve.
	notes  []slackNote
	broken bool

	// Epsilon is the relative rate-change threshold below which a flow is
	// not reported as changed by Recompute. It damps event cascades from
	// infinitesimal re-allocations. Zero means report every change.
	Epsilon float64

	// Stats. FillSteps counts progressive-filling iterations;
	// ResidualSteps counts per-resource residual updates, so
	// ResidualSteps/FillSteps is the number of resources the solver
	// actually looked at per iteration. SlackRecomputes counts the
	// Recompute calls that the slack path settled without a solve.
	FullSolves      uint64
	ComponentSolves uint64
	SlackRecomputes uint64
	FlowsVisited    uint64
	FillSteps       uint64
	ResidualSteps   uint64

	scratch solveScratch
}

// solveScratch holds every buffer the solver needs, reused across solves.
// Visited/frozen state is epoch-stamped so nothing is cleared between
// solves; per-resource working values are rewritten when a resource is
// first touched in a solve.
type solveScratch struct {
	epoch    uint32
	flowSeen []uint32 // BFS visit marks, indexed by flow slot
	resSeen  []uint32 // BFS visit marks, indexed by resource slot

	solveEpoch uint32
	frozen     []uint32  // freeze marks, indexed by flow slot
	allocVal   []float64 // rate assigned this solve, indexed by flow slot
	resMark    []uint32  // touched-this-solve marks, indexed by resource slot
	remaining  []float64 // residual capacity, indexed by resource slot
	active     []int32   // unfrozen flows crossing, indexed by resource slot
	lazy       []lazyRes // replay and saturation-bound state, by resource slot

	comp  []int32 // flow slots being solved
	queue []int32 // BFS frontier of resource slots

	// RecomputeAll component split.
	ufParent  []int32
	compCount []int32
	compPos   []int32
	compFlows []int32

	worker solveWorker
}

// solveWorker is the per-solve working set: the buffers and fill state a
// solve uses beyond the flow- and resource-indexed scratch arrays.
type solveWorker struct {
	order   []int32 // demand-sorted unfrozen flows
	changed []Changed

	visited, fillSteps, residualSteps uint64

	// Progressive-filling state shared between solve and freezeFlow.
	level       float64
	activeCount int
	lazy        bool        // resources wait in heap until they come near
	iter        int32       // current fill iteration, from 1
	deltas      []float64   // deltas[i] is the increment of iteration i
	hist        []histEntry // active-count decrements, linked per resource
	heap        []heapEntry // resources not yet near, keyed by saturation bound
	near        []int32     // resources that may bind this iteration
	window      int32       // iterations a key's rounding margin covers
	rekeyAt     int32       // last iteration the heap keys' margins cover
	slack       float64     // relative rounding margin of a key
}

// lazyRes is the solver's per-resource state: remaining[k] is exact as of
// iteration exactAt, after whose freezes base flows were active; the
// decrements since then are listed from head to tail in the worker's hist.
// approx is an estimate of the residual at fill level lc, kept current by
// freezeFlow in O(1), from which the saturation bound is derived without
// replaying anything.
type lazyRes struct {
	approx, lc    float64
	exactAt, base int32
	head, tail    int32
}

// histEntry records that one flow on a resource froze in iteration iter, so
// every update after iter sees one active flow fewer.
type histEntry struct {
	iter, next int32
}

// heapEntry is a resource in the solver's min-heap on key, a lower bound on
// the fill level at which the resource can bind.
type heapEntry struct {
	key float64
	k   int32
}

// beginPass opens one freeze/touch epoch for a recompute pass. A single
// epoch serves every component solved in the pass, because the
// epoch-stamped slots of distinct components are disjoint.
func (s *solveScratch) beginPass() {
	s.solveEpoch++
	if s.solveEpoch == 0 { // uint32 wrap: stale marks could alias, so reset
		clear(s.frozen)
		clear(s.resMark)
		s.solveEpoch = 1
	}
}

// New returns an empty allocator with a 1% change-report epsilon.
func New() *Allocator {
	return &Allocator{Epsilon: 0.01}
}

// flow returns flow slot fi.
func (a *Allocator) flow(fi int32) *flowSlot {
	return &a.pages[fi>>slotPageBits][fi&(slotPage-1)]
}

// newSlot returns a fresh flow slot, adding a page when the last is full.
func (a *Allocator) newSlot() int32 {
	fi := a.nSlots
	if int(fi>>slotPageBits) == len(a.pages) {
		a.pages = append(a.pages, new([slotPage]flowSlot))
	}
	a.nSlots++
	return fi
}

// register returns r's dense index, giving r the next one on first use:
// indices follow first registration.
func (a *Allocator) register(r ResourceID) int32 {
	if k := a.lookup(r); k >= 0 {
		return k
	}
	a.slotOf = grow.To(a.slotOf, int(r)+1)
	a.res = append(a.res, resSlot{})
	a.slotOf[r] = int32(len(a.res))
	return a.slotOf[r] - 1
}

// lookup returns r's dense index, or -1 if r was never registered.
func (a *Allocator) lookup(r ResourceID) int32 {
	if int(r) < len(a.slotOf) {
		return a.slotOf[r] - 1
	}
	return -1
}

func (a *Allocator) markDirty(k int32) {
	if !a.res[k].dirty {
		a.res[k].dirty = true
		a.dirtyRes = append(a.dirtyRes, k)
	}
}

// SetCapacity declares or updates a resource's capacity in bits/second and
// marks it dirty. A capacity of zero (a down link) starves its flows.
func (a *Allocator) SetCapacity(r ResourceID, bps float64) {
	k := a.register(r)
	if a.res[k].capacity != bps {
		a.res[k].capacity = bps
		a.markDirty(k)
		a.broken = true
	}
}

// AddFlow registers a flow with the given demand (bits/second, or
// Unlimited) crossing the given resources, and returns its slot: the
// handle Remove, SetDemand and Rate take, repeated in every Changed
// entry for the flow until it is removed. label is the caller's ID for the
// flow, kept only to be reported in Changed. Resources not yet declared get
// zero capacity until SetCapacity is called. Duplicate resources in the
// route are collapsed.
func (a *Allocator) AddFlow(label FlowID, demand float64, route []ResourceID) int32 {
	var fi int32
	if n := len(a.freeFlows); n > 0 {
		fi = a.freeFlows[n-1]
		a.freeFlows = a.freeFlows[:n-1]
	} else {
		fi = a.newSlot()
	}
	f := a.flow(fi)
	f.id = label
	f.demand = demand
	f.rate = 0
	f.live = true
	if n := 2 * len(route); cap(f.route) < n {
		f.route = make([]int32, 0, n)
	}
	res := f.route[:0]
	for _, r := range route {
		if k := a.register(r); !slices.Contains(res, k) {
			res = append(res, k)
		}
	}
	n := int32(len(res))
	f.route = res[:2*n]
	for e, k := range res {
		rs := &a.res[k]
		f.route[n+int32(e)] = int32(len(rs.flows))
		rs.flows = grow.Push(rs.flows, edgeRef{flow: fi, edge: int32(e)})
		a.markDirty(k)
	}
	if n == 0 {
		// A flow crossing nothing is bottlenecked only by demand.
		f.rate = demand
	} else {
		a.slack(fi, demand)
	}
	return fi
}

// Remove deregisters the flow in slot fi, marking its resources dirty.
func (a *Allocator) Remove(fi int32) {
	f := a.flow(fi)
	if !a.broken && !a.lone(f) && !a.slackFits(f, -f.rate) {
		a.broken = true
	}
	for e, k := range f.res() {
		rs := &a.res[k]
		p := *f.pos(int32(e))
		last := int32(len(rs.flows) - 1)
		moved := rs.flows[last]
		rs.flows[p] = moved
		rs.flows = rs.flows[:last]
		if p != last {
			*a.flow(moved.flow).pos(moved.edge) = p
		}
		a.markDirty(k)
	}
	f.live = false
	f.noted = false
	f.route = f.route[:0]
	a.freeFlows = append(a.freeFlows, fi)
}

// RemoveFlow removes the live flow labelled label, found by a scan of the
// slots, for a caller that keeps no slots; it ignores an unknown label.
func (a *Allocator) RemoveFlow(label FlowID) {
	for fi := range a.nSlots {
		if f := a.flow(fi); f.live && f.id == label {
			a.Remove(fi)
			return
		}
	}
}

// SetDemand updates the demand of the flow in slot fi and marks its
// resources dirty.
func (a *Allocator) SetDemand(fi int32, demand float64) {
	f := a.flow(fi)
	if f.demand == demand {
		return
	}
	f.demand = demand
	if len(f.route) == 0 {
		f.rate = demand
		return
	}
	for _, k := range f.res() {
		a.markDirty(k)
	}
	a.slack(fi, demand)
}

// slackNote is a flow whose rate the open slack batch set, with the rate it
// had before the batch.
type slackNote struct {
	fi  int32
	old float64
}

// slack sets flow fi's rate for its new demand without a solve when that
// rate is known, and notes the flow. Otherwise it breaks the batch: the
// next recompute solves, and no later change in the batch is checked.
//
// The rate is known in two cases (see the package doc). A flow alone on
// its route gets its one-flow solve's max(0, min(demand, min capacity)),
// unless that minimum is NaN or +Inf. A flow whose whole route keeps
// headroom before and after the move gets its demand: no resource on the
// route is saturated, so no other flow is bottlenecked there, and every
// other flow keeps its certificate and its rate.
func (a *Allocator) slack(fi int32, demand float64) {
	if a.broken {
		return
	}
	f := a.flow(fi)
	rate, fits := 0.0, false
	if a.lone(f) {
		c := math.Inf(1)
		for _, k := range f.res() {
			c = min(c, a.res[k].capacity)
		}
		rate, fits = max(0, min(demand, c)), c < math.Inf(1)
	} else {
		if demand > 0 { // as solve: a non-positive demand gets nothing
			rate = demand
		}
		fits = a.slackFits(f, rate-f.rate)
	}
	if !fits {
		a.broken = true
		return
	}
	if !f.noted {
		f.noted = true
		a.notes = append(a.notes, slackNote{fi: fi, old: f.rate})
	}
	f.rate = rate
}

// lone reports whether f is the only flow on every resource of its route.
func (a *Allocator) lone(f *flowSlot) bool {
	for _, k := range f.res() {
		if len(a.res[k].flows) != 1 {
			return false
		}
	}
	return true
}

// slackFits reports whether every resource on f's route leaves more than a
// margin of its capacity unused at the current rates, both as they are and
// after f's rate moves by delta. The margin (twice the solver's exhaustion
// slack, plus 1e-12 of the capacity for the solver's rounding) keeps a
// resource the solver could see as exhausted off the slack path. It stops
// at the first resource that does not fit.
func (a *Allocator) slackFits(f *flowSlot, delta float64) bool {
	for _, k := range f.res() {
		rs := &a.res[k]
		used := 0.0
		for _, er := range rs.flows {
			used += a.flow(er.flow).rate
		}
		// Before the move when delta ≤ 0, after it when delta > 0. A NaN
		// or infinite capacity never fits.
		if !(rs.capacity-used-max(delta, 0) > 2*tiny+1e-12*rs.capacity) {
			return false
		}
	}
	return true
}

// endBatch closes the slack batch. With restore set it puts each noted flow
// back at its rate from before the batch, so the solve that follows starts
// where it would have without the batch. Otherwise it appends to changed
// each noted flow whose move is significant, and returns the list. A slot
// freed and reused in the batch can hold two notes: the later one is its
// live flow's, and the flag keeps the earlier one from counting.
func (a *Allocator) endBatch(restore bool, changed []Changed) []Changed {
	for i := len(a.notes) - 1; i >= 0; i-- {
		n := a.notes[i]
		f := a.flow(n.fi)
		if !f.noted {
			continue
		}
		f.noted = false
		if restore {
			f.rate = n.old
		} else if a.Significant(n.old, f.rate) {
			changed = append(changed, Changed{ID: f.id, Slot: n.fi, OldRate: n.old, NewRate: f.rate})
		}
	}
	a.notes = a.notes[:0]
	a.broken = false
	return changed
}

// Rate returns the most recently computed rate of the flow in slot fi.
func (a *Allocator) Rate(fi int32) float64 { return a.flow(fi).rate }

// DemandSum returns the sum of offered demands over a resource (+Inf if
// any flow is backlogged).
func (a *Allocator) DemandSum(r ResourceID) float64 {
	var sum float64
	if k := a.lookup(r); k >= 0 {
		for _, er := range a.res[k].flows {
			sum += a.flow(er.flow).demand
		}
	}
	return sum
}

// ResourceUsage returns the sum of allocated rates over a resource.
func (a *Allocator) ResourceUsage(r ResourceID) float64 {
	var sum float64
	if k := a.lookup(r); k >= 0 {
		for _, er := range a.res[k].flows {
			sum += a.flow(er.flow).rate
		}
	}
	return sum
}

// Changed describes a flow whose allocated rate moved in a recompute.
type Changed struct {
	ID      FlowID
	Slot    int32 // the slot AddFlow returned for ID
	OldRate float64
	NewRate float64
}

// clearDirty resets the dirty marks without solving.
func (a *Allocator) clearDirty() {
	for _, k := range a.dirtyRes {
		a.res[k].dirty = false
	}
	a.dirtyRes = a.dirtyRes[:0]
}

// ensureScratch sizes every per-slot scratch buffer to the current slot
// counts. Growth zero-fills, which is exactly what the epoch marks need.
func (s *solveScratch) ensureScratch(nFlows, nRes int) {
	s.flowSeen = grow.To(s.flowSeen, nFlows)
	s.frozen = grow.To(s.frozen, nFlows)
	s.allocVal = grow.To(s.allocVal, nFlows)
	s.resSeen = grow.To(s.resSeen, nRes)
	s.resMark = grow.To(s.resMark, nRes)
	s.remaining = grow.To(s.remaining, nRes)
	s.active = grow.To(s.active, nRes)
	s.lazy = grow.To(s.lazy, nRes)
}

// RecomputeAll re-solves the entire network from scratch and returns flows
// whose rate changed beyond Epsilon. The sharing graph is split into
// connected components with a union-find over resource slots and each
// component is solved independently — identical rates, smaller sorts. The
// returned slice is reused by the next recompute; consume it before then.
func (a *Allocator) RecomputeAll() []Changed {
	a.FullSolves++
	cnt, pos, grouped := a.groupComponents()

	// Solve each component. pos[r] points one past the component's end.
	w := a.openPass()
	for r, c := range cnt {
		if c == 0 {
			continue
		}
		a.solve(grouped[pos[r]-c:pos[r]], w)
	}
	a.collect(w)
	return w.changed
}

// openPass opens a recompute pass and returns its emptied worker.
func (a *Allocator) openPass() *solveWorker {
	a.scratch.beginPass()
	w := &a.scratch.worker
	w.reset()
	return w
}

// reset empties a worker's change list and work counters.
func (w *solveWorker) reset() {
	w.changed = w.changed[:0]
	w.visited, w.fillSteps, w.residualSteps = 0, 0, 0
}

// collect adds a worker's work counters to the allocator's stats.
func (a *Allocator) collect(w *solveWorker) {
	a.FlowsVisited += w.visited
	a.FillSteps += w.fillSteps
	a.ResidualSteps += w.residualSteps
}

// groupComponents clears the dirty marks, splits live routed flows into
// sharing-graph components with a union-find over resource slots and
// buckets them with a counting sort. Component r's flow slots are
// grouped[pos[r]-cnt[r]:pos[r]] (pos[r] is left one past the component's
// end).
func (a *Allocator) groupComponents() (cnt, pos, grouped []int32) {
	a.endBatch(true, nil)
	a.clearDirty()
	s := &a.scratch
	s.ensureScratch(int(a.nSlots), len(a.res))

	// Union resources along every live flow's route.
	parent := grow.To(s.ufParent, len(a.res))[:len(a.res)]
	s.ufParent = parent
	for i := range parent {
		parent[i] = int32(i)
	}
	for fi := range a.nSlots {
		f := a.flow(fi)
		if !f.live || len(f.res()) < 2 {
			continue
		}
		r0 := ufFind(parent, f.res()[0])
		for _, k := range f.res()[1:] {
			r := ufFind(parent, k)
			if r != r0 {
				parent[r] = r0
			}
		}
	}

	// Bucket live routed flows by component root (counting sort, no maps).
	cnt = grow.To(s.compCount, len(a.res))[:len(a.res)]
	s.compCount = cnt
	for i := range cnt {
		cnt[i] = 0
	}
	total := 0
	for fi := range a.nSlots {
		f := a.flow(fi)
		if !f.live || len(f.route) == 0 {
			continue
		}
		cnt[ufFind(parent, f.res()[0])]++
		total++
	}
	pos = grow.To(s.compPos, len(a.res))[:len(a.res)]
	s.compPos = pos
	sum := int32(0)
	for i, c := range cnt {
		pos[i] = sum
		sum += c
	}
	grouped = grow.To(s.compFlows, total)[:total]
	s.compFlows = grouped
	for fi := range a.nSlots {
		f := a.flow(fi)
		if !f.live || len(f.route) == 0 {
			continue
		}
		r := ufFind(parent, f.res()[0])
		grouped[pos[r]] = fi
		pos[r]++
	}
	return cnt, pos, grouped
}

// ufFind returns the root of x with path halving.
func ufFind(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// Recompute re-solves only the connected components touched by dirty
// resources and returns flows whose rate changed beyond Epsilon. Max–min
// fairness decomposes exactly over components, so the result equals a full
// re-solve. When every change since the last recompute took the slack path
// (see slack), their rates are already set: it reports the noted flows and
// solves nothing. The returned slice is reused by the next recompute;
// consume it before then.
func (a *Allocator) Recompute() []Changed {
	if len(a.dirtyRes) == 0 {
		return nil
	}
	if !a.broken {
		a.SlackRecomputes++
		a.clearDirty()
		w := &a.scratch.worker
		w.changed = a.endBatch(false, w.changed[:0])
		return w.changed
	}
	a.ComponentSolves++
	w := a.openPass()
	a.solve(a.dirtyComponent(), w)
	a.collect(w)
	return w.changed
}

// dirtyComponent closes the slack batch, restoring its rates, clears the
// dirty marks and returns the flow slots of every component that touches a
// dirty resource.
func (a *Allocator) dirtyComponent() []int32 {
	a.endBatch(true, nil)
	s := &a.scratch
	s.ensureScratch(int(a.nSlots), len(a.res))
	s.epoch++
	if s.epoch == 0 { // uint32 wrap: stale marks could alias, so reset
		clear(s.flowSeen)
		clear(s.resSeen)
		s.epoch = 1
	}

	// Collect the affected flows: BFS over the bipartite sharing graph
	// seeded at dirty resources (dense adjacency, epoch-marked visits).
	queue := s.queue[:0]
	comp := s.comp[:0]
	for _, k := range a.dirtyRes {
		a.res[k].dirty = false
		if s.resSeen[k] != s.epoch {
			s.resSeen[k] = s.epoch
			queue = append(queue, k)
		}
	}
	a.dirtyRes = a.dirtyRes[:0]
	for len(queue) > 0 {
		k := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, er := range a.res[k].flows {
			if s.flowSeen[er.flow] == s.epoch {
				continue
			}
			s.flowSeen[er.flow] = s.epoch
			comp = append(comp, er.flow)
			for _, k2 := range a.flow(er.flow).res() {
				if s.resSeen[k2] != s.epoch {
					s.resSeen[k2] = s.epoch
					queue = append(queue, k2)
				}
			}
		}
	}
	s.queue, s.comp = queue, comp
	return comp
}

// tiny is the absolute slack of the fill loop: a flow within tiny of its
// demand is demand-limited, a resource with at most tiny left is exhausted.
const tiny = 1e-9

// heapGain is how many times the flow↔resource edges the estimated work of
// scanning every resource on every iteration must exceed before solve keeps
// resources in the heap: the heap's bookkeeping costs a few steps per
// freeze per resource, which on a small or densely shared component is
// more than a scan. Tests set it to 0 or +Inf to force either strategy.
var heapGain = 16.0

// solve runs progressive filling over the given flow slots (assumed to be
// a union of whole components) inside an open pass (beginPass) and appends
// the changed flows to w.changed.
//
// Every unfrozen flow holds the same fill level, so demand-limited flows
// freeze in sorted demand order without a scan over flows. On a large
// component resources are not scanned either: each waits in a min-heap
// keyed by a lower bound on the level at which it can bind, and only those
// whose bound the next candidate level reaches are brought up to date, by
// replaying the iterations they missed. The cost is O(F·deg·log R +
// iterations + replay of resources that come near) rather than
// O(iterations·R). Where the scan is estimated to be cheap (see heapGain)
// every active resource is near on every iteration instead.
//
// Exactness contract: the result is bit-identical to eager progressive
// filling, which updates every active resource on every iteration, under
// either strategy. The sequence of increments is the same, a replay applies
// the same floating-point update per iteration as the eager loop does, and
// a key's rounding margin (see key) guarantees that a resource left in the
// heap neither sets the increment nor exhausts in that iteration.
func (a *Allocator) solve(comp []int32, w *solveWorker) {
	w.visited += uint64(len(comp))
	s := &a.scratch
	ep := s.solveEpoch

	order := w.order[:0]
	near := w.near[:0]
	edges, finite := 0, 0
	for _, fi := range comp {
		f := a.flow(fi)
		for _, k := range f.res() {
			if s.resMark[k] != ep {
				s.resMark[k] = ep
				s.remaining[k] = a.res[k].capacity
				s.active[k] = 0
				near = append(near, k)
			}
		}
		if f.demand <= 0 {
			s.frozen[fi] = ep
			s.allocVal[fi] = 0
			continue
		}
		for _, k := range f.res() {
			s.active[k]++
		}
		edges += len(f.res())
		if f.demand < Unlimited {
			finite++
		}
		order = append(order, fi)
	}

	// Flows sorted by demand: since every unfrozen flow holds the same
	// fill level L, they hit their demands in this order.
	slices.SortFunc(order, func(x, y int32) int {
		return cmp.Compare(a.flow(x).demand, a.flow(y).demand)
	})
	nextDemand := 0 // index into order of the next demand-freeze candidate
	w.activeCount = len(order)
	w.level = 0 // common fill level of unfrozen flows
	w.iter = 0

	// An iteration normally freezes a flow or exhausts a resource, so
	// there are about min(F, R+finite) of them; the estimate only picks
	// the strategy.
	nr := len(near)
	w.lazy = float64(min(len(order), nr+finite))*float64(nr) > heapGain*float64(edges)
	if w.lazy {
		w.deltas = append(w.deltas[:0], 0)
		// A freeze logs at most one entry per resource of the flow, and
		// every flow freezes once: the edge count bounds the log.
		w.hist = slices.Grow(w.hist[:0], edges)
		w.window = int32(len(order))
		w.setWindow()
		h := w.heap[:0]
		for _, k := range near {
			if s.active[k] == 0 {
				continue // no unfrozen flow crosses it: it can never bind
			}
			s.lazy[k] = lazyRes{approx: s.remaining[k], base: s.active[k], head: -1, tail: -1}
			h = append(h, heapEntry{key: a.key(k, w), k: k})
		}
		w.heap = h
		w.heapify()
	}

	for w.activeCount > 0 {
		w.iter++
		if w.lazy && w.iter > w.rekeyAt {
			a.rekey(w)
		}
		// Advance past already-frozen heads of the demand order.
		for nextDemand < len(order) && s.frozen[order[nextDemand]] == ep {
			nextDemand++
		}
		// Minimum increment to a constraint.
		delta := math.Inf(1)
		if nextDemand < len(order) {
			if d := a.flow(order[nextDemand]).demand - w.level; d < delta {
				delta = d
			}
		}
		if w.lazy {
			// reach bounds the level this iteration can end at; every
			// resource whose key reaches it is brought up to date and
			// competes, exactly as in a scan.
			reach := w.level + max(delta, 0)
			near = near[:0]
			for len(w.heap) > 0 && w.heap[0].key <= reach {
				k := w.pop()
				if s.active[k] == 0 {
					continue // every flow on it froze: it can never bind again
				}
				if key := a.key(k, w); key > reach {
					w.push(key, k) // its key was stale
					continue
				}
				a.replay(k, w.iter-1, w)
				near = append(near, k)
				inc := s.remaining[k] / float64(s.active[k])
				if inc < delta {
					delta = inc
				}
				if r := w.level + max(inc, 0); r < reach {
					reach = r
				}
			}
		} else {
			for x := 0; x < len(near); {
				k := near[x]
				if s.active[k] == 0 {
					near[x] = near[len(near)-1]
					near = near[:len(near)-1]
					continue
				}
				if inc := s.remaining[k] / float64(s.active[k]); inc < delta {
					delta = inc
				}
				x++
			}
		}
		if math.IsInf(delta, 1) {
			break // no binding constraint (unlimited flows on uncapacitated paths)
		}
		if delta < 0 {
			delta = 0
		}
		// Apply the increment. Unfrozen allocations are implicit: every
		// unfrozen flow sits exactly at the fill level, materialized only
		// when the flow freezes (or at loop exit). Resources not near are
		// updated when they are replayed.
		w.fillSteps++
		w.residualSteps += uint64(len(near))
		w.level += delta
		for _, k := range near {
			s.remaining[k] -= delta * float64(s.active[k])
		}
		if w.lazy {
			w.deltas = append(w.deltas, delta)
			for _, k := range near {
				s.lazy[k] = lazyRes{approx: s.remaining[k], lc: w.level, exactAt: w.iter, base: s.active[k], head: -1, tail: -1}
			}
		}
		// Freeze demand-satisfied flows (heads of the sorted order).
		progressed := false
		for nextDemand < len(order) {
			fi := order[nextDemand]
			if s.frozen[fi] == ep {
				nextDemand++
				continue
			}
			if w.level >= a.flow(fi).demand-tiny {
				a.freezeFlow(fi, w)
				nextDemand++
				progressed = true
				continue
			}
			break
		}
		// Freeze flows on exhausted resources (via reverse adjacency, so
		// the cost is proportional to the frozen flows' degree, not F).
		// Only near resources can have exhausted.
		for _, k := range near {
			if s.remaining[k] > tiny {
				continue
			}
			for _, er := range a.res[k].flows {
				if s.frozen[er.flow] != ep {
					a.freezeFlow(er.flow, w)
					progressed = true
				}
			}
		}
		if w.lazy {
			for _, k := range near {
				if s.active[k] > 0 {
					w.push(a.key(k, w), k)
				}
			}
		}
		if delta == 0 && !progressed {
			break // guard against livelock on degenerate inputs
		}
	}
	w.near = near

	// Materialize never-frozen flows at the final fill level.
	for _, fi := range order {
		if s.frozen[fi] != ep {
			s.allocVal[fi] = min(w.level, a.flow(fi).demand)
		}
	}
	w.order = order

	// Publish and diff.
	w.changed = slices.Grow(w.changed, len(comp))
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

// freezeFlow pins a flow at the current fill level (capped by demand) and
// retires it from every resource it crosses.
func (a *Allocator) freezeFlow(fi int32, w *solveWorker) {
	s := &a.scratch
	f := a.flow(fi)
	s.frozen[fi] = s.solveEpoch
	s.allocVal[fi] = min(w.level, f.demand)
	w.activeCount--
	for _, k := range f.res() {
		s.active[k]--
	}
	if w.lazy {
		a.logFreeze(f, w)
	}
}

// logFreeze records a freeze's decrements for the resources that still
// have active flows and were not updated this iteration, and moves their
// residual estimates to the current level.
func (a *Allocator) logFreeze(f *flowSlot, w *solveWorker) {
	s := &a.scratch
	for _, k := range f.res() {
		n := s.active[k]
		if n == 0 {
			continue // an inactive resource is never replayed again
		}
		lr := &s.lazy[k]
		if lr.exactAt == w.iter {
			lr.base = n // exact at this level: nothing to log
			continue
		}
		lr.approx -= float64(n+1) * (w.level - lr.lc)
		lr.lc = w.level
		e := int32(len(w.hist))
		w.hist = append(w.hist, histEntry{iter: w.iter, next: -1})
		if lr.tail >= 0 {
			w.hist[lr.tail].next = e
		} else {
			lr.head = e
		}
		lr.tail = e
	}
}

// replay brings remaining[k] up to date as of iteration to by applying
// every update it missed, each with the active count that iteration saw.
// The update is the eager loop's expression, kept textually identical so
// that the compiler fuses it (or not) the same way.
func (a *Allocator) replay(k, to int32, w *solveWorker) {
	s := &a.scratch
	lr := &s.lazy[k]
	r, n, e := s.remaining[k], lr.base, lr.head
	for i := lr.exactAt + 1; i <= to; {
		// Updates i..end see n active flows; a decrement logged in
		// iteration j takes effect from update j+1.
		end := to
		if e >= 0 {
			end = min(end, w.hist[e].iter)
		}
		for _, delta := range w.deltas[i : end+1] {
			r -= delta * float64(n)
		}
		i = end + 1
		for e >= 0 && w.hist[e].iter < i {
			n--
			e = w.hist[e].next
		}
	}
	w.residualSteps += uint64(to - lr.exactAt)
	s.remaining[k] = r
	// Every logged decrement is from iteration to or earlier, so the
	// current count includes them all; later ones in this iteration go to
	// base.
	*lr = lazyRes{approx: r, lc: w.level, exactAt: to, base: s.active[k], head: -1, tail: -1}
}

// key returns a lower bound on the fill level at which resource k can
// saturate, valid until iteration w.rekeyAt. The estimate lc + approx/a
// only grows as flows freeze. Its error against the eager residual is at
// most (2n+3)·2⁻⁵³·(|r|+b·L) for n iterations since the exact residual r
// with b active flows, L the level checked; the margin takes n as the
// window length and adds twice the exhaustion slack, so a resource whose
// key is above a level cannot bind or exhaust at or below it.
func (a *Allocator) key(k int32, w *solveWorker) float64 {
	s := &a.scratch
	lr := &s.lazy[k]
	na := float64(s.active[k])
	sat := lr.lc + lr.approx/na
	if math.IsNaN(sat) {
		return math.Inf(-1) // a NaN residual exhausts at once, as in a scan
	}
	if math.IsInf(sat, 1) {
		return sat // uncapacitated resources never bind
	}
	margin := w.slack*(math.Abs(s.remaining[k])+float64(lr.base)*math.Abs(sat)) + 2*tiny
	return sat - margin/na
}

// setWindow opens a window of w.window iterations from the current one,
// and sizes the key margin to cover it.
func (w *solveWorker) setWindow() {
	w.rekeyAt = w.iter + w.window
	w.slack = 16 * float64(w.window+2) * 0x1p-53
}

// rekey replays every waiting resource to the previous iteration and
// rebuilds the heap, opening a new margin window. Solves whose iteration
// count stays within the number of flows never get here.
func (a *Allocator) rekey(w *solveWorker) {
	s := &a.scratch
	w.setWindow()
	h := w.heap[:0]
	for _, e := range w.heap {
		if s.active[e.k] > 0 {
			a.replay(e.k, w.iter-1, w)
			h = append(h, heapEntry{key: a.key(e.k, w), k: e.k})
		}
	}
	w.heap = h
	w.heapify()
}

// The heap is a plain binary min-heap on key. Equal keys may pop in any
// order: the set popped in an iteration, not its order, decides the result.

func (w *solveWorker) heapify() {
	for i := len(w.heap)/2 - 1; i >= 0; i-- {
		w.down(i)
	}
}

func (w *solveWorker) push(key float64, k int32) {
	w.heap = append(w.heap, heapEntry{key: key, k: k})
	h := w.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].key <= h[i].key {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (w *solveWorker) pop() int32 {
	h := w.heap
	k := h[0].k
	last := len(h) - 1
	h[0] = h[last]
	w.heap = h[:last]
	w.down(0)
	return k
}

func (w *solveWorker) down(i int) {
	h := w.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].key < h[c].key {
			c++
		}
		if h[i].key <= h[c].key {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Significant reports whether a rate move from old to new exceeds
// Epsilon, the test that puts a flow on Recompute's change list.
func (a *Allocator) Significant(old, new float64) bool {
	if old == new {
		return false
	}
	if a.Epsilon <= 0 {
		return true
	}
	base := max(math.Abs(old), math.Abs(new))
	if base == 0 {
		return false
	}
	return math.Abs(new-old)/base > a.Epsilon
}
