// Package flowsim is the Horse simulation engine: a discrete-event,
// flow-level simulator of SDN traffic dynamics. It ties together the
// paper's building blocks —
//
//	data plane:    Events (eventq) + Topology (netgraph/dataplane) +
//	               Traffic statistics & network state (stats, fairshare)
//	control plane: Policy generator + Instructions + Monitoring
//	               (the Controller interface, implemented in package
//	               controller and compiled from policies in package policy)
//
// Data flows enter as events (from a traffic matrix or a generator); each
// flow is routed through the switches' OpenFlow state; the max–min
// allocator determines every flow's rate; statistics update after every
// event and are exported to the control plane via stats messages; and the
// controller reacts by sending (latency-modeled, connectionless) OpenFlow
// instructions back.
package flowsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"horse/internal/dataplane"
	"horse/internal/fairshare"
	"horse/internal/header"
	"horse/internal/linkmodel"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simcore"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/tcpmodel"
)

// FlowID identifies a data flow within a simulation run.
type FlowID int64

// FlowState is the lifecycle state of a data flow.
type FlowState uint8

// Flow states.
const (
	// StateWaiting: not yet transmitting — punted to the controller,
	// flooding, or stalled on a broken path; the first packet is buffered.
	StateWaiting FlowState = iota
	// StateActive: transmitting at the allocated rate.
	StateActive
	// StateDone: finished (any outcome).
	StateDone
)

// Flow is the runtime state of one data flow, laid out small: 224 bytes
// of scalar state, the path in 8-byte elements (pathHop) and the matched
// entries in two arrays the slot keeps for its next flow, and the state
// only parked, punting and TCP flows use out of line (flowExt). The
// allocator keeps the route; appendRoute derives it from the path.
type Flow struct {
	ID  FlowID
	Key header.FlowKey
	Src netgraph.NodeID
	Dst netgraph.NodeID

	// SizeBits is the remaining transfer volume (+Inf for open-ended).
	SizeBits float64
	// AppRateBps is the application's offered rate (+Inf for backlogged).
	AppRateBps float64
	// Deadline ends open-ended flows (simtime.Never if none).
	Deadline simtime.Time
	Arrival  simtime.Time

	// recID is the ID of the flow's record: its demand's load index + 1.
	// ID, the arrival order, is what orders the flow inside the engine.
	recID int64

	remaining  float64
	sent       float64
	rate       float64
	lastSettle simtime.Time

	// The flow is its own completion event (Time, OrderKey, Fire): it has
	// at most one queued, at doneAt, and completion is the timer that
	// cancels it, which takes it off the queue outright.
	doneAt     simtime.Time
	sim        *Simulator
	completion simcore.Timer

	// slot is the flow's index in Simulator.flows; allocSlot its slot in
	// the allocator while registered there (-1 otherwise). punts counts
	// the PacketIns it raised.
	slot      int32
	allocSlot int32
	punts     int32

	// The first nHops elements of path are the last transmitting path,
	// kept while the flow is parked so a reroute is detected against it;
	// the rest, and entries, belong to the registered path.
	nHops   int32
	path    []pathHop
	entries []*openflow.FlowEntry

	// TCP selects the TCP demand model.
	TCP   bool
	state FlowState
	// dirty is set while the flow sits in the pending re-resolve batch,
	// rewalk when a trigger that queued it can change its path, punting
	// when its last walk raised PacketIns, kept while it waits in
	// Simulator.kept.
	dirty   bool
	rewalk  bool
	punting bool
	kept    bool

	ext *flowExt
}

// flowExt is the state of a flow that parks or punts, or runs TCP, out of
// line. A flow takes one when it first needs it and gives it back when it
// finishes, or when it transmits with nothing parked and no TCP state
// (Simulator.ext and dropExt).
type flowExt struct {
	// waitingAt is the switch the flow waits at (-1 if none). parks lists
	// every switch whose waiting list holds the flow, with its position
	// there: unpark leaves only waitingAt's list, so a flow re-parked at
	// another switch stays listed where it waited before — and is
	// re-resolved when that switch changes — until it finishes.
	waitingAt netgraph.NodeID
	parks     []parkPos
	// puntedAt lists the switches that have a PacketIn out for the flow's
	// current punt episode (one per switch).
	puntedAt []netgraph.NodeID

	// TCP state: flow-level AIMD over the offered demand. ramp is the
	// outstanding window re-evaluation.
	ramp      simcore.Timer
	demandCap float64 // congestion-window cap in bits/second
	// pathLoss is the end-to-end frame-loss probability along the current
	// path from installed link models; it caps TCP demand via MathisCap.
	pathLoss float64
	caMode   bool // true after the first loss episode (additive increase)
	ramping  bool
}

// meters returns the meters of the flow's registered path.
func (f *Flow) meters() []pathHop { return f.path[f.nHops:] }

// Time implements simcore.Event: the flow's completion fires at doneAt.
func (f *Flow) Time() simtime.Time { return f.doneAt }

// OrderKey implements eventq.Keyed: completions follow the instant's
// arrivals, in flow-ID order.
func (f *Flow) OrderKey() uint64 { return simcore.OrderKey(simcore.ClassData+1, uint32(f.ID)) }

// Fire implements simcore.Event: the flow's completion is due.
func (f *Flow) Fire() {
	f.completion = simcore.Timer{}
	if f.state != StateDone {
		f.sim.handleComplete(f)
	}
}

// Release implements simcore.Event; the flow is not pooled.
func (f *Flow) Release() {}

// Controller is the control-plane logic attached to a simulation: the
// paper's lightweight modular "policy generator". Start runs before any
// traffic; Handle receives every switch-to-controller message after the
// control-latency delay.
type Controller interface {
	Start(ctx *Context)
	Handle(ctx *Context, msg openflow.Message)
}

// Config parameterizes a Simulator.
type Config struct {
	// Topology is required.
	Topology *netgraph.Topology
	// Controller is the control plane (nil means none: switch-to-
	// controller messages drop at the switch).
	Controller Controller
	// Miss is the table-miss behavior of every switch.
	Miss dataplane.MissBehavior
	// ControlLatency delays every switch↔controller message (default 1ms).
	ControlLatency simtime.Duration
	// TCP parameterizes the TCP model.
	TCP tcpmodel.Params
	// StatsEvery samples link utilization at this period (0 disables).
	StatsEvery simtime.Duration
	// FullRecompute disables incremental fair-share solving (E6 ablation).
	FullRecompute bool
	// RateEpsilon is the relative rate-change threshold below which rate
	// changes do not reschedule events (default 1%).
	RateEpsilon float64
	// Links is the per-link-direction degradation registry (nil means
	// every link is pristine). Installed models shape the fluid view two
	// ways: LossRate caps TCP demand through tcpmodel.MathisCap, and
	// RateScale scales the direction's fair-share capacity (re-applied
	// every Model.StepEvery for time-varying models). A hybrid run passes
	// the same Set to both engines so they see one channel; it composes
	// with FailureState — a dead link has capacity 0 whatever its model
	// says.
	Links *linkmodel.Set

	// OnRateShift, when set, is called after a fair-share drain with the
	// deduplicated resource IDs whose aggregate allocation shifted by
	// more than RateEpsilon. The hybrid coupler uses it to re-derive the
	// residual link capacity the packet engine sees.
	OnRateShift func(resources []fairshare.ResourceID)
}

type evKind uint8

const (
	evArrival evKind = iota
	evRamp
	evStatsTick
	evResolveBatch
)

// ArrivalKey is the order key of every flow's first event, its arrival,
// whatever the load index: the engine's first data-plane class, which
// fires after every control-plane class at an instant. Arrivals at one
// instant dispatch FIFO among themselves.
func ArrivalKey(int) uint64 { return simcore.OrderKey(simcore.ClassData+0, 0) }

// event is the engine's pooled kernel envelope, 48 bytes: the control
// plane's events (deliveries, timers, expiries, dynamics) are the
// ControlPlane's own, and a flow is its own completion event. An
// Arrivals cursor's events are evArrival events it owns, at every
// fidelity, so ingestion adds no event type to a flow run: each dynamic
// type the kernel's type assertions meet can cost them a slow lookup per
// event, since the interface conversions behind them build itabs that
// Go's assertion caches probe from the wrong slot.
type event struct {
	at   simtime.Time
	sim  *Simulator
	flow *Flow
	// key is an arrival's order key.
	key uint64
	// arr is an arrival's cursor, and slot its place there.
	arr  *Arrivals
	slot int32
	kind evKind
}

func (e *event) Time() simtime.Time { return e.at }

// OrderKey implements eventq.Keyed: the engine's data-plane classes
// after ArrivalKey's, and an arrival's own key.
func (e *event) OrderKey() uint64 {
	switch e.kind {
	case evArrival:
		return e.key
	case evRamp:
		return simcore.OrderKey(simcore.ClassData+2, uint32(e.flow.ID))
	case evResolveBatch:
		return simcore.OrderKey(simcore.ClassData+3, 0)
	default: // evStatsTick
		return simcore.OrderKey(simcore.ClassData+4, 0)
	}
}

// Fire implements simcore.Event: execute on dispatch.
func (e *event) Fire() {
	if e.kind == evArrival {
		e.arr.fire(e.slot)
		return
	}
	e.sim.dispatch(e)
}

// String names an arrival by its demand's load index, and any other
// event by its kind.
func (e *event) String() string {
	if e.kind == evArrival {
		return fmt.Sprintf("arrival %d", e.arr.pend[e.slot].i)
	}
	return fmt.Sprintf("flowsim kind %d", e.kind)
}

// Release implements simcore.Event: recycle the envelope (an arrival's
// stays with its cursor). A flow's ramp is cancelled when the flow
// finishes, so a recycled envelope never acts for its former flow.
func (e *event) Release() {
	if e.kind == evArrival {
		return
	}
	s := e.sim
	*e = event{}
	s.pool.Put(e)
}

// sched schedules a pooled copy of proto on the kernel, passing the time
// and order key the envelope reports, and returns the Timer that cancels
// it.
func (s *Simulator) sched(proto event) simcore.Timer {
	e := s.pool.Get()
	*e = proto
	e.sim = s
	return s.k.ScheduleAt(e, e.at, e.OrderKey(), 0)
}

// resLedger tracks cumulative bits and the current aggregate rate of one
// resource (link direction), backing port counters and stats replies.
type resLedger struct {
	bits float64
	rate float64
	last simtime.Time
}

func (l *resLedger) settle(now simtime.Time) {
	if now > l.last {
		l.bits += l.rate * now.Sub(l.last).Seconds()
		l.last = now
	}
}

// Simulator is the flow-level engine, attached to a Driver it embeds.
// Create with New, feed with Load / SetTraceReader / ScheduleLinkChange,
// execute with Run.
type Simulator struct {
	*Driver
	cfg   Config
	plane *ControlPlane
	topo  *netgraph.Topology
	net   *dataplane.Network
	k     *simcore.Kernel
	pool  simcore.Pool[event]

	alloc  *fairshare.Allocator
	nextID FlowID

	// flows is the slot table: every Flow ever built, by Flow.slot. A
	// finalized flow's slot goes on free and its Flow (with the capacity
	// of its buffers) is reused by a later arrival, so the table is as
	// large as the most flows live at once. Finalized slots hold a Done
	// flow, which every scan skips. byAlloc maps allocator slots
	// (fairshare.Changed.Slot) back to registered flows.
	flows   []*Flow
	free    []int32
	byAlloc []*Flow

	// waiting holds the flows parked at each switch (see flowExt.parks)
	// and flowsAt the active flows traversing it (for re-resolution on
	// state changes), both by NodeID. Removal swaps the last entry into
	// the hole, using the positions each flow keeps.
	waiting [][]flowRef
	flowsAt [][]flowRef

	// ledgers backs port counters and stats replies, by link resource
	// (link<<1|forward). Meter resources have no ledger: nothing reads one.
	// meters lists the meters given a resource, in resource order.
	ledgers []resLedger
	meters  []dataplane.MeterRef
	col     *stats.Collector
	// emit takes every finalized flow's record: the Driver's emitter.
	emit func(stats.FlowRecord)

	// ingress is each node's attachment: the switch and port
	// AttachedSwitch reports and the link between them (nil if none).
	ingress []attachment

	// spareExt holds flowExts given back, for flows that need one, never
	// more than extInUse, the number flows hold: the spares a burst of
	// punts leaves go once its flows transmit.
	spareExt []*flowExt
	extInUse int

	// walk is the scratch result every path walk fills; activate copies
	// the path into the flow's own buffers. route is the scratch list of a
	// flow's resources (appendRoute).
	walk  dataplane.PathResult
	route []fairshare.ResourceID

	// Batched re-resolution: the flows marked dirty at this instant (each
	// once, by Flow.dirty), resolved in ID order by one evResolveBatch.
	// dirtySpare is the other buffer of the pair.
	dirty        []*Flow
	dirtySpare   []*Flow
	batchPending bool
	// walks counts path walks; kept lists the flows readmitted on their
	// stored path since the last drain, and merged is its buffer for them.
	walks  int
	kept   []*Flow
	merged []fairshare.Changed

	// allocDirty defers fair-share re-solving: events at the same virtual
	// instant (an epoch's worth of arrivals, say) trigger one solve when
	// time advances, not one per event. The kernel drains it through the
	// registered pre-advance hook.
	allocDirty bool

	// links is the control plane's degradation-model registry; a hybrid
	// run shares it with the packet engine. modelGen invalidates
	// outstanding rate-step timers when a link's model changes.
	links    *linkmodel.Set
	modelGen []uint64

	// shiftPending accumulates resources whose membership changed outside
	// a solve (flow activate/deactivate) so OnRateShift still reports
	// them; shifted is the drain's deduplicated report.
	shiftPending []fairshare.ResourceID
	shifted      resourceSet

	finished bool
}

// New builds a flow-level run over the configured topology: a Driver
// whose one engine is the simulator, recording in completion order.
func New(cfg Config) *Simulator {
	s := NewOn(NewDriver("flowsim", cfg, false), cfg)
	s.SetIntake(Intake{Key: ArrivalKey, Admit: s.Admit})
	return s
}

// NewOn builds a simulator attached to d's control plane, whose kernel,
// network, link registry, controller, control latency and collector it
// shares with the plane's other engines; cfg's Topology, Miss, Controller,
// ControlLatency and Links are the Driver's and not read here. Every
// record goes to the Driver's emitter as its flow finalizes, in
// completion order.
func NewOn(d *Driver, cfg Config) *Simulator {
	if cfg.TCP.RTT == 0 {
		cfg.TCP = tcpmodel.DefaultParams()
	}
	if cfg.RateEpsilon == 0 {
		cfg.RateEpsilon = 0.01
	}
	p := d.Plane()
	topo := p.net.Topo
	nodes, links := topo.NumNodes(), topo.NumLinks()
	s := &Simulator{
		Driver:   d,
		cfg:      cfg,
		plane:    p,
		topo:     topo,
		net:      p.net,
		k:        p.k,
		alloc:    fairshare.New(),
		waiting:  make([][]flowRef, nodes),
		flowsAt:  make([][]flowRef, nodes),
		ledgers:  make([]resLedger, 2*links),
		col:      p.col,
		emit:     d.emit,
		ingress:  make([]attachment, nodes),
		links:    p.links,
		modelGen: make([]uint64, links),
	}
	for n := range s.ingress {
		a := attachment{}
		a.sw, a.port = s.topo.AttachedSwitch(netgraph.NodeID(n))
		if a.sw >= 0 {
			a.link = s.topo.LinkAt(a.sw, a.port)
		}
		s.ingress[n] = a
	}
	p.Attach(s)
	s.alloc.Epsilon = cfg.RateEpsilon
	// The kernel settles deferred fair-share work exactly when virtual
	// time would advance, so all events at one instant share a solve.
	s.k.AddPreAdvance(func() bool { return s.allocDirty }, s.drainAlloc)
	// Declare every link direction to the allocator and ledger. A model
	// installed before the run scales the initial capacity too.
	for _, l := range s.topo.Links() {
		for _, fwd := range []bool{true, false} {
			r := linkResource(l.ID, fwd)
			s.alloc.SetCapacity(r, l.BandwidthBps*s.links.RateScale(l.ID, fwd, 0))
		}
		s.armRateStep(l.ID)
	}
	return s
}

// Allocator exposes the bandwidth allocator (read-mostly; used by stats
// sampling and tests).
func (s *Simulator) Allocator() *fairshare.Allocator { return s.alloc }

// linkResource is the fair-share resource of one link direction:
// link<<1|forward. Meter resources follow every link's (see meterResource).
func linkResource(l netgraph.LinkID, forward bool) fairshare.ResourceID {
	r := fairshare.ResourceID(l) << 1
	if forward {
		r |= 1
	}
	return r
}

// meterResource returns the fair-share resource of meter m at switch sw:
// the IDs after the links' go to meters in the order they are first asked
// for, so resource IDs stay dense.
func (s *Simulator) meterResource(sw netgraph.NodeID, m openflow.MeterID) fairshare.ResourceID {
	ref := dataplane.MeterRef{Switch: sw, Meter: m}
	i := slices.Index(s.meters, ref)
	if i < 0 {
		i = len(s.meters)
		s.meters = append(s.meters, ref)
	}
	return fairshare.ResourceID(len(s.ledgers) + i)
}

// ResourceLinkDir decodes a fair-share resource ID back to the link
// direction it stands for; ok is false for meter resources. The hybrid
// coupler uses it to turn OnRateShift notifications into per-link
// residual capacities.
func (s *Simulator) ResourceLinkDir(r fairshare.ResourceID) (link netgraph.LinkID, forward bool, ok bool) {
	if int(r) >= len(s.ledgers) {
		return 0, false, false
	}
	return netgraph.LinkID(r >> 1), r&1 == 1, true
}

// LinkRateBps returns the aggregate flow-level rate currently allocated on
// one link direction.
func (s *Simulator) LinkRateBps(l netgraph.LinkID, forward bool) float64 {
	return s.alloc.ResourceUsage(linkResource(l, forward))
}

// Begin implements Attachment: it arms statistics sampling.
func (s *Simulator) Begin() {
	if s.cfg.StatsEvery > 0 {
		s.sched(event{at: simtime.Time(s.cfg.StatsEvery), kind: evStatsTick})
	}
}

func (s *Simulator) dispatch(e *event) {
	switch e.kind {
	case evRamp:
		// At most one ramp is in flight per flow (the ramping guard), so
		// the firing event is the one the flow's ramp points at.
		e.flow.ext.ramp = simcore.Timer{}
		if e.flow.state == StateActive {
			s.handleRamp(e.flow)
		} else {
			e.flow.ext.ramping = false
		}
	case evStatsTick:
		s.handleStatsTick()
	case evResolveBatch:
		s.handleResolveBatch()
	}
}

// Finish implements Attachment: it settles and records every unfinished
// flow, in flow-ID order so the record sequence (and any record sink) is
// deterministic.
func (s *Simulator) Finish() {
	s.drainAlloc()
	s.finished = true
	var live []*Flow
	for _, f := range s.flows {
		if f.state != StateDone {
			live = append(live, f)
		}
	}
	slices.SortFunc(live, byID)
	for _, f := range live {
		s.settleFlow(f)
		outcome := "running"
		if f.state == StateWaiting {
			outcome = "waiting"
		}
		s.finalize(f, false, outcome)
	}
}

// checkInvariants is used by tests: it verifies internal consistency
// between the allocator, the flow set, and the ledgers.
func (s *Simulator) checkInvariants() error {
	for _, f := range s.flows {
		if f.state == StateActive {
			if s.alloc.Rate(f.allocSlot) < 0 {
				return fmt.Errorf("flow %d has negative allocator rate", f.ID)
			}
			if !math.IsInf(f.remaining, 1) && f.remaining < -1 {
				return fmt.Errorf("flow %d oversent: remaining=%g", f.ID, f.remaining)
			}
		}
	}
	return nil
}

// byID orders flows by FlowID, the order every batch of flows is
// processed in.
func byID(a, b *Flow) int { return cmp.Compare(a.ID, b.ID) }
