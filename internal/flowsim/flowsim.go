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
	"context"
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
	"horse/internal/simevent"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/tcpmodel"
	"horse/internal/traffic"
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

// Flow is the runtime state of one data flow.
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
	// TCP selects the TCP demand model.
	TCP bool
	// state sits in TCP's padding.
	state FlowState

	Arrival simtime.Time

	// recID is the ID of the flow's record: its demand's load index + 1.
	// ID, the arrival order, is what orders the flow inside the engine.
	recID int64

	remaining  float64
	sent       float64
	rate       float64
	lastSettle simtime.Time
	gen        uint64 // backstop: invalidates stale completion/ramp events

	// slot is the flow's index in Simulator.flows; allocSlot its slot in
	// the allocator while registered there (-1 otherwise). dirty is set
	// while the flow sits in the pending re-resolve batch.
	slot      int32
	allocSlot int32
	dirty     bool

	// Outstanding timer handles: cancelling removes the event from the
	// queue outright (no dead corpse waiting to fire as a gen-stamped
	// no-op). The gen stamp stays as a defensive second line.
	completion simcore.Timer
	ramp       simcore.Timer

	// Path state. hops is the last transmitting path: it survives
	// park/reactivate cycles so a reroute is detected against it. atPos
	// parallels hops with the flow's position in Simulator.flowsAt of that
	// hop's switch (-1 for a switch the path already crossed). Every slice
	// keeps its capacity when the slot is recycled.
	hops        []dataplane.Hop
	atPos       []int32
	lastPathLen int
	entries     []*openflow.FlowEntry
	meterRefs   []dataplane.MeterRef
	resources   []fairshare.ResourceID
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

	// TCP state: flow-level AIMD over the offered demand.
	txStart   simtime.Time // when transmission (re)started
	demandCap float64      // congestion-window cap in bits/second
	caMode    bool         // true after the first loss episode (additive increase)
	ramping   bool
	// pathLoss is the end-to-end frame-loss probability along the current
	// path from installed link models; it caps TCP demand via MathisCap.
	pathLoss float64

	punts       int
	pathChanges int
}

// Controller is the control-plane logic attached to a simulation: the
// paper's lightweight modular "policy generator". Start runs before any
// traffic; Handle receives every switch-to-controller message after the
// control-latency delay.
type Controller interface {
	Start(ctx *Context)
	Handle(ctx *Context, msg openflow.Message)
}

// Forker is an optional Controller capability: Fork returns an
// independent instance equivalent to a freshly constructed one (no shared
// mutable state with the receiver), or nil when this controller cannot
// fork. What-if runs that branch one warmed-up simulation into several
// futures need one controller instance per branch.
type Forker interface {
	Controller
	Fork() Controller
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
	evComplete
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
// ControlPlane's own. An Arrivals cursor's events are evArrival events
// it owns, at every fidelity, so ingestion adds no event type to a flow
// run: each dynamic type the kernel's type assertions meet can cost them
// a slow lookup per event, since the interface conversions behind them
// build itabs that Go's assertion caches probe from the wrong slot.
type event struct {
	at   simtime.Time
	sim  *Simulator
	flow *Flow
	// gen is the flow generation a completion or ramp was armed under,
	// and an arrival's order key.
	gen uint64
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
		return e.gen
	case evComplete:
		return simcore.OrderKey(simcore.ClassData+1, uint32(e.flow.ID))
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
// stays with its cursor). Stale-event safety comes from the generation
// stamps (Flow.gen) checked in dispatch, so a recycled envelope can never
// act for its former flow.
func (e *event) Release() {
	if e.kind == evArrival {
		return
	}
	s := e.sim
	*e = event{}
	s.pool.Put(e)
}

// sched schedules a pooled copy of proto on the kernel.
func (s *Simulator) sched(proto event) {
	e := s.pool.Get()
	*e = proto
	e.sim = s
	s.k.Schedule(e)
}

// schedTimer schedules a pooled copy of proto as a cancelable timer.
func (s *Simulator) schedTimer(proto event) simcore.Timer {
	e := s.pool.Get()
	*e = proto
	e.sim = s
	return s.k.ScheduleCancelable(e)
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

// Simulator is a Horse simulation run. Create with New, feed with Load /
// SetTraceReader / ScheduleLinkChange, execute with Run.
type Simulator struct {
	cfg       Config
	plane     *ControlPlane
	topo      *netgraph.Topology
	net       *dataplane.Network
	k         *simcore.Kernel
	ownKernel bool
	pool      simcore.Pool[event]

	alloc  *fairshare.Allocator
	nextID FlowID
	// loaded counts the demands Loaded so far: the next one's load index.
	// loads holds the Load cursors until Run sizes the retained records.
	loaded int
	loads  []*Arrivals

	// flows is the slot table: every Flow ever built, by Flow.slot. A
	// finalized flow's slot goes on free and its Flow (with the capacity
	// of its buffers) is reused by a later arrival, so the table is as
	// large as the most flows live at once. Finalized slots hold a Done
	// flow, which every scan skips. byAlloc maps allocator slots
	// (fairshare.Changed.Slot) back to registered flows.
	flows   []*Flow
	free    []int32
	byAlloc []*Flow

	// waiting holds the flows parked at each switch (see Flow.parks) and
	// flowsAt the active flows traversing it (for re-resolution on state
	// changes), both by NodeID. Removal swaps the last entry into the
	// hole, using the positions each flow keeps.
	waiting [][]flowRef
	flowsAt [][]flowRef

	// ledgers backs port counters and stats replies, by link resource
	// (link<<1|forward). Meter resources have no ledger: nothing reads one.
	ledgers []resLedger
	col     *stats.Collector
	// emit takes every finalized flow's record: the collector's AddFlow
	// for a simulator of its own, the owner's emitter for an attached one.
	emit func(stats.FlowRecord)

	// ingress is each node's attachment: the switch and port
	// AttachedSwitch reports and the link between them (nil if none).
	ingress []attachment

	// walk is the scratch result every path walk fills; activate copies
	// the path into the flow's own buffers.
	walk dataplane.PathResult

	// Batched re-resolution: the flows marked dirty at this instant (each
	// once, by Flow.dirty), resolved in ID order by one evResolveBatch.
	// dirtySpare is the other buffer of the pair.
	dirty        []*Flow
	dirtySpare   []*Flow
	batchPending bool

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

	// reader, when set, becomes an ingestion cursor at Begin; it keeps the
	// first reader failure (ingestion stops; Run surfaces it).
	reader *traffic.Ingest

	begun    bool
	finished bool
}

// New builds a simulator over the configured topology, with a control
// plane of its own.
func New(cfg Config) *Simulator { return newOwn(simcore.New(simcore.Config{}), cfg) }

// newOwn is New on kernel k (a test passes the heap oracle's).
func newOwn(k *simcore.Kernel, cfg Config) *Simulator {
	if cfg.Topology == nil {
		panic("flowsim: Config.Topology is required")
	}
	col := stats.NewCollector(cfg.StatsEvery)
	p := NewControlPlane(k, dataplane.NewNetwork(cfg.Topology, cfg.Miss), cfg.Links, col, cfg.Controller, cfg.ControlLatency)
	s := NewOn(p, cfg, col.AddFlow)
	s.ownKernel = true
	return s
}

// NewOn builds a simulator attached to control plane p, whose kernel,
// network, link registry, controller, control latency and collector it
// shares with the plane's other engines; cfg's Topology, Miss, Controller,
// ControlLatency and Links are not read. Every record goes to
// emit as its flow finalizes, in completion order. The plane's owner
// drives the kernel: Begin, the kernel's run, then Finish.
func NewOn(p *ControlPlane, cfg Config, emit func(stats.FlowRecord)) *Simulator {
	if cfg.TCP.RTT == 0 {
		cfg.TCP = tcpmodel.DefaultParams()
	}
	if cfg.RateEpsilon == 0 {
		cfg.RateEpsilon = 0.01
	}
	topo := p.net.Topo
	nodes, links := topo.NumNodes(), topo.NumLinks()
	s := &Simulator{
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
		emit:     emit,
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

// Network exposes the data-plane state (switch tables), mainly for tests
// and the packet-level comparator.
func (s *Simulator) Network() *dataplane.Network { return s.net }

// Collector returns the statistics collector.
func (s *Simulator) Collector() *stats.Collector { return s.col }

// Now returns the current virtual time.
func (s *Simulator) Now() simtime.Time { return s.k.Now() }

// Topology returns the simulated topology.
func (s *Simulator) Topology() *netgraph.Topology { return s.topo }

// Kernel returns the simulation kernel driving this simulator.
func (s *Simulator) Kernel() *simcore.Kernel { return s.k }

// Allocator exposes the bandwidth allocator (read-mostly; used by stats
// sampling and tests).
func (s *Simulator) Allocator() *fairshare.Allocator { return s.alloc }

// meterResourceBase tags meter resources; anything below it is a link
// direction encoded as link<<1|forward.
const meterResourceBase = fairshare.ResourceID(1) << 40

func linkResource(l netgraph.LinkID, forward bool) fairshare.ResourceID {
	r := fairshare.ResourceID(l) << 1
	if forward {
		r |= 1
	}
	return r
}

func meterResource(sw netgraph.NodeID, m openflow.MeterID) fairshare.ResourceID {
	return meterResourceBase | fairshare.ResourceID(sw)<<24 | fairshare.ResourceID(m)
}

// ResourceLinkDir decodes a fair-share resource ID back to the link
// direction it stands for; ok is false for non-link (meter) resources.
// The hybrid coupler uses it to turn OnRateShift notifications into
// per-link residual capacities.
func ResourceLinkDir(r fairshare.ResourceID) (link netgraph.LinkID, forward bool, ok bool) {
	if r >= meterResourceBase {
		return 0, false, false
	}
	return netgraph.LinkID(r >> 1), r&1 == 1, true
}

// LinkRateBps returns the aggregate flow-level rate currently allocated on
// one link direction.
func (s *Simulator) LinkRateBps(l netgraph.LinkID, forward bool) float64 {
	return s.alloc.ResourceUsage(linkResource(l, forward))
}

// Load schedules every demand in the trace; tr[i]'s record ID is its
// load index + 1, counted over every Load and then the trace reader. The
// simulator keeps tr (without copying it) until the last of its demands
// has arrived, so the caller must not modify it after Load.
//
// Load is an Arrivals cursor: one arrival is queued at a time, under the
// sequence number an eager push of the whole trace would have given it,
// so the run is event-for-event identical to one arrival event per
// demand while the queue holds one arrival per Load.
func (s *Simulator) Load(tr traffic.Trace) {
	s.loads = append(s.loads, LoadArrivals(s.k, tr, s.loaded, ArrivalKey, s.Admit))
	s.loaded += len(tr)
}

// SetTraceReader streams the workload in from r instead of (or in
// addition to) Load: demands are pulled one at a time as virtual time
// reaches them, so arbitrarily long traces ingest with one demand queued
// (a library reader is read ahead in fixed batches; see traffic.Ingest,
// which Finish closes). r must yield nondecreasing Start times. Because
// every arrival — loaded or streamed — carries ArrivalKey and arrivals
// dispatch FIFO among themselves, a streamed run's records are
// byte-identical to Load of the same sequence. Install before Run; a
// reader error stops ingestion and is returned by Run.
func (s *Simulator) SetTraceReader(r traffic.Reader) {
	if s.begun {
		panic("flowsim: SetTraceReader after Run")
	}
	s.reader = traffic.NewIngest("flowsim", r)
}

// ScheduleLinkChange schedules a link failure (up=false) or recovery; see
// ControlPlane.ScheduleLinkChange.
func (s *Simulator) ScheduleLinkChange(at simtime.Time, link netgraph.LinkID, up bool) {
	s.plane.ScheduleLinkChange(at, link, up)
}

// ScheduleSwitchChange schedules a switch crash (up=false) or restart; see
// ControlPlane.ScheduleSwitchChange.
func (s *Simulator) ScheduleSwitchChange(at simtime.Time, sw netgraph.NodeID, up bool) {
	s.plane.ScheduleSwitchChange(at, sw, up)
}

// ScheduleLinkDegrade schedules a link-model change (nil m restores the
// pristine link); see ControlPlane.ScheduleLinkDegrade.
func (s *Simulator) ScheduleLinkDegrade(at simtime.Time, link netgraph.LinkID, m linkmodel.Model) {
	s.plane.ScheduleLinkDegrade(at, link, m)
}

// ScheduleControllerChange schedules a controller detach (attached=false)
// or reattach; on reattach, waiting flows re-announce themselves with
// fresh PacketIns. See ControlPlane.ScheduleControllerChange.
func (s *Simulator) ScheduleControllerChange(at simtime.Time, attached bool) {
	s.plane.ScheduleControllerChange(at, attached)
}

// Run executes the simulation until the event queue drains, virtual time
// exceeds `until` (use simtime.Never for no bound), or ctx is cancelled.
// It returns the statistics collector — on cancellation a partial but
// consistent one (every unfinished flow settled to the stop instant and
// recorded), together with ctx.Err(). Run may be called once, and only on
// a simulator that owns its kernel; shared-kernel simulators are driven
// by their owner via Begin / kernel.Run / Finish.
func (s *Simulator) Run(ctx context.Context, until simtime.Time) (*stats.Collector, error) {
	if !s.ownKernel {
		panic("flowsim: Run on a shared-kernel simulator; drive the shared kernel instead")
	}
	s.col.Reserve(DueRecords(s.loads, until))
	s.col.ReserveLinkSeries(2*len(s.topo.Links()), until)
	s.loads = nil
	s.Begin()
	defer s.reader.Close() // Finish closes it; a panic out of the kernel skips Finish
	err := s.k.RunContext(ctx, until)
	col := s.Finish()
	if err == nil {
		err = s.reader.Err()
	}
	return col, err
}

// Observe registers an observer of applied network dynamics; see
// ControlPlane.Observe.
func (s *Simulator) Observe(fn simevent.Observer) { s.plane.Observe(fn) }

// SetRecordSink streams every stats.FlowRecord to sink the moment the
// flow finalizes, in exactly the order the collector would have
// accumulated them (completion order), and evicts finalized flow state —
// so a multi-million-flow run completes with O(1) record memory
// (Collector().Flows() stays empty). Install before Run.
func (s *Simulator) SetRecordSink(sink func(stats.FlowRecord)) { s.col.SetFlowSink(sink) }

// SetProgress arms progress reporting: fn receives a simevent.Progress at
// most once per `every` of virtual time, driven off the kernel's
// pre-advance path so everything at the reported instant has settled.
// Install before Run.
func (s *Simulator) SetProgress(every simtime.Duration, fn simevent.ProgressFunc) {
	simevent.ArmProgress(s.k, every, fn)
}

// Begin starts the control plane and arms statistics sampling. It is the
// first half of Run, exposed for shared-kernel (hybrid) drivers.
func (s *Simulator) Begin() {
	if s.begun || s.finished {
		panic("flowsim: Run called twice")
	}
	s.begun = true
	s.plane.Start()
	if s.cfg.StatsEvery > 0 {
		s.sched(event{at: simtime.Time(s.cfg.StatsEvery), kind: evStatsTick})
	}
	if s.reader != nil {
		ReadArrivals(s.k, s.reader, s.loaded, ArrivalKey, s.Admit)
	}
}

// Finish closes the trace reader, settles and records every unfinished
// flow, sets EventsRun to the kernel's dispatch count, and returns the
// collector. It is the second half of Run, exposed for shared-kernel
// (hybrid) drivers; calling it again is a no-op.
func (s *Simulator) Finish() *stats.Collector {
	if !s.finished {
		s.reader.Close()
		s.finish()
		s.col.EventsRun = s.k.Dispatched()
	}
	return s.col
}

func (s *Simulator) dispatch(e *event) {
	switch e.kind {
	case evComplete:
		if e.flow.gen == e.gen && e.flow.state != StateDone {
			e.flow.completion = simcore.Timer{}
			s.handleComplete(e.flow)
		}
	case evRamp:
		// At most one ramp is in flight per flow (the ramping guard), so
		// the firing event is the one f.ramp points at.
		e.flow.ramp = simcore.Timer{}
		if e.flow.state == StateActive {
			s.handleRamp(e.flow)
		} else {
			e.flow.ramping = false
		}
	case evStatsTick:
		s.handleStatsTick()
	case evResolveBatch:
		s.handleResolveBatch()
	}
}

// finish settles and records every unfinished flow, in flow-ID order so
// the record sequence (and any record sink) is deterministic.
func (s *Simulator) finish() {
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
			if s.alloc.Rate(fairshare.FlowID(f.ID)) < 0 {
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
