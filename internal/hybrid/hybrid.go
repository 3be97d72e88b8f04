// Package hybrid couples the flow-level and packet-level engines under one
// simulation kernel — the hybrid-fidelity mode the simulator is named for.
// Flagged foreground demands are simulated packet by packet while the
// background stays flow-level, all under a single virtual clock and a
// single OpenFlow control plane:
//
//   - The run has one flowsim.ControlPlane, with the flow engine and then
//     the packet engine attached to it. Both share its simcore.Kernel, so
//     their events interleave in strict time order, and its
//     dataplane.Network, so a FlowMod installs once and both fidelities
//     forward through it.
//   - The plane delivers and applies every control message, runs rule
//     expiry and applies network dynamics once; each engine reacts to
//     them in its own terms (flows re-resolve, parked packets retry the
//     pipeline, queues flush), so both fidelities punt into, and hear
//     from, the same controller.
//   - Coupling is one-way by construction: whenever the fair-share
//     allocator shifts a link direction's aggregate flow-level rate by
//     more than RateEpsilon (OnRateShift), that rate is subtracted from
//     the capacity the packet engine's transmitter sees on the link
//     (SetExternalLoad), so background load squeezes foreground packets
//     exactly where they share links.
//
// E7 sweeps the fraction of packet-level flows to chart the fidelity/cost
// frontier this buys.
package hybrid

import (
	"context"
	"slices"

	"horse/internal/dataplane"
	"horse/internal/eventq"
	"horse/internal/fairshare"
	"horse/internal/flowsim"
	"horse/internal/linkmodel"
	"horse/internal/netgraph"
	"horse/internal/packetsim"
	"horse/internal/simcore"
	"horse/internal/simevent"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/tcpmodel"
	"horse/internal/traffic"
)

// Config parameterizes a hybrid run. Field semantics match the underlying
// engines' configs.
type Config struct {
	// Topology is required.
	Topology *netgraph.Topology
	// Controller is the one control plane both fidelities report to (nil
	// means none).
	Controller flowsim.Controller
	// Miss is the table-miss behavior of every switch.
	Miss dataplane.MissBehavior
	// ControlLatency delays every switch↔controller message (default 1ms).
	ControlLatency simtime.Duration
	// TCP parameterizes the flow engine's TCP model.
	TCP tcpmodel.Params
	// StatsEvery samples flow-level link utilization at this period.
	StatsEvery simtime.Duration
	// EventQueue selects the shared kernel's event-queue backend (timing
	// wheel by default; the heap is the test oracle).
	EventQueue eventq.Backend
	// RateEpsilon is the fair-share significance threshold; it also gates
	// how often the packet engine's residual capacities recompute.
	RateEpsilon float64
	// QueuePackets is the packet engine's per-port queue capacity.
	QueuePackets int
	// RTOMin is the packet engine's minimum retransmission timeout.
	RTOMin simtime.Duration
	// Links is the per-link-direction degradation registry. A hybrid run
	// hands ONE Set to both engines (nil means New builds a pristine one):
	// the flow engine folds loss into its TCP demand caps and rate scaling
	// into fair-share capacities, while the packet engine corrupts frames
	// and scales transmitters off the same state, so both fidelities see
	// one channel.
	Links *linkmodel.Set

	// PacketLevel flags the demands to simulate at packet granularity
	// (called once per demand, with its load index i: at Load, or as a
	// reader streams it in). Nil means none — a pure flow-level run on
	// the hybrid plumbing. See Fraction.
	PacketLevel func(i int, d traffic.Demand) bool
}

// Fraction returns a PacketLevel selector flagging ~p of the load-order
// demand stream, spread evenly (Bresenham): p=0 flags none, p=1 all.
func Fraction(p float64) func(i int, d traffic.Demand) bool {
	return func(i int, _ traffic.Demand) bool {
		return int(float64(i+1)*p) > int(float64(i)*p)
	}
}

// Simulator runs both engines on one kernel. Create with New, feed with
// Load, execute with Run.
type Simulator struct {
	cfg   Config
	k     *simcore.Kernel
	plane *flowsim.ControlPlane
	flow  *flowsim.Simulator
	pkt   *packetsim.Simulator

	// loaded counts the demands Loaded or streamed in so far — the next
	// one's load index — and packetFlows those routed to the packet
	// engine. dense is each Loaded demand's route, by load index: its
	// packet engine dense index, or -1 for the flow engine. loads holds
	// the Load cursors until Run sizes the retained records.
	loaded      int
	packetFlows int
	dense       []int32
	loads       []*flowsim.Arrivals

	// col is the control plane's collector, the one both engines count
	// into. Both hand their records, whose ID is the load index + 1, to
	// records, the one in-order emitter: it delivers them to col in load
	// order, where they are retained or, with a record sink installed,
	// streamed.
	col     *stats.Collector
	records *stats.InOrder

	// reader, when set, becomes an ingestion cursor at Run (see
	// SetTraceReader).
	reader *traffic.Ingest
	begun  bool
}

// New builds a hybrid simulator over the configured topology.
func New(cfg Config) *Simulator {
	if cfg.Topology == nil {
		panic("hybrid: Config.Topology is required")
	}
	return newOn(simcore.New(simcore.Config{Backend: cfg.EventQueue}), cfg)
}

// newOn builds a hybrid simulator on kernel k.
func newOn(k *simcore.Kernel, cfg Config) *Simulator {
	s := &Simulator{cfg: cfg, k: k, col: stats.NewCollector(cfg.StatsEvery)}
	s.records = stats.NewInOrder(s.col.AddFlow)
	s.plane = flowsim.NewControlPlane(k, dataplane.NewNetwork(cfg.Topology, cfg.Miss), cfg.Links, s.col, cfg.Controller, cfg.ControlLatency)
	put := func(r stats.FlowRecord) { s.records.Put(int(r.ID-1), r) }
	s.flow = flowsim.NewOn(s.plane, flowsim.Config{
		TCP:         cfg.TCP,
		StatsEvery:  cfg.StatsEvery,
		RateEpsilon: cfg.RateEpsilon,
		OnRateShift: s.applyRateShift,
	}, put)
	s.pkt = packetsim.NewOn(s.plane, packetsim.Config{
		QueuePackets: cfg.QueuePackets,
		RTOMin:       cfg.RTOMin,
	}, put)
	return s
}

// ScheduleLinkChange schedules a link failure (up=false) or recovery; see
// flowsim.ControlPlane.ScheduleLinkChange.
func (s *Simulator) ScheduleLinkChange(at simtime.Time, link netgraph.LinkID, up bool) {
	s.plane.ScheduleLinkChange(at, link, up)
}

// ScheduleLinkDegrade schedules a link-model change (nil m restores the
// pristine link); see flowsim.ControlPlane.ScheduleLinkDegrade.
func (s *Simulator) ScheduleLinkDegrade(at simtime.Time, link netgraph.LinkID, m linkmodel.Model) {
	s.plane.ScheduleLinkDegrade(at, link, m)
}

// ScheduleSwitchChange schedules a switch crash or restart; see
// flowsim.ControlPlane.ScheduleSwitchChange.
func (s *Simulator) ScheduleSwitchChange(at simtime.Time, sw netgraph.NodeID, up bool) {
	s.plane.ScheduleSwitchChange(at, sw, up)
}

// ScheduleControllerChange schedules a controller detach or reattach; see
// flowsim.ControlPlane.ScheduleControllerChange.
func (s *Simulator) ScheduleControllerChange(at simtime.Time, attached bool) {
	s.plane.ScheduleControllerChange(at, attached)
}

// applyRateShift recomputes the residual capacity the packet engine sees
// on every link direction whose flow-level aggregate moved significantly.
func (s *Simulator) applyRateShift(resources []fairshare.ResourceID) {
	for _, r := range resources {
		link, fwd, ok := flowsim.ResourceLinkDir(r)
		if !ok {
			continue
		}
		s.pkt.SetExternalLoad(link, fwd, s.flow.LinkRateBps(link, fwd))
	}
}

// Kernel returns the shared simulation kernel.
func (s *Simulator) Kernel() *simcore.Kernel { return s.k }

// Now returns the current virtual time of the shared kernel.
func (s *Simulator) Now() simtime.Time { return s.k.Now() }

// Observe registers an observer of applied network dynamics; see
// flowsim.ControlPlane.Observe.
func (s *Simulator) Observe(fn simevent.Observer) { s.plane.Observe(fn) }

// SetRecordSink streams every stats.FlowRecord to sink in load order
// instead of retaining it — the same records, in the same order,
// Collector().Flows() would have held, because both go through one path:
// the engines hand every record to the hybrid as their flows finalize
// (evicting per-flow state as they go), and it emits them through a
// reorder buffer keyed by ID, which in practice stays near-empty because
// completion order tracks start order. Install before Run.
func (s *Simulator) SetRecordSink(sink func(stats.FlowRecord)) { s.col.SetFlowSink(sink) }

// SetProgress arms progress reporting off the shared kernel's pre-advance
// path: fn receives a simevent.Progress at most once per `every` of
// virtual time. Install before Run.
func (s *Simulator) SetProgress(every simtime.Duration, fn simevent.ProgressFunc) {
	simevent.ArmProgress(s.k, every, fn)
}

// Topology returns the simulated topology (shared by both engines).
func (s *Simulator) Topology() *netgraph.Topology { return s.cfg.Topology }

// Network exposes the shared data-plane state.
func (s *Simulator) Network() *dataplane.Network { return s.plane.Network() }

// PacketsForwarded reports the packet engine's forwarded-hop count.
func (s *Simulator) PacketsForwarded() uint64 { return s.pkt.PacketsForwarded() }

// Split reports how many demands went to each engine: every Loaded one,
// its engine fixed at Load, and every one streamed in so far.
func (s *Simulator) Split() (packetFlows, flowFlows int) {
	return s.packetFlows, s.loaded - s.packetFlows
}

// Load routes the trace across the engines per cfg.PacketLevel, called
// once per demand in load order; call it any number of times before Run.
// Its flowsim.Arrivals cursor queues each demand as its first event in
// its engine — a flow arrival, or a packet first send, which sorts later
// at an instant — so it walks the trace in (Start, engine, index) order.
// The caller must not modify tr after Load.
func (s *Simulator) Load(tr traffic.Trace) {
	first := s.loaded
	s.dense = slices.Grow(s.dense, len(tr))
	for i := range tr {
		s.dense = append(s.dense, s.route(first+i, &tr[i]))
	}
	s.loaded += len(tr)
	s.loads = append(s.loads, flowsim.LoadArrivals(s.k, tr, first, s.firstKey, s.admit))
}

// route picks the engine of the demand with load index i per
// cfg.PacketLevel, returning its packet engine dense index, or -1 for the
// flow engine.
func (s *Simulator) route(i int, d *traffic.Demand) int32 {
	if s.cfg.PacketLevel == nil || !s.cfg.PacketLevel(i, *d) {
		return -1
	}
	s.packetFlows++
	return int32(s.packetFlows - 1)
}

// firstKey is the order key of a Loaded demand's first event.
func (s *Simulator) firstKey(i int) uint64 {
	if dense := s.dense[i]; dense >= 0 {
		return packetsim.FirstSendKey(int(dense))
	}
	return flowsim.ArrivalKey(i)
}

// admit starts a Loaded demand in its engine.
func (s *Simulator) admit(d *traffic.Demand, i int) {
	if dense := s.dense[i]; dense >= 0 {
		s.pkt.Admit(d, i, dense)
	} else {
		s.flow.Admit(d, i)
	}
}

// admitStreamed routes a streamed demand and starts it. Its cursor event
// carries the flow engine's arrival key: a reader cannot see past the
// demand to the ones tied with it, so a packet-level demand, whose first
// send sorts after every flow-level arrival of its instant, has that send
// queued instead of taken at once — one ingest dispatch more than Load.
func (s *Simulator) admitStreamed(d *traffic.Demand, i int) {
	s.loaded++
	if dense := s.route(i, d); dense >= 0 {
		s.pkt.AdmitQueued(d, i, dense)
	} else {
		s.flow.Admit(d, i)
	}
}

// SetTraceReader streams the workload in from r instead of (or after)
// Load calls: demands are pulled one at a time as virtual time reaches
// each start and routed across the engines exactly as Load would (a
// library reader is read ahead in fixed batches; see traffic.Ingest,
// which Run closes). r must yield nondecreasing Start times; a reader
// error stops ingestion and is returned by Run. A streamed run reproduces
// the Loaded run's records byte for byte. Install before Run.
func (s *Simulator) SetTraceReader(r traffic.Reader) {
	if s.begun {
		panic("hybrid: SetTraceReader after Run")
	}
	s.reader = traffic.NewIngest("hybrid", r)
}

// Run executes both engines until the shared queue drains, virtual time
// passes until, or ctx is cancelled, and returns the collector (see
// Collector) — on cancellation a partial but consistent one,
// together with ctx.Err(). Run may be called once.
func (s *Simulator) Run(ctx context.Context, until simtime.Time) (*stats.Collector, error) {
	s.begun = true
	s.col.Reserve(flowsim.DueRecords(s.loads, until))
	s.col.ReserveLinkSeries(2*len(s.cfg.Topology.Links()), until)
	s.loads = nil
	s.flow.Begin()
	s.pkt.Begin()
	if s.reader != nil {
		flowsim.ReadArrivals(s.k, s.reader, s.loaded, flowsim.ArrivalKey, s.admitStreamed)
	}
	defer s.reader.Close() // also on a panic out of the kernel
	err := s.k.RunContext(ctx, until)
	s.flow.Finish()
	s.pkt.Finish()
	// Load indices that never produced a record — a demand past the time
	// bound, or a canceled run — leave holes the flush skips.
	s.records.Flush()
	if err == nil {
		err = s.reader.Err()
	}
	return s.col, err
}

// Collector returns the one collector: every record emitted so far, in
// load order (none when a record sink is installed), the flow engine's
// link series and reroute times, both engines' outcome tallies and packet
// and punt counters, the flow engine's rate and path counters, the
// control plane's FlowMods, and — once Run has ended — the kernel's
// dispatch count as EventsRun (the hybrid's total work metric).
func (s *Simulator) Collector() *stats.Collector { return s.col }
