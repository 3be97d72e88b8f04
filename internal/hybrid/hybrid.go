// Package hybrid couples the flow-level and packet-level engines under one
// simulation kernel — the hybrid-fidelity mode the simulator is named for.
// Flagged foreground demands are simulated packet by packet while the
// background stays flow-level, all under a single virtual clock and a
// single OpenFlow control plane:
//
//   - The run has one flowsim.Driver and its ControlPlane, with the flow
//     engine and then the packet engine attached to it. Both share its simcore.Kernel, so
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
	"slices"

	"horse/internal/dataplane"
	"horse/internal/fairshare"
	"horse/internal/flowsim"
	"horse/internal/linkmodel"
	"horse/internal/netgraph"
	"horse/internal/packetsim"
	"horse/internal/simtime"
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

// Simulator runs both engines, attached in that order to the one
// flowsim.Driver it embeds: one kernel, one control plane, one collector,
// records in load order. Its own part is the selector that routes each
// demand to an engine. Create with New, feed with Load, execute with Run.
type Simulator struct {
	*flowsim.Driver
	flow *flowsim.Simulator
	pkt  *packetsim.Simulator
	sel  func(i int, d traffic.Demand) bool

	// routed counts the demands routed so far, Loaded or streamed, and
	// packetFlows those routed to the packet engine. dense is each Loaded
	// demand's route, by load index: its packet engine dense index, or -1
	// for the flow engine.
	routed      int
	packetFlows int
	dense       []int32
}

// New builds a hybrid simulator over the configured topology.
func New(cfg Config) *Simulator {
	d := flowsim.NewDriver("hybrid", flowsim.Config{
		Topology: cfg.Topology, Miss: cfg.Miss, Links: cfg.Links, StatsEvery: cfg.StatsEvery,
		Controller: cfg.Controller, ControlLatency: cfg.ControlLatency,
	}, true)
	s := &Simulator{Driver: d, sel: cfg.PacketLevel}
	s.flow = flowsim.NewOn(d, flowsim.Config{
		TCP:         cfg.TCP,
		StatsEvery:  cfg.StatsEvery,
		RateEpsilon: cfg.RateEpsilon,
		OnRateShift: s.applyRateShift,
	})
	s.pkt = packetsim.NewOn(d, packetsim.Config{
		QueuePackets: cfg.QueuePackets,
		RTOMin:       cfg.RTOMin,
	})
	// A Loaded demand is queued as its first event in its engine — a flow
	// arrival, or a packet first send, which sorts later at an instant —
	// so a Load cursor walks its trace in (Start, engine, index) order.
	d.SetIntake(flowsim.Intake{
		Route: s.routeTrace, Key: s.firstKey, Admit: s.admit,
		StreamKey: flowsim.ArrivalKey, StreamAdmit: s.admitStreamed,
	})
	return s
}

// applyRateShift recomputes the residual capacity the packet engine sees
// on every link direction whose flow-level aggregate moved significantly.
func (s *Simulator) applyRateShift(resources []fairshare.ResourceID) {
	for _, r := range resources {
		link, fwd, ok := s.flow.ResourceLinkDir(r)
		if !ok {
			continue
		}
		s.pkt.SetExternalLoad(link, fwd, s.flow.LinkRateBps(link, fwd))
	}
}

// PacketsForwarded reports the packet engine's forwarded-hop count.
func (s *Simulator) PacketsForwarded() uint64 { return s.pkt.PacketsForwarded() }

// Split reports how many demands went to each engine: every Loaded one,
// its engine fixed at Load, and every one streamed in so far.
func (s *Simulator) Split() (packetFlows, flowFlows int) {
	return s.packetFlows, s.routed - s.packetFlows
}

// routeTrace routes a Loaded trace, whose first demand has load index
// first, across the engines per the selector, called once per demand in
// load order.
func (s *Simulator) routeTrace(tr traffic.Trace, first int) {
	s.dense = slices.Grow(s.dense, len(tr))
	for i := range tr {
		s.dense = append(s.dense, s.route(first+i, &tr[i]))
	}
}

// route picks the engine of the demand with load index i per the
// selector, returning its packet engine dense index, or -1 for the flow
// engine.
func (s *Simulator) route(i int, d *traffic.Demand) int32 {
	s.routed++
	if s.sel == nil || !s.sel(i, *d) {
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
	if dense := s.route(i, d); dense >= 0 {
		s.pkt.AdmitQueued(d, i, dense)
	} else {
		s.flow.Admit(d, i)
	}
}
