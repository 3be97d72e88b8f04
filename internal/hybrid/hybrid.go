// Package hybrid couples the flow-level and packet-level engines under one
// simulation kernel — the hybrid-fidelity mode the simulator is named for.
// Flagged foreground demands are simulated packet by packet while the
// background stays flow-level, all under a single virtual clock and a
// single OpenFlow control plane:
//
//   - Both engines share one simcore.Kernel, so their events interleave in
//     strict time order, and one dataplane.Network, so a FlowMod installs
//     once and both fidelities forward through it.
//   - The controller attaches to the flow engine; packet-engine punts are
//     routed into the same control plane (PuntSink), and applied messages
//     echo back to the packet engine (OnApply → NotifyApplied) so parked
//     packets retry the pipeline when rules install.
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
	"fmt"
	"io"
	"sort"

	"horse/internal/dataplane"
	"horse/internal/eventq"
	"horse/internal/fairshare"
	"horse/internal/flowsim"
	"horse/internal/linkmodel"
	"horse/internal/netgraph"
	"horse/internal/openflow"
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
	// (called per Load with the demand's load order i). Nil means none —
	// a pure flow-level run on the hybrid plumbing. See Fraction.
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
	cfg  Config
	k    *simcore.Kernel
	net  *dataplane.Network
	flow *flowsim.Simulator
	pkt  *packetsim.Simulator

	// Per-engine load-order bookkeeping: the trace index of the i-th
	// demand handed to each engine, plus its start time (to undo the
	// arrival sort when mapping flow-engine IDs back to trace indices).
	flowIdx    []int
	flowStarts []simtime.Time
	pktIdx     []int
	loaded     int

	// sink, when set, streams the merged (load-order) records instead of
	// accumulating them in the merged collector; merged caches the
	// collector built at the end of Run so repeated Collector() calls
	// cannot re-stream.
	sink   func(stats.FlowRecord)
	merged *stats.Collector

	// Streaming delivery state (sink != nil, armed by startStream): each
	// sub-engine record renumbers to its trace ID as it finalizes and
	// emits through streamCol's flow sink in load order, reordered by the
	// streamNext/streamPending buffer. flowRank maps flow-engine IDs to
	// trace indices, precomputed before the run (eager loads only — reader
	// ingestion arrives already in arrival order, so flowIdx is the map).
	streaming     bool
	flowRank      []int
	streamCol     *stats.Collector
	streamNext    int
	streamPending map[int]stats.FlowRecord

	// Trace-reader ingestion: one demand buffered, pulled as virtual time
	// reaches each start (see SetTraceReader).
	reader     traffic.Reader
	readerLast simtime.Time
	readerErr  error
	begun      bool
}

// New builds a hybrid simulator over the configured topology.
func New(cfg Config) *Simulator {
	if cfg.Topology == nil {
		panic("hybrid: Config.Topology is required")
	}
	k := simcore.New(simcore.Config{Backend: cfg.EventQueue})
	net := dataplane.NewNetwork(cfg.Topology, cfg.Miss)
	links := cfg.Links
	if links == nil {
		links = linkmodel.NewSet(1, len(cfg.Topology.Links()))
	}
	s := &Simulator{cfg: cfg, k: k, net: net}
	s.pkt = packetsim.New(packetsim.Config{
		Topology:     cfg.Topology,
		Kernel:       k,
		Network:      net,
		Miss:         cfg.Miss,
		QueuePackets: cfg.QueuePackets,
		RTOMin:       cfg.RTOMin,
		Links:        links,
		PuntSink: func(msg openflow.Message) {
			// Packet-engine punts enter the shared control plane with the
			// same modeled latency as flow-level ones.
			s.flow.SendToController(msg)
		},
	})
	s.flow = flowsim.New(flowsim.Config{
		Topology:       cfg.Topology,
		Kernel:         k,
		Network:        net,
		Controller:     cfg.Controller,
		Miss:           cfg.Miss,
		ControlLatency: cfg.ControlLatency,
		TCP:            cfg.TCP,
		StatsEvery:     cfg.StatsEvery,
		RateEpsilon:    cfg.RateEpsilon,
		Links:          links,
		OnApply:        s.pkt.NotifyApplied,
		OnRateShift:    s.applyRateShift,
		// Topology dynamics apply once, at the flow engine (which owns
		// the shared state flips, table wipes, and PortStatus punts);
		// these hooks propagate the data-plane consequences to the packet
		// engine at the same virtual instant.
		OnLinkChange:       s.pkt.NotifyLinkChange,
		BeforeLinkDegrade:  s.pkt.SettleLink,
		OnLinkDegrade:      s.pkt.NotifyLinkDegrade,
		OnSwitchChange:     s.pkt.NotifySwitchChange,
		OnControllerChange: s.pkt.NotifyControllerChange,
	})
	return s
}

// ScheduleLinkChange schedules a link failure (up=false) or recovery,
// applied to both engines under the shared clock: the flow engine flips
// the shared topology and control plane, and the packet engine flushes its
// dead-link queues at the same instant.
func (s *Simulator) ScheduleLinkChange(at simtime.Time, link netgraph.LinkID, up bool) {
	s.flow.ScheduleLinkChange(at, link, up)
}

// ScheduleLinkDegrade schedules a link-model change across both engines:
// the flow engine applies it (capacity re-scale, TCP loss caps) to the
// shared Set, which the packet engine reads per frame — one channel,
// both fidelities. Passing nil m restores the pristine link.
func (s *Simulator) ScheduleLinkDegrade(at simtime.Time, link netgraph.LinkID, m linkmodel.Model) {
	s.flow.ScheduleLinkDegrade(at, link, m)
}

// ScheduleSwitchChange schedules a switch crash or restart across both
// engines (table wipe on the shared network, packet flushes, PortStatus).
func (s *Simulator) ScheduleSwitchChange(at simtime.Time, sw netgraph.NodeID, up bool) {
	s.flow.ScheduleSwitchChange(at, sw, up)
}

// ScheduleControllerChange schedules a controller detach or reattach. The
// controller attaches to the flow engine, whose gate also covers packet
// punts (they route through the same control plane via the punt sink); on
// reattach, both engines' parked work re-announces.
func (s *Simulator) ScheduleControllerChange(at simtime.Time, attached bool) {
	s.flow.ScheduleControllerChange(at, attached)
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

// Observe registers an observer of applied network dynamics. Topology and
// control-plane changes apply once, at the flow engine (which owns the
// shared state flips), so observers register there.
func (s *Simulator) Observe(fn simevent.Observer) { s.flow.Observe(fn) }

// SetRecordSink streams every merged stats.FlowRecord to sink in load
// (trace) order — the same records, in the same order,
// Collector().Flows() would have held. Records are renumbered and
// delivered incrementally as flows finalize: both sub-engines run with
// their own sinks installed and evict per-flow state as they go, so a
// multi-million-flow hybrid run holds no retained record set on either
// side of the merge. Delivery is gated through a reorder buffer keyed by
// trace index (a record emits once every lower trace index has emitted),
// which in practice stays near-empty because completion order tracks
// start order. Install before Run.
func (s *Simulator) SetRecordSink(sink func(stats.FlowRecord)) { s.sink = sink }

// SetProgress arms progress reporting off the shared kernel's pre-advance
// path: fn receives a simevent.Progress at most once per `every` of
// virtual time. Install before Run.
func (s *Simulator) SetProgress(every simtime.Duration, fn simevent.ProgressFunc) {
	simevent.ArmProgress(s.k, every, fn)
}

// Topology returns the simulated topology (shared by both engines).
func (s *Simulator) Topology() *netgraph.Topology { return s.cfg.Topology }

// Network exposes the shared data-plane state.
func (s *Simulator) Network() *dataplane.Network { return s.net }

// FlowCollector returns the flow engine's collector (control-plane
// counters, link-utilization series).
func (s *Simulator) FlowCollector() *stats.Collector { return s.flow.Collector() }

// PacketCollector returns the packet engine's collector.
func (s *Simulator) PacketCollector() *stats.Collector { return s.pkt.Collector() }

// PacketsForwarded reports the packet engine's forwarded-hop count.
func (s *Simulator) PacketsForwarded() uint64 { return s.pkt.PacketsForwarded() }

// Split reports how many loaded demands went to each engine.
func (s *Simulator) Split() (packetFlows, flowFlows int) {
	return len(s.pktIdx), len(s.flowIdx)
}

// Load splits the trace across the engines per cfg.PacketLevel. Call any
// number of times before Run; the selector index is cumulative.
func (s *Simulator) Load(tr traffic.Trace) {
	for _, d := range tr {
		s.loadDemand(d)
	}
}

// loadDemand routes one demand to its engine and records the load-order
// bookkeeping — the shared step of eager Load and streamed ingestion.
func (s *Simulator) loadDemand(d traffic.Demand) {
	if s.cfg.PacketLevel != nil && s.cfg.PacketLevel(s.loaded, d) {
		s.pkt.Load(traffic.Trace{d})
		s.pktIdx = append(s.pktIdx, s.loaded)
	} else {
		s.flow.InjectAt(d)
		s.flowIdx = append(s.flowIdx, s.loaded)
		s.flowStarts = append(s.flowStarts, d.Start)
	}
	s.loaded++
}

// SetTraceReader streams the workload in from r instead of (or after)
// eager Load calls: demands are pulled one at a time as virtual time
// reaches them and split across the engines exactly as Load would, so
// arbitrarily long traces ingest with one demand buffered. r must yield
// nondecreasing Start times; a reader error stops ingestion and is
// returned by Run (or TraceErr). The ingest event carries the flow
// engine's arrival order key, and each engine's first per-flow event
// follows it under the sub-engine FIFO/key contracts, so a streamed run
// reproduces the eager run's records byte for byte. Install before Run.
func (s *Simulator) SetTraceReader(r traffic.Reader) {
	if s.begun {
		panic("hybrid: SetTraceReader after Run")
	}
	s.reader = r
}

// TraceErr reports the first trace-reader failure, if any (also folded
// into Run's error).
func (s *Simulator) TraceErr() error { return s.readerErr }

// pullNext buffers the reader's next demand as an ingest event at its
// start time — one outstanding demand, the bounded-lookahead invariant.
func (s *Simulator) pullNext() {
	d, err := s.reader.Next()
	if err != nil {
		if err != io.EOF {
			s.readerErr = err
		}
		return
	}
	if d.Start < s.readerLast {
		s.readerErr = fmt.Errorf("hybrid: trace reader went backwards (%v after %v): %w",
			d.Start, s.readerLast, traffic.ErrTraceOrder)
		return
	}
	s.readerLast = d.Start
	s.k.Schedule(&ingestEvent{s: s, at: d.Start, d: d})
}

// ingestEvent loads one streamed demand at its start instant and pulls
// the next. Its order key is the flow engine's arrival key: a flow-level
// demand's arrival follows it FIFO under the same key, and a
// packet-level demand's first send sorts later at the same instant by
// class — both exactly where the eager-loaded run dispatches them.
type ingestEvent struct {
	s  *Simulator
	at simtime.Time
	d  traffic.Demand
}

func (e *ingestEvent) Time() simtime.Time { return e.at }
func (e *ingestEvent) OrderKey() uint64   { return simcore.OrderKey(simcore.ClassData+0, 0) }
func (e *ingestEvent) Release()           {}
func (e *ingestEvent) Fire() {
	e.s.loadDemand(e.d)
	e.s.pullNext()
}

// Run executes both engines until the shared queue drains, virtual time
// passes until, or ctx is cancelled, and returns the merged collector
// (see Collector) — on cancellation a partial but consistent one,
// together with ctx.Err(). Run may be called once.
func (s *Simulator) Run(ctx context.Context, until simtime.Time) (*stats.Collector, error) {
	s.begun = true
	s.startStream()
	s.flow.Begin()
	s.pkt.Begin()
	if s.reader != nil {
		s.pullNext()
	}
	err := s.k.RunContext(ctx, until)
	s.flow.Finish()
	s.pkt.Finish()
	s.finishStream()
	if err == nil {
		err = s.readerErr
	}
	s.merged = s.buildCollector()
	return s.merged, err
}

// startStream arms incremental streamed delivery when a record sink is
// installed: both sub-engines get sinks that renumber each record to its
// trace ID and hand it to the reorder buffer, and (for eager loads) the
// flow engine's arrival-rank → trace-index map is precomputed — the same
// map the retained Records() derives by stable-sorting after the fact.
func (s *Simulator) startStream() {
	if s.sink == nil {
		return
	}
	s.streaming = true
	s.streamCol = stats.NewCollector(0)
	s.streamCol.SetFlowSink(s.sink)
	s.streamPending = make(map[int]stats.FlowRecord)
	if s.reader == nil {
		order := make([]int, len(s.flowIdx))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return s.flowStarts[order[a]] < s.flowStarts[order[b]]
		})
		s.flowRank = make([]int, len(order))
		for i, o := range order {
			s.flowRank[i] = s.flowIdx[o]
		}
	}
	s.flow.SetRecordSink(func(r stats.FlowRecord) {
		if idx, ok := s.flowTraceIndex(r.ID); ok {
			s.streamEmit(idx, r)
		}
	})
	s.pkt.SetRecordSink(func(r stats.FlowRecord) {
		if r.ID >= 1 && int(r.ID) <= len(s.pktIdx) {
			s.streamEmit(s.pktIdx[r.ID-1], r)
		}
	})
}

// flowTraceIndex maps a flow-engine record ID to its trace index. Reader
// ingestion delivers demands in nondecreasing start order, so the flow
// engine's arrival order equals ingestion order and flowIdx itself is
// the map; eager loads use the precomputed rank map. IDs outside either
// map (possible only on partial, canceled runs) report !ok.
func (s *Simulator) flowTraceIndex(id int64) (int, bool) {
	if s.reader != nil {
		if id < 1 || int(id) > len(s.flowIdx) {
			return 0, false
		}
		return s.flowIdx[id-1], true
	}
	if id < 1 || int(id) > len(s.flowRank) {
		return 0, false
	}
	return s.flowRank[id-1], true
}

// streamEmit delivers one renumbered record in load order: records ahead
// of the next expected trace index park in the reorder buffer and drain
// the moment the gap closes.
func (s *Simulator) streamEmit(idx int, r stats.FlowRecord) {
	r.ID = int64(idx + 1)
	if idx != s.streamNext {
		s.streamPending[idx] = r
		return
	}
	s.streamCol.AddFlow(r)
	s.streamCol.CountOutcome(r)
	s.streamNext++
	for {
		r2, ok := s.streamPending[s.streamNext]
		if !ok {
			return
		}
		delete(s.streamPending, s.streamNext)
		s.streamCol.AddFlow(r2)
		s.streamCol.CountOutcome(r2)
		s.streamNext++
	}
}

// finishStream flushes records still parked behind a trace index that
// never produced one — a demand past the time bound, or a canceled run —
// in ascending trace order, which keeps the overall stream identical to
// the retained Records() sequence (it skips the same holes).
func (s *Simulator) finishStream() {
	if !s.streaming || len(s.streamPending) == 0 {
		return
	}
	keys := make([]int, 0, len(s.streamPending))
	for k := range s.streamPending {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		r := s.streamPending[k]
		delete(s.streamPending, k)
		s.streamCol.AddFlow(r)
		s.streamCol.CountOutcome(r)
	}
}

// RunUntil is Run without a lifecycle: no cancellation, no error.
//
// Deprecated: use Run with a context.
func (s *Simulator) RunUntil(until simtime.Time) *stats.Collector {
	col, _ := s.Run(context.Background(), until)
	return col
}

// Records returns one record per demand that produced one, ordered and
// re-numbered by load order (ID = trace index + 1) regardless of which
// engine simulated it — the comparable unit for fidelity sweeps. The
// load-order map derives from whatever bookkeeping exists at call time,
// so after a canceled Run it covers the partial trace: records whose IDs
// fall outside the maps are skipped, never a panic. With a record sink
// installed the sub-engines retain nothing and Records reports empty —
// the records went to the sink.
func (s *Simulator) Records() []stats.FlowRecord {
	out := make([]stats.FlowRecord, 0, len(s.flowIdx)+len(s.pktIdx))
	// The flow engine numbers flows in arrival order: stable-sort the
	// flow-level subset by start time to recover trace indices.
	order := make([]int, len(s.flowIdx))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return s.flowStarts[order[a]] < s.flowStarts[order[b]] })
	for _, r := range s.flow.Collector().Flows() {
		if r.ID < 1 || int(r.ID) > len(order) {
			continue
		}
		r.ID = int64(s.flowIdx[order[r.ID-1]] + 1)
		out = append(out, r)
	}
	// The packet engine numbers flows in load order directly.
	for _, r := range s.pkt.Collector().Flows() {
		if r.ID < 1 || int(r.ID) > len(s.pktIdx) {
			continue
		}
		r.ID = int64(s.pktIdx[r.ID-1] + 1)
		out = append(out, r)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Collector merges both engines' output: the flow engine's link series and
// control counters, every Records entry, and the kernel's dispatch count
// as EventsRun (the hybrid's total work metric). After Run it returns the
// collector Run built; before, it assembles a fresh snapshot.
func (s *Simulator) Collector() *stats.Collector {
	if s.merged != nil {
		return s.merged
	}
	// Mid-run snapshots cannot duplicate records in the stream: with a
	// sink installed the records flow through streamEmit as flows
	// finalize, and buildCollector only folds the accumulated tallies.
	return s.buildCollector()
}

// buildCollector assembles the merged collector. With a record sink the
// records were already streamed incrementally (streamEmit), so only the
// outcome tallies fold in; otherwise the retained Records() accumulate.
func (s *Simulator) buildCollector() *stats.Collector {
	fc, pc := s.flow.Collector(), s.pkt.Collector()
	col := stats.NewCollector(s.cfg.StatsEvery)
	for _, smp := range fc.LinkSeries() {
		col.AddLinkSample(smp)
	}
	if s.streaming {
		col.FlowsCompleted = s.streamCol.FlowsCompleted
		col.FlowsDropped = s.streamCol.FlowsDropped
		col.FlowsLooped = s.streamCol.FlowsLooped
	} else {
		for _, r := range s.Records() {
			col.AddFlow(r)
			col.CountOutcome(r)
		}
	}
	col.FlowsStarted = fc.FlowsStarted + pc.FlowsStarted
	col.PacketIns = fc.PacketIns + pc.PacketIns
	col.FlowMods = fc.FlowMods
	col.RateChanges = fc.RateChanges
	col.PathChanges = fc.PathChanges
	col.PacketsLost = fc.PacketsLost + pc.PacketsLost
	col.PacketsCorrupted = fc.PacketsCorrupted + pc.PacketsCorrupted
	col.PacketsSent = fc.PacketsSent + pc.PacketsSent
	col.Retransmits = fc.Retransmits + pc.Retransmits
	for _, at := range fc.RerouteTimes() {
		col.AddReroute(at)
	}
	col.EventsRun = s.k.Dispatched()
	return col
}
