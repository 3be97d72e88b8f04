// Package packetsim is the packet-granularity simulator Horse is evaluated
// against — and, since the simcore rebase, a first-class engine on the
// shared simulation kernel. It runs the *same* topology and the *same*
// OpenFlow switch state as the flow-level engine, but models every packet:
// store-and-forward switching, drop-tail output queues, link serialization
// and propagation delays, and a window-based TCP sender (slow start + AIMD
// with retransmission). It exists to quantify the central trade-off the
// paper leans on (following fs-sdn): flow-level simulation gives up
// per-packet effects in exchange for orders of magnitude less work — E3
// measures both sides of that bargain on identical scenarios.
//
// The engine can also attach a control plane (the same flowsim.Controller
// interface the flow-level engine uses): a table miss becomes a
// latency-modeled PacketIn with the triggering packet buffered at the
// switch, FlowMods/MeterMods install into the shared dataplane state,
// and hard/idle timeouts expire — so reactive E1/E2-style scenarios run at
// packet granularity (E7). All of that is the flowsim.ControlPlane the
// engine attaches to; in hybrid runs a flow-level simulator attaches to
// the same plane, so both share one kernel, network and controller.
package packetsim

import (
	"math"

	"horse/internal/dataplane"
	"horse/internal/flowsim"
	"horse/internal/linkmodel"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simcore"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

// Packet sizes in bits.
const (
	DataPacketBits = 1500 * 8
	AckPacketBits  = 40 * 8
)

// Config parameterizes a packet-level run.
type Config struct {
	// Topology is required. A link with Delay <= 0 propagates frames in
	// 1 ns: the transmitter schedules each arrival when the frame is
	// queued, which keeps the dispatch order of the classic two-event
	// transmitter only if an arrival can never land in the instant of its
	// own departure.
	Topology *netgraph.Topology
	// QueuePackets is the per-output-port drop-tail queue capacity
	// (default 100 packets, the classic router default). It also bounds
	// the per-switch punt buffer when a controller is attached.
	QueuePackets int
	// Miss is the switch table-miss behavior. With MissController and a
	// Controller attached, misses punt (PacketIn + buffered packet);
	// without a controller, punted packets count and drop (the E3
	// pre-installed-state baseline).
	Miss dataplane.MissBehavior
	// StatsEvery samples link utilization at this period (0 disables).
	// The sampler keeps virtual time alive, so bound Run when sampling is
	// enabled (an unbounded Run would tick forever after traffic drains —
	// the E3 methodology samples the idle tail on purpose).
	StatsEvery simtime.Duration
	// RTOMin is the minimum retransmission timeout (default 200 ms).
	RTOMin simtime.Duration
	// Links is the per-link-direction degradation registry: frames are
	// corrupted at the transmitter per the direction's model (counted as
	// PacketsCorrupted, separate from outage loss) and transmit rates
	// scale by the model's RateScale. Nil means every link is pristine;
	// hybrid runs pass the same Set to both engines. Degradation
	// composes with FailureState: a dead link loses packets outright
	// whatever its model says.
	Links *linkmodel.Set

	// Controller attaches a control plane (nil means none). The same
	// implementations that drive the flow-level engine work here.
	Controller flowsim.Controller
	// ControlLatency delays every switch↔controller message (default 1ms).
	ControlLatency simtime.Duration
}

// Simulator is the packet-level engine, attached to a flowsim.Driver it
// embeds.
type Simulator struct {
	*flowsim.Driver
	cfg     Config
	plane   *flowsim.ControlPlane
	topo    *netgraph.Topology
	net     *dataplane.Network
	k       *simcore.Kernel
	pool    simcore.Pool[event]
	packets packetPool

	// flows holds every started flow by dense index (nil once evicted).
	flows []*pktFlow
	col   *stats.Collector

	counter uint64 // packets forwarded

	// Dense per-link-direction state, indexed by dir (link<<1 | fromB).
	ports     []*outPort
	txBits    []float64 // bits serialized onto the wire per direction
	rxBits    []float64 // bits observed arriving per direction
	lastTx    []float64 // txBits at the previous stats sample
	linkEpoch []uint64

	// dirAt maps (node, port) to the transmit direction index. hostTx is
	// each host's transmit direction on its access link (-1 for switches
	// and unattached hosts) and switches is net.Switches by NodeID — both
	// fixed at New, so the per-packet path probes no map.
	dirAt    [][]int32
	hostTx   []int32
	switches []*dataplane.Switch

	// memo holds each switch's forward-decision memo and memoGen the
	// dataplane.Switch.Gen it was filled under; see memoSlot. Allocated
	// on a switch's first memoizable decision.
	memo    []*[memoSlots]memoSlot
	memoGen []uint64
	// decision is the one Decision a memo miss decides into (forward).
	decision dataplane.Decision

	// extLoad is the external (flow-level) load per transmit direction in
	// a hybrid run (0 = none); the transmitter sees only the residual
	// capacity.
	extLoad []float64

	// links is the control plane's degradation registry (empty when no
	// model is installed).
	links *linkmodel.Set

	// Per-switch state behind the control plane: packets parked awaiting
	// a controller verdict, and the meters' token buckets.
	punted         [][]puntedPkt
	meters         []map[openflow.MeterID]*meterBucket
	statsReqAt     []simtime.Time // last PortStatsRequest per tx direction
	statsReqTxBits []float64      // tx bits at that request
	statsReqRxBits []float64      // rx bits at that request

	// Per-flow accounting: PacketIns triggered, and (UDP) packets
	// resolved — delivered or dropped — with the last resolution instant,
	// which is what dates a CBR completion.
	puntsBy []int32
	udpRes  []int32
	udpLast []simtime.Time

	// liveBy counts packet births minus deaths per flow: the flow's
	// packets still in flight. finHints queues flow indices whose
	// finalize condition may have flipped, drained after each dispatch.
	liveBy   []int32
	finHints []int32

	// records takes every flow's record: the Driver's emitter. A flow
	// whose sender has quiesced, whose packets have all resolved, and
	// whose record is time-invariant is emitted the moment that holds, and
	// its state evicted; Finish emits the rest.
	records func(stats.FlowRecord)

	begun    bool
	finished bool
}

// outPort is a link-direction transmitter: a drop-tail FIFO of the frames
// that have not left yet, each with the instant its serialization ends.
// The front frame is in service; the rest start back to back behind it.
// ring is a power-of-two circular buffer holding n frames from head.
type outPort struct {
	link *netgraph.Link
	from netgraph.NodeID
	// to and toPort are the receiving end; toHost says it is a host.
	to     netgraph.NodeID
	toPort netgraph.PortNum
	toHost bool
	delay  simtime.Duration // propagation delay, at least 1 ns
	ring   []txFrame
	head   int
	n      int
}

// txFrame is one queued frame and the end of its serialization.
type txFrame struct {
	p   *packet
	end simtime.Time
}

// at returns the i-th queued frame (0 is the one in service).
func (op *outPort) at(i int) *txFrame { return &op.ring[(op.head+i)&(len(op.ring)-1)] }

// push appends a frame, doubling the ring when it is full.
func (op *outPort) push(f txFrame) {
	if op.n == len(op.ring) {
		ring := make([]txFrame, max(2, 2*len(op.ring)))
		for i := 0; i < op.n; i++ {
			ring[i] = *op.at(i)
		}
		op.ring, op.head = ring, 0
	}
	op.n++
	*op.at(op.n - 1) = f
}

// pop removes and returns the front frame.
func (op *outPort) pop() txFrame {
	f := op.ring[op.head]
	op.ring[op.head] = txFrame{}
	op.head = (op.head + 1) & (len(op.ring) - 1)
	op.n--
	return f
}

// packet stays in the 48-byte size class: the flags and the VLAN ride in
// what used to be padding.
//
// Packets come from the engine's packetPool, and each has exactly one owner
// at a time: the host sending it, one port ring together with its queued
// arrival, or one switch's punt buffer. It is freed exactly once — by the
// arrival that delivers it, by the drop that kills it outside a ring
// (dropAt on a live packet), or, for a dead frame, by its no-op arrival.
type packet struct {
	flow    *pktFlow // nil once freed
	seq     int      // data sequence number (packet index)
	ackSeq  int      // cumulative ACK (next expected seq)
	bits    float64
	ack     bool // true for ACKs
	retrans bool
	// dead marks a frame whose scheduled arrival must not happen — a link
	// failure flushed it, its link model corrupted it, or a rate change
	// re-timed it under a fresh copy: the arrival is then a no-op that
	// frees it (whoever set the flag did the accounting).
	dead bool
	// vlan is the VLAN ID the packet carries (0 = untagged), rewritten by
	// set-/pop-VLAN actions hop by hop like Network.Walk's key.
	vlan uint16
}

// packetPool is the engine's packet free list. allocated counts the
// packets it ever made: once a run has quiesced, every one is back on the
// list.
type packetPool struct {
	free      []*packet
	allocated int
}

// get returns a zeroed packet.
func (pp *packetPool) get() *packet {
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free = pp.free[:n-1]
		return p
	}
	pp.allocated++
	return new(packet)
}

// put zeroes p and returns it to the list. A freed packet has no flow, so
// a second put of the same packet panics instead of handing it out twice.
func (pp *packetPool) put(p *packet) {
	if p.flow == nil {
		panic("packetsim: packet freed twice")
	}
	*p = packet{}
	pp.free = append(pp.free, p)
}

// puntedPkt is a packet parked at a switch awaiting control-plane action.
type puntedPkt struct {
	pkt  *packet
	in   netgraph.PortNum
	miss bool // table miss (vs explicit output:controller)
}

// pktFlow is the state of one transfer, split into a sender side and a
// receiver side that communicate only through packets; completion is the
// earliest of the sides' completion candidates (see assemble).
type pktFlow struct {
	id      int64 // record ID: load index + 1
	idx     int32 // dense index: the flow's rank in load order
	demand  traffic.Demand
	packets int // total data packets to send (finite flows)

	arrival simtime.Time

	// Sender-owned state.
	started       bool // first send event fired (counts FlowsStarted once)
	srcDead       bool // source host has no attached switch
	senderStopped bool // deadline reached; no further emissions
	// deadlineDoneAt is the completion candidate the deadline path sets:
	// the first send tick at or after arrival+Duration (Never otherwise).
	deadlineDoneAt simtime.Time

	// Sender TCP state.
	tcp      bool
	cwnd     float64 // in packets
	ssthresh float64
	nextSeq  int // next new sequence to send
	sendBase int // lowest unacked seq
	dupAcks  int
	inFlight int
	rtoAt    simtime.Time
	rtoGen   uint64 // backstop: invalidates stale evRTO events
	// rto is the outstanding retransmission timer: every re-arm cancels
	// the previous event outright instead of leaving a corpse to fire as
	// a gen-stamped no-op.
	rto simcore.Timer

	// Receiver-owned state.
	recvNext int          // next expected seq (TCP cumulative ACK edge)
	received map[int]bool // TCP out-of-order buffer, made at the first gap
	// recvDoneAt is the completion candidate the receiver sets when every
	// data packet has arrived (Never otherwise).
	recvDoneAt simtime.Time

	// Sender CBR state.
	cbrInterval simtime.Duration
	sentBits    float64

	// done marks a flow already recorded (and evicted) by the incremental
	// finalize path.
	done bool
}

// deadline returns the flow's absolute deadline, or Never.
func (f *pktFlow) deadline() simtime.Time {
	if f.demand.Duration <= 0 {
		return simtime.Never
	}
	return f.arrival.Add(f.demand.Duration)
}

// event kinds
type evKind uint8

const (
	evSend evKind = iota // sender may emit (CBR tick or window opened)
	evArriveNode
	evRTO
	evStats
)

// event is the pooled kernel envelope of this engine, 48 bytes. dir is the
// link direction an arrival traveled, or evStats's node. Control-plane
// events are the flowsim.ControlPlane's own, and a flow's first send is
// its arrival cursor's event.
type event struct {
	at   simtime.Time
	sim  *Simulator
	flow *pktFlow
	pkt  *packet
	gen  uint64
	dir  int32
	kind evKind
}

func (e *event) Time() simtime.Time { return e.at }

// txDoneKey is where the two-event transmitter's serialization-done event
// sorted at its instant; a frame whose serialization ends exactly now has
// left dir for an event that orders after it (see settle).
func txDoneKey(dir int32) uint64 { return simcore.OrderKey(simcore.ClassData+1, uint32(dir)) }

// OrderKey implements eventq.Keyed: the deterministic tie-break of
// same-instant events. Keys derive from stable entities (link direction,
// node, flow index), never from schedule history, so the heap oracle
// dispatches the same order as the wheel. ClassData+1 is reserved for the
// frame departures the transmitter dates without events (txDoneKey).
func (e *event) OrderKey() uint64 {
	switch e.kind {
	case evArriveNode:
		return simcore.OrderKey(simcore.ClassData+0, uint32(e.dir))
	case evSend:
		return FirstSendKey(int(e.flow.idx))
	case evRTO:
		return simcore.OrderKey(simcore.ClassData+3, uint32(e.flow.idx))
	default: // evStats
		return simcore.OrderKey(simcore.ClassData+4, uint32(e.dir))
	}
}

// FirstSendKey is the order key of the sends of the flow with dense index
// dense, the first of which is the flow's first event: flows sending at
// one instant send in dense-index order.
func FirstSendKey(dense int) uint64 { return simcore.OrderKey(simcore.ClassData+2, uint32(dense)) }

// Fire implements simcore.Event. After the dispatch the engine drains
// queued finalize hints: end-of-dispatch is the earliest point where a
// flow's just-flipped completion state is fully written.
func (e *event) Fire() {
	s := e.sim
	s.dispatch(e)
	s.drainFin()
}

// Release implements simcore.Event: recycle the envelope. Generation
// stamps (pktFlow.rtoGen) checked in dispatch keep recycled envelopes from
// acting for their former flows.
func (e *event) Release() {
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

// New builds a packet-level run: a flowsim.Driver whose one engine is
// the simulator, recording in load order. A demand's first event is its
// flow's first send, and its dense index is its load index.
func New(cfg Config) *Simulator {
	s := NewOn(flowsim.NewDriver("packetsim", flowsim.Config{
		Topology: cfg.Topology, Miss: cfg.Miss, Links: cfg.Links, StatsEvery: cfg.StatsEvery,
		Controller: cfg.Controller, ControlLatency: cfg.ControlLatency,
	}, true), cfg)
	s.SetIntake(flowsim.Intake{Key: FirstSendKey, Admit: s.admitOwn})
	return s
}

// NewOn builds a packet-level simulator attached to d's control plane,
// whose kernel, network, link registry, controller, control latency and
// collector it shares with the plane's other engines; cfg's Topology,
// Miss, Controller, ControlLatency and Links are the Driver's and not
// read here. Every record goes to the Driver's emitter as its flow
// finalizes, in no particular order.
func NewOn(d *flowsim.Driver, cfg Config) *Simulator {
	if cfg.QueuePackets == 0 {
		cfg.QueuePackets = 100
	}
	if cfg.RTOMin == 0 {
		cfg.RTOMin = 200 * simtime.Millisecond
	}
	p := d.Plane()
	net := p.Network()
	topo := net.Topo
	nDirs := 2 * topo.NumLinks()
	nNodes := topo.NumNodes()
	s := &Simulator{
		Driver:  d,
		cfg:     cfg,
		plane:   p,
		topo:    topo,
		net:     net,
		k:       p.Kernel(),
		col:     p.Collector(),
		records: d.Emitter(),

		ports:     make([]*outPort, nDirs),
		txBits:    make([]float64, nDirs),
		rxBits:    make([]float64, nDirs),
		lastTx:    make([]float64, nDirs),
		linkEpoch: make([]uint64, nDirs),
		extLoad:   make([]float64, nDirs),

		links: p.Links(),

		punted:         make([][]puntedPkt, nNodes),
		meters:         make([]map[openflow.MeterID]*meterBucket, nNodes),
		statsReqAt:     make([]simtime.Time, nDirs),
		statsReqTxBits: make([]float64, nDirs),
		statsReqRxBits: make([]float64, nDirs),
	}
	// (node, port) → transmit direction index. A node's ports are 1..n,
	// each with a link, so its row has n+1 entries (-1 at port 0); every
	// row is cut from one array.
	s.dirAt = make([][]int32, nNodes)
	cells := make([]int32, nNodes+nDirs)
	for n := range s.dirAt {
		w := topo.Node(netgraph.NodeID(n)).NumPorts() + 1
		s.dirAt[n], cells = cells[:w:w], cells[w:]
		s.dirAt[n][0] = -1
	}
	for _, l := range topo.Links() {
		s.dirAt[l.A][l.APort] = int32(l.ID) << 1
		s.dirAt[l.B][l.BPort] = int32(l.ID)<<1 | 1
	}
	s.hostTx = make([]int32, nNodes)
	s.switches = make([]*dataplane.Switch, nNodes)
	s.memo = make([]*[memoSlots]memoSlot, nNodes)
	s.memoGen = make([]uint64, nNodes)
	for n := netgraph.NodeID(0); int(n) < nNodes; n++ {
		s.hostTx[n] = -1
		s.switches[n] = net.Switches[n]
		if topo.Node(n).Kind != netgraph.KindHost {
			continue
		}
		if sw, swPort := topo.AttachedSwitch(n); sw >= 0 {
			s.hostTx[n] = s.dirFrom(n, topo.LinkAt(sw, swPort).PortAt(n))
		}
	}
	p.Attach(s)
	return s
}

// dirFrom returns the transmit direction index of (node, port), or -1.
func (s *Simulator) dirFrom(n netgraph.NodeID, p netgraph.PortNum) int32 {
	row := s.dirAt[n]
	if int(p) >= len(row) {
		return -1
	}
	return row[p]
}

// dirLink returns the link a direction index belongs to.
func (s *Simulator) dirLink(d int32) *netgraph.Link { return s.topo.Link(netgraph.LinkID(d >> 1)) }

// dirFromNode returns the transmitting endpoint of a direction.
func dirFromNode(l *netgraph.Link, d int32) netgraph.NodeID {
	if d&1 == 0 {
		return l.A
	}
	return l.B
}

// PacketsForwarded returns how many packet hops were simulated — the work
// metric E3 reports next to wall-clock time.
func (s *Simulator) PacketsForwarded() uint64 { return s.counter }

// PacketsHeld returns how many packets the run holds: queued, propagating,
// parked at a switch, or dead frames whose arrival has not fired. It is
// zero once a run has quiesced — every packet has reached its one free.
func (s *Simulator) PacketsHeld() int { return s.packets.allocated - len(s.packets.free) }

// EventsDispatched returns the number of kernel events fired. Valid after
// Run returns.
func (s *Simulator) EventsDispatched() uint64 { return s.k.Dispatched() }

// ShardLoads returns nil: the engine always runs serial.
//
// Deprecated: it reported the per-shard dispatch histogram of the sharded
// executor, which was removed because the serial loop beat it at every
// shard count measured.
func (s *Simulator) ShardLoads() []uint64 { return nil }

// admitOwn admits a demand of a packet-level run, whose dense index is
// its load index.
func (s *Simulator) admitOwn(d *traffic.Demand, idx int) { s.Admit(d, idx, int32(idx)) }

// Admit starts demand d now as the flow with record ID idx + 1 and dense
// index dense, and sends its first packets: the caller dispatches at the
// flow's first-send position, d.Start under FirstSendKey(dense), as an
// arrival cursor's event does.
func (s *Simulator) Admit(d *traffic.Demand, idx int, dense int32) {
	s.trySend(s.newFlow(d, idx, dense))
}

// AdmitQueued builds the flow like Admit but queues its first send at
// d.Start under FirstSendKey(dense), for a caller that dispatches ahead
// of that position.
func (s *Simulator) AdmitQueued(d *traffic.Demand, idx int, dense int32) {
	s.sched(event{at: d.Start, kind: evSend, flow: s.newFlow(d, idx, dense)})
}

// newFlow builds demand d's flow under record ID idx + 1 and dense index
// dense, growing the per-flow tables to hold it.
func (s *Simulator) newFlow(d *traffic.Demand, idx int, dense int32) *pktFlow {
	f := &pktFlow{
		id:       int64(idx) + 1,
		idx:      dense,
		demand:   *d,
		arrival:  d.Start,
		tcp:      d.TCP,
		cwnd:     10,
		ssthresh: math.Inf(1),
		rtoAt:    simtime.Never,

		deadlineDoneAt: simtime.Never,
		recvDoneAt:     simtime.Never,
	}
	if math.IsInf(d.SizeBits, 1) {
		// Open-ended CBR flows run until their deadline.
		f.packets = math.MaxInt32
	} else {
		f.packets = int(math.Ceil(d.SizeBits / DataPacketBits))
		if f.packets == 0 {
			f.packets = 1
		}
	}
	if !f.tcp && d.RateBps > 0 && !math.IsInf(d.RateBps, 1) {
		f.cbrInterval = simtime.TransferTime(DataPacketBits, d.RateBps)
	}
	if n := int(dense) + 1 - len(s.flows); n > 0 {
		s.flows = append(s.flows, make([]*pktFlow, n)...)
		s.puntsBy = append(s.puntsBy, make([]int32, n)...)
		s.udpRes = append(s.udpRes, make([]int32, n)...)
		s.udpLast = append(s.udpLast, make([]simtime.Time, n)...)
		s.liveBy = append(s.liveBy, make([]int32, n)...)
	}
	s.flows[dense] = f
	return f
}

// Begin implements flowsim.Attachment: it arms stats sampling.
func (s *Simulator) Begin() {
	s.begun = true
	if s.cfg.StatsEvery > 0 {
		s.sched(event{at: simtime.Time(s.cfg.StatsEvery), kind: evStats})
	}
}

// Finish implements flowsim.Attachment: it puts every flow the
// incremental finalize path has not into the record emitter. Every port
// settles first, so a frame that left by the horizon has its corruption
// verdict counted even though its arrival lies beyond.
func (s *Simulator) Finish() {
	for dir, op := range s.ports {
		if op != nil {
			s.settle(int32(dir), op)
		}
	}
	s.drainFin()
	s.finished = true
	for _, f := range s.flows {
		if f != nil {
			r, _ := s.assemble(f)
			s.records(r)
		}
	}
}

func (s *Simulator) dispatch(e *event) {
	switch e.kind {
	case evSend:
		s.trySend(e.flow)
	case evArriveNode:
		p, op := e.pkt, s.ports[e.dir]
		if !p.dead {
			// The frame retires from its ring before anything may free
			// it, drawing its corruption verdict if a model is installed.
			s.settle(e.dir, op)
		}
		if p.dead {
			s.packets.put(p)
			return
		}
		if e.gen != s.linkEpoch[e.dir] {
			// The link died under the packet mid-propagation.
			s.losePacket(p)
			return
		}
		s.rxBits[e.dir] += p.bits
		if op.toHost {
			s.deliver(p, op.to)
			s.packets.put(p)
			return
		}
		s.counter++
		s.forward(p, op.to, op.toPort, false)
	case evRTO:
		// armRTO cancels before re-arming, so at most one RTO event is in
		// flight per flow and the firing one is what f.rto points at.
		e.flow.rto = simcore.Timer{}
		if e.flow.rtoGen == e.gen && !e.flow.srcDead && !e.flow.senderStopped {
			s.handleRTO(e.flow)
		}
	case evStats:
		s.sampleStats()
		s.sched(event{at: s.k.Now().Add(s.cfg.StatsEvery), kind: evStats, dir: e.dir})
	}
}
