package packetsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

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

// This file pins the engine's transmitter — a FIFO whose departures are
// fixed at enqueue (enqueue/settle/retime) — to the two-event transmitter
// it replaced. refNet below is that transmitter kept as a reference
// model: every frame costs a serialization-done event that pops the queue
// head, draws corruption, schedules the arrival and starts the next frame,
// with the engine's event classes and order keys. portScenario drives the
// engine and the model with the same UDP flows, link failures, link-model
// changes, external-load changes, stats sampling and port-stats polls, and
// everything observable must come out identical.

// portScenario is one stimulus. Hosts and switches are named by index into
// the scenario topology (see build).
type portScenario struct {
	queue      int
	seed       uint64               // link-model corruption seed
	edge       [5]netgraph.LinkSpec // h0-s0, h1-s0, h2-s0, s1-h3, s1-h4
	trunk      netgraph.LinkSpec    // s0-s1
	flows      []scnFlow
	links      []scnLink
	degrades   []scnDegrade
	loads      []scnLoad   // serial runs only
	injects    []scnInject // serial runs only
	polls      []scnPoll
	statsEvery simtime.Duration
	until      simtime.Time
}

type scnFlow struct {
	src, dst int // host indices 0..4
	start    simtime.Time
	packets  int
	rateBps  float64
}

type scnLink struct {
	at   simtime.Time
	link int // 0..4 edge, 5 trunk
	up   bool
}

type scnDegrade struct {
	at   simtime.Time
	link int
	m    linkmodel.Model // nil restores
}

// scnLoad sets a direction's external load from a controller-timer event,
// or with late from a data-class event (lateKey) — the two sides of the
// departure position a rate change can land on, as the hybrid coupler's
// callers do.
type scnLoad struct {
	at   simtime.Time
	link int
	fwd  bool
	bps  float64
	late bool
}

// lateKey orders a data-class call after every departure of its instant
// and after that instant's sends (ClassData+2 with an entity no flow has).
var lateKey = simcore.OrderKey(simcore.ClassData+2, ^uint32(0))

// keyedCall runs fn from a kernel event at `at` with order key `key`.
type keyedCall struct {
	at  simtime.Time
	key uint64
	fn  func()
}

func (c *keyedCall) Time() simtime.Time { return c.at }
func (c *keyedCall) OrderKey() uint64   { return c.key }
func (c *keyedCall) Fire()              { c.fn() }
func (c *keyedCall) Release()           {}

// scnInject emits one extra packet of a flow from a controller-timer class
// event, so a host port sees enqueues that order before its departures
// (like the ACK-clocked sends of a TCP flow) next to the evSend ones that
// order after them. A flow has no state before its first send, so an
// inject at or before the flow's start does nothing.
type scnInject struct {
	at   simtime.Time
	flow int
}

type scnPoll struct {
	at simtime.Time
	sw int // 0 or 1
}

// build creates the scenario topology: three hosts under s0, two under s1,
// one trunk. Link IDs follow the scenario's link indices.
func (sc *portScenario) build() (*netgraph.Topology, []netgraph.NodeID, []netgraph.NodeID) {
	topo := netgraph.New()
	sw := []netgraph.NodeID{topo.AddSwitch("s0"), topo.AddSwitch("s1")}
	var hosts []netgraph.NodeID
	for i := 0; i < 5; i++ {
		hosts = append(hosts, topo.AddHost(fmt.Sprintf("h%d", i)))
	}
	for i, h := range hosts {
		at := sw[0]
		if i >= 3 {
			at = sw[1]
		}
		topo.Connect(h, at, sc.edge[i].BandwidthBps, sc.edge[i].Delay)
	}
	topo.Connect(sw[0], sw[1], sc.trunk.BandwidthBps, sc.trunk.Delay)
	return topo, hosts, sw
}

func (sc *portScenario) trace(hosts []netgraph.NodeID) traffic.Trace {
	var tr traffic.Trace
	for _, f := range sc.flows {
		tr = append(tr, cbr(hosts[f.src], hosts[f.dst], f.start, float64(f.packets)*DataPacketBits, f.rateBps))
	}
	return tr
}

// portOutcome is everything the two transmitters must agree on.
type portOutcome struct {
	records   []stats.FlowRecord
	samples   []stats.LinkSample
	polls     []openflow.PortStatsReply
	sent      uint64
	lost      uint64
	corrupted uint64
	dropped   uint64 // drop-tail overflows summed over ports
	hops      uint64
}

// pollRecorder is the controller of an engine run: it only records
// PortStatsReply messages.
type pollRecorder struct{ got []openflow.PortStatsReply }

func (*pollRecorder) Start(*flowsim.Context) {}
func (r *pollRecorder) Handle(_ *flowsim.Context, msg openflow.Message) {
	if m, ok := msg.(*openflow.PortStatsReply); ok {
		r.got = append(r.got, *m)
	}
}

// runEngine runs the scenario through the packet engine.
func (sc *portScenario) runEngine() portOutcome {
	sim, rec := sc.engine()
	col := mustRun(sim, sc.until)
	out := portOutcome{
		records: col.Flows(), samples: col.LinkSeries(), polls: rec.got,
		sent: col.PacketsSent, lost: col.PacketsLost, corrupted: col.PacketsCorrupted,
		dropped: col.PacketsQueueDropped, hops: sim.PacketsForwarded(),
	}
	return out
}

// engine builds the scenario's packet engine, ready to run.
func (sc *portScenario) engine() (*Simulator, *pollRecorder) {
	topo, hosts, sws := sc.build()
	links := linkmodel.NewSet(sc.seed, topo.NumLinks())
	rec := &pollRecorder{}
	sim := New(Config{
		Topology: topo, Miss: dataplane.MissDrop, QueuePackets: sc.queue,
		StatsEvery: sc.statsEvery, Links: links,
		Controller: rec, ControlLatency: simtime.Microsecond,
	})
	dataplane.InstallMACRoutes(sim.Network())
	sim.Load(sc.trace(hosts))
	for _, e := range sc.links {
		sim.ScheduleLinkChange(e.at, netgraph.LinkID(e.link), e.up)
	}
	for _, e := range sc.degrades {
		sim.ScheduleLinkDegrade(e.at, netgraph.LinkID(e.link), e.m)
	}
	for _, e := range sc.polls {
		sim.at(e.at, &openflow.PortStatsRequest{Switch: sws[e.sw], Port: netgraph.NoPort})
	}
	for _, e := range sc.loads {
		e := e
		set := func() { sim.SetExternalLoad(netgraph.LinkID(e.link), e.fwd, e.bps) }
		if e.late {
			sim.k.Schedule(&keyedCall{at: e.at, key: lateKey, fn: set})
		} else {
			sim.timerAt(e.at, set)
		}
	}
	for _, e := range sc.injects {
		e := e
		sim.timerAt(e.at, func() {
			if e.flow < len(sim.flows) && sim.flows[e.flow] != nil {
				sim.emit(sim.flows[e.flow], 0, true)
			}
		})
	}
	return sim, rec
}

// ---- the two-event reference model ----

type refKind uint8

const (
	refSend refKind = iota
	refTxDone
	refArrive
	refStats
	refLink
	refDegrade
	refTimer
	refLate // refTimer keyed lateKey
	refPoll
)

type refEvent struct {
	at   simtime.Time
	key  uint64
	seq  uint64
	kind refKind
	dir  int32
	gen  uint64
	pkt  *refPkt
	flow int
	node netgraph.NodeID
	link netgraph.LinkID
	up   bool
	m    linkmodel.Model
	fn   func()
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

type refPkt struct {
	flow int
	bits float64
}

type refPort struct {
	link    *netgraph.Link
	from    netgraph.NodeID
	queue   []*refPkt
	busy    bool
	dropped uint64
	txGen   uint64
}

type refFlow struct {
	demand   traffic.Demand
	packets  int
	nextSeq  int
	interval simtime.Duration
	sentBits float64
	live     int // packets born minus packets resolved
	resolved int
	last     simtime.Time
	// done mirrors tryFinalize: sender quiesced, nothing in flight, every
	// packet resolved — the record froze (and the engine evicted the flow)
	// at end.
	done bool
	end  simtime.Time
}

type refNet struct {
	sc    *portScenario
	topo  *netgraph.Topology
	net   *dataplane.Network
	links *linkmodel.Set
	q     refQueue
	seq   uint64
	now   simtime.Time

	flows   []*refFlow
	ports   []*refPort
	txBits  []float64
	rxBits  []float64
	lastTx  []float64
	epoch   []uint64
	extLoad map[int32]float64
	reqAt   []simtime.Time
	reqTx   []float64
	reqRx   []float64

	out portOutcome
}

func (r *refNet) sched(e refEvent) {
	switch e.kind {
	case refLink, refDegrade:
		e.key = simcore.OrderKey(simcore.ClassTopoChange, uint32(e.link))
	case refPoll:
		e.key = simcore.OrderKey(simcore.ClassToSwitch, uint32(e.node))
	case refTimer:
		e.key = simcore.OrderKey(simcore.ClassTimer, 0)
	case refLate:
		e.key = lateKey
	case refArrive:
		e.key = simcore.OrderKey(simcore.ClassData+0, uint32(e.dir))
	case refTxDone:
		e.key = simcore.OrderKey(simcore.ClassData+1, uint32(e.dir))
	case refSend:
		e.key = simcore.OrderKey(simcore.ClassData+2, uint32(e.flow))
	case refStats:
		e.key = simcore.OrderKey(simcore.ClassData+4, 0)
	}
	r.seq++
	e.seq = r.seq
	heap.Push(&r.q, &e)
}

func (r *refNet) dirFrom(n netgraph.NodeID, p netgraph.PortNum) int32 {
	l := r.topo.LinkAt(n, p)
	if l == nil {
		return -1
	}
	if l.A == n {
		return int32(l.ID) << 1
	}
	return int32(l.ID)<<1 | 1
}

func (r *refNet) hostDir(h netgraph.NodeID) int32 {
	sw, swPort := r.topo.AttachedSwitch(h)
	return r.dirFrom(h, r.topo.LinkAt(sw, swPort).PortAt(h))
}

func (r *refNet) lose(p *refPkt) {
	r.out.lost++
	r.drop(p)
}

func (r *refNet) drop(p *refPkt) { r.resolve(p.flow) }

func (r *refNet) resolve(flow int) {
	f := r.flows[flow]
	f.live--
	f.resolved++
	f.last = r.now
}

// finalize runs after every event, like the engine's drainFin.
func (r *refNet) finalize() {
	for _, f := range r.flows {
		if !f.done && f.nextSeq >= f.packets && f.live == 0 && f.resolved >= f.packets {
			f.done, f.end = true, f.last
		}
	}
}

func (r *refNet) emit(flow int) {
	f := r.flows[flow]
	f.sentBits += DataPacketBits
	f.live++
	r.out.sent++
	r.enqueue(&refPkt{flow: flow, bits: DataPacketBits}, r.hostDir(f.demand.Src))
}

func (r *refNet) enqueue(p *refPkt, dir int32) {
	if dir < 0 {
		r.drop(p)
		return
	}
	op := r.ports[dir]
	if op == nil {
		l := r.topo.Link(netgraph.LinkID(dir >> 1))
		op = &refPort{link: l, from: dirFromNode(l, dir)}
		r.ports[dir] = op
	}
	if !op.link.Up {
		r.lose(p)
		return
	}
	if len(op.queue) >= r.sc.queue {
		op.dropped++
		r.drop(p)
		return
	}
	op.queue = append(op.queue, p)
	if !op.busy {
		r.startTx(dir, op)
	}
}

func (r *refNet) txRate(dir int32, op *refPort) float64 {
	bw := op.link.BandwidthBps
	if !r.links.Empty() {
		bw *= r.links.RateScale(netgraph.LinkID(dir>>1), dir&1 == 0, r.now)
	}
	full := bw
	if load, ok := r.extLoad[dir]; ok {
		bw -= load
		if min := full * minResidualFrac; bw < min {
			bw = min
		}
	}
	return bw
}

func (r *refNet) startTx(dir int32, op *refPort) {
	op.busy = true
	ser := simtime.TransferTime(op.queue[0].bits, r.txRate(dir, op))
	r.sched(refEvent{at: r.now.Add(ser), kind: refTxDone, dir: dir, gen: op.txGen})
}

func (r *refNet) txDone(dir int32, gen uint64) {
	op := r.ports[dir]
	if op == nil || op.txGen != gen || len(op.queue) == 0 {
		return
	}
	p := op.queue[0]
	op.queue = op.queue[1:]
	r.txBits[dir] += p.bits
	switch {
	case !op.link.Up:
		r.lose(p)
	case !r.links.Empty() && r.links.Corrupt(netgraph.LinkID(dir>>1), dir&1 == 0):
		r.out.corrupted++
		r.drop(p)
	default:
		// A zero-delay link propagates in 1 ns, as in the engine (see
		// packetsim.Config.Topology).
		delay := max(op.link.Delay, simtime.Nanosecond)
		r.sched(refEvent{at: r.now.Add(delay), kind: refArrive, pkt: p, dir: dir, gen: r.epoch[dir]})
	}
	if len(op.queue) > 0 {
		r.startTx(dir, op)
	} else {
		op.busy = false
	}
}

func (r *refNet) arrive(e *refEvent) {
	if e.gen != r.epoch[e.dir] {
		r.lose(e.pkt)
		return
	}
	r.rxBits[e.dir] += e.pkt.bits
	l := r.topo.Link(netgraph.LinkID(e.dir >> 1))
	peer, _ := l.Peer(dirFromNode(l, e.dir))
	f := r.flows[e.pkt.flow]
	if r.topo.Node(peer).Kind == netgraph.KindHost {
		r.resolve(e.pkt.flow) // MAC routes deliver to the right host only
		return
	}
	r.out.hops++
	d := r.net.Switches[peer].Process(f.demand.Key, r.net.PortLiveFunc(peer))
	if d.Out == netgraph.NoPort || d.Drop {
		r.drop(e.pkt)
		return
	}
	r.enqueue(e.pkt, r.dirFrom(peer, d.Out))
}

func (r *refNet) linkChange(id netgraph.LinkID, up bool) {
	l := r.topo.Link(id)
	if l.Up == up {
		return
	}
	r.topo.SetLinkUp(id, up)
	if up {
		return
	}
	for _, dir := range []int32{int32(id) << 1, int32(id)<<1 | 1} {
		r.epoch[dir]++
		if op := r.ports[dir]; op != nil {
			op.txGen++
			for _, p := range op.queue {
				r.lose(p)
			}
			op.queue = nil
			op.busy = false
		}
	}
}

func (r *refNet) sample() {
	period := r.sc.statsEvery.Seconds()
	for dir := range r.ports {
		op := r.ports[dir]
		if op == nil {
			continue
		}
		rate := (r.txBits[dir] - r.lastTx[dir]) / period
		r.out.samples = append(r.out.samples, stats.LinkSample{
			At: r.now, Link: op.link.ID, Forward: op.link.A == op.from,
			RateBps: rate, UsedFrac: rate / op.link.BandwidthBps,
		})
		r.lastTx[dir] = r.txBits[dir]
	}
}

func (r *refNet) poll(dp netgraph.NodeID) {
	reply := openflow.PortStatsReply{Switch: dp, At: r.now}
	for _, p := range r.topo.Node(dp).Ports() {
		l := r.topo.LinkAt(dp, p)
		tx := r.dirFrom(dp, p)
		rx := tx ^ 1
		ps := openflow.PortStats{Port: p, LinkBps: l.BandwidthBps, Up: l.Up, TxBits: r.txBits[tx], RxBits: r.rxBits[rx]}
		if last := r.reqAt[tx]; r.now > last {
			w := r.now.Sub(last).Seconds()
			ps.TxRateBps = (r.txBits[tx] - r.reqTx[tx]) / w
			ps.RxRateBps = (r.rxBits[rx] - r.reqRx[tx]) / w
		}
		r.reqAt[tx], r.reqTx[tx], r.reqRx[tx] = r.now, r.txBits[tx], r.rxBits[rx]
		reply.Stats = append(reply.Stats, ps)
	}
	// The engine delivers the reply one control latency later; only its
	// content is compared.
	r.out.polls = append(r.out.polls, reply)
}

// runReference runs the scenario through the two-event model.
func (sc *portScenario) runReference() portOutcome {
	topo, hosts, sws := sc.build()
	nDirs := 2 * topo.NumLinks()
	r := &refNet{
		sc: sc, topo: topo,
		net:     dataplane.NewNetwork(topo, dataplane.MissDrop),
		links:   linkmodel.NewSet(sc.seed, topo.NumLinks()),
		ports:   make([]*refPort, nDirs),
		txBits:  make([]float64, nDirs),
		rxBits:  make([]float64, nDirs),
		lastTx:  make([]float64, nDirs),
		epoch:   make([]uint64, nDirs),
		extLoad: map[int32]float64{},
		reqAt:   make([]simtime.Time, nDirs),
		reqTx:   make([]float64, nDirs),
		reqRx:   make([]float64, nDirs),
	}
	dataplane.InstallMACRoutes(r.net)
	for i, d := range sc.trace(hosts) {
		r.flows = append(r.flows, &refFlow{
			demand: d, packets: sc.flows[i].packets,
			interval: simtime.TransferTime(DataPacketBits, d.RateBps),
		})
		r.sched(refEvent{at: d.Start, kind: refSend, flow: i})
	}
	for _, e := range sc.links {
		r.sched(refEvent{at: e.at, kind: refLink, link: netgraph.LinkID(e.link), up: e.up})
	}
	for _, e := range sc.degrades {
		r.sched(refEvent{at: e.at, kind: refDegrade, link: netgraph.LinkID(e.link), m: e.m})
	}
	for _, e := range sc.polls {
		r.sched(refEvent{at: e.at, kind: refPoll, node: sws[e.sw]})
	}
	for _, e := range sc.loads {
		e := e
		kind := refTimer
		if e.late {
			kind = refLate
		}
		r.sched(refEvent{at: e.at, kind: kind, fn: func() {
			dir := int32(e.link) << 1
			if !e.fwd {
				dir |= 1
			}
			if e.bps <= 0 {
				delete(r.extLoad, dir)
			} else {
				r.extLoad[dir] = e.bps
			}
		}})
	}
	for _, e := range sc.injects {
		e := e
		r.sched(refEvent{at: e.at, kind: refTimer, fn: func() {
			if f := r.flows[e.flow]; !f.done && r.now > f.demand.Start {
				r.emit(e.flow)
			}
		}})
	}
	r.sched(refEvent{at: simtime.Time(sc.statsEvery), kind: refStats})
	for r.q.Len() > 0 && r.q[0].at <= sc.until {
		e := heap.Pop(&r.q).(*refEvent)
		r.now = e.at
		switch e.kind {
		case refSend:
			f := r.flows[e.flow]
			if f.nextSeq < f.packets {
				r.emit(e.flow)
				f.nextSeq++
				if f.nextSeq < f.packets {
					r.sched(refEvent{at: r.now.Add(f.interval), kind: refSend, flow: e.flow})
				}
			}
		case refTxDone:
			r.txDone(e.dir, e.gen)
		case refArrive:
			r.arrive(e)
		case refStats:
			r.sample()
			r.sched(refEvent{at: r.now.Add(sc.statsEvery), kind: refStats})
		case refLink:
			r.linkChange(e.link, e.up)
		case refDegrade:
			r.links.SetLink(e.link, e.m)
		case refTimer, refLate:
			e.fn()
		case refPoll:
			r.poll(e.node)
		}
		r.finalize()
	}
	for i, f := range r.flows {
		if f.demand.Start > sc.until {
			continue // never started
		}
		rec := stats.FlowRecord{
			ID: int64(i + 1), Arrival: f.demand.Start, End: sc.until,
			SizeBits: f.demand.SizeBits, SentBits: f.sentBits, Outcome: "running",
		}
		switch {
		case f.done:
			rec.End, rec.Completed, rec.Outcome = f.end, true, "completed"
		case f.resolved >= f.packets: // assembled at Finish
			rec.End, rec.Completed, rec.Outcome = f.last, true, "completed"
		}
		r.out.records = append(r.out.records, rec)
	}
	for _, op := range r.ports {
		if op != nil {
			r.out.dropped += op.dropped
		}
	}
	return r.out
}

// check runs both transmitters and diffs every observable, then runs the
// engine once more to quiescence — no sampling, no horizon — and checks
// that every packet it allocated was freed.
func (sc *portScenario) check(t *testing.T) {
	t.Helper()
	want, got := sc.runReference(), sc.runEngine()
	if !reflect.DeepEqual(want.records, got.records) {
		for i := range want.records {
			if i < len(got.records) && want.records[i] != got.records[i] {
				t.Fatalf("record %d differs:\n two-event %+v\n engine    %+v", i, want.records[i], got.records[i])
			}
		}
		t.Fatalf("%d records vs %d", len(want.records), len(got.records))
	}
	if want.sent != got.sent || want.lost != got.lost || want.corrupted != got.corrupted ||
		want.dropped != got.dropped || want.hops != got.hops {
		t.Fatalf("counters differ (sent/lost/corrupted/dropped/hops):\n two-event %d/%d/%d/%d/%d\n engine    %d/%d/%d/%d/%d",
			want.sent, want.lost, want.corrupted, want.dropped, want.hops,
			got.sent, got.lost, got.corrupted, got.dropped, got.hops)
	}
	if !reflect.DeepEqual(want.samples, got.samples) {
		for i := range want.samples {
			if i >= len(got.samples) || want.samples[i] != got.samples[i] {
				t.Fatalf("link sample %d differs:\n two-event %+v\n engine    %+v (%d vs %d samples)",
					i, want.samples[i], got.samples[min(i, len(got.samples)-1)], len(want.samples), len(got.samples))
			}
		}
		t.Fatalf("%d link samples vs %d", len(want.samples), len(got.samples))
	}
	// Replies reach the recorder in delivery order, which interleaves the
	// two switches by datapath at one instant; compare per (instant, switch).
	for _, ps := range [][]openflow.PortStatsReply{want.polls, got.polls} {
		sort.SliceStable(ps, func(i, j int) bool {
			if ps[i].At != ps[j].At {
				return ps[i].At < ps[j].At
			}
			return ps[i].Switch < ps[j].Switch
		})
	}
	if !reflect.DeepEqual(want.polls, got.polls) {
		t.Fatalf("port-stats replies differ:\n two-event %+v\n engine    %+v", want.polls, got.polls)
	}
	q := *sc
	q.statsEvery, q.until = 0, simtime.Never
	sim, _ := q.engine()
	mustRun(sim, q.until)
	requireDrained(t, sim)
}

// baseScenario is a quiet gigabit fabric; tests add stimulus.
func baseScenario() *portScenario {
	sc := &portScenario{
		queue: 4, seed: 7,
		trunk:      netgraph.LinkSpec{BandwidthBps: 1e9, Delay: 5 * simtime.Microsecond},
		statsEvery: 50 * simtime.Microsecond,
		until:      simtime.Time(3 * simtime.Millisecond),
	}
	for i := range sc.edge {
		sc.edge[i] = netgraph.LinkSpec{BandwidthBps: 1e9, Delay: 2 * simtime.Microsecond}
	}
	return sc
}

// ser is one data frame's serialization time at bps — computed the way the
// transmitter does, so scenario instants built from it tie exactly.
func ser(bps float64) simtime.Duration { return simtime.TransferTime(DataPacketBits, bps) }

// loadsAtTrunkEdges builds a backlogged trunk whose external load changes
// exactly at two frame boundaries, then mid-frame, each from a timer or
// (late) a data-class event.
func loadsAtTrunkEdges(s simtime.Duration, late bool) func(*portScenario) {
	return func(sc *portScenario) {
		sc.queue = 8
		sc.flows = []scnFlow{{0, 3, 0, 40, 1e9}, {1, 4, 0, 40, 1e9}}
		sc.loads = []scnLoad{
			{trunkEdge(s, 6), 5, true, 5e8, late},
			{trunkEdge(s, 11), 5, true, 7.5e8, late},
			{trunkEdge(s, 15).Add(s / 2), 5, true, 0, late},
		}
	}
}

// trunkEdge is the end of the j-th back-to-back trunk frame in the base
// fabric when line-rate senders start at 0 behind hosts on s0: their
// first frames reach s0 together at s+2µs, and the trunk then serializes
// one frame per s (ser(1e9)) with the rest queued.
func trunkEdge(s simtime.Duration, j int) simtime.Time {
	return simtime.Time(s + 2*simtime.Microsecond).Add(simtime.Duration(j) * s)
}

// TestPortScheduleScenarios hand-builds the cases the lazy transmitter's
// exactness argument leans on.
func TestPortScheduleScenarios(t *testing.T) {
	s := ser(1e9)
	cases := map[string]func(sc *portScenario){
		// Line-rate CBR over equal-rate links: every switch-side enqueue
		// lands exactly at the previous frame's freeAt.
		"back-to-back ties": func(sc *portScenario) {
			sc.flows = []scnFlow{{0, 3, 0, 40, 1e9}}
		},
		// Three line-rate senders into one trunk: the queue fills, and the
		// arrivals that overflow it coincide with departures.
		"full queue at a tie": func(sc *portScenario) {
			sc.queue = 2
			sc.flows = []scnFlow{{0, 3, 0, 30, 1e9}, {1, 4, 0, 30, 1e9}, {2, 3, 0, 30, 1e9}}
		},
		"queue of one": func(sc *portScenario) {
			sc.queue = 1
			sc.flows = []scnFlow{{0, 3, 0, 30, 1e9}, {1, 4, simtime.Time(s), 30, 5e8}}
		},
		// The trunk dies while a frame is half serialized, and again at the
		// exact instant another finishes; the host link dies at a tie too.
		"failure mid-serialization and at freeAt": func(sc *portScenario) {
			sc.flows = []scnFlow{{0, 3, 0, 60, 1e9}, {1, 4, 0, 60, 2.5e8}}
			first := simtime.Time(0).Add(s + 2*simtime.Microsecond) // first frame reaches s0
			sc.links = []scnLink{
				{first.Add(s / 2), 5, false},
				{first.Add(10 * s), 5, true},
				{first.Add(20 * s), 5, false}, // a trunk frame's freeAt
				{first.Add(25 * s), 5, true},
				{simtime.Time(31 * s), 0, false}, // host frame's freeAt
				{simtime.Time(35 * s), 0, true},
			}
		},
		// A lossy model on the trunk from the start, removed and reinstalled
		// mid-run (the reinstall catches a frame in lazy service).
		"link-model direction": func(sc *portScenario) {
			sc.flows = []scnFlow{{0, 3, 0, 80, 1e9}, {3, 1, 0, 80, 5e8}}
			sc.degrades = []scnDegrade{
				{0, 5, linkmodel.BernoulliLoss{P: 0.3}},
				{simtime.Time(20 * s), 5, nil},
				{simtime.Time(40*s + s/3), 5, linkmodel.BernoulliLoss{P: 0.5}},
				{simtime.Time(41 * s), 0, linkmodel.AdaptiveRate{Levels: 3, Floor: 0.3, Every: 20 * simtime.Microsecond}},
			}
		},
		// Flow-level load squeezes the trunk between queued frames.
		"external load between queued frames": func(sc *portScenario) {
			sc.queue = 8
			sc.flows = []scnFlow{{0, 3, 0, 40, 1e9}, {1, 4, 0, 40, 1e9}}
			sc.loads = []scnLoad{
				{simtime.Time(5 * s), 5, true, 6e8, false},
				{simtime.Time(9*s + s/2), 5, true, 9.99e8, false},
				{simtime.Time(30 * s), 5, true, 0, false},
			}
		},
		// Timer-class sends of one flow share the host port with the evSend
		// ones of another, every second one at the exact end of a
		// serialization: which flow loses a packet to the full queue
		// depends on who still counts the departing head.
		"mixed-class enqueues on a host port": func(sc *portScenario) {
			sc.queue = 2
			sc.flows = []scnFlow{{0, 3, 0, 30, 5e8}, {0, 4, 0, 1000, 1e6}}
			for i := 1; i < 40; i++ {
				sc.injects = append(sc.injects, scnInject{simtime.Time(i) * simtime.Time(s), 1})
			}
		},
		// A zero-delay link propagates in 1 ns in both transmitters. h0
		// starts 1 ns before h1's edge delay runs out, so the two flows'
		// frames reach s0 in the same instants and contend for the trunk
		// by arrival order key.
		"zero-delay edge": func(sc *portScenario) {
			sc.queue = 2
			sc.edge[0].Delay = 0
			sc.flows = []scnFlow{{0, 3, simtime.Time(sc.edge[1].Delay - simtime.Nanosecond), 30, 1e9}, {1, 4, 0, 30, 1e9}}
			sc.links = []scnLink{{simtime.Time(10 * s), 5, false}, {simtime.Time(14 * s), 5, true}}
		},
		// Three line-rate senders into the trunk: its queue runs three and
		// more frames deep while samples and polls read it at every tie.
		"deep trunk queue": func(sc *portScenario) {
			sc.queue = 6
			sc.flows = []scnFlow{{0, 3, 0, 40, 1e9}, {1, 4, 0, 40, 1e9}, {2, 3, 0, 40, 1e9}}
			for i := 2; i < 40; i += 5 {
				sc.polls = append(sc.polls, scnPoll{trunkEdge(s, i), i % 2})
			}
			sc.statsEvery = s / 2
		},
		// Rate changes exactly at a queued trunk frame's start: from a
		// timer the frame starting now takes the new rate; from a
		// data-class event it has already started at the old one.
		"external load at a queued frame's start (timer)":      loadsAtTrunkEdges(s, false),
		"external load at a queued frame's start (data class)": loadsAtTrunkEdges(s, true),
		// Models installed, replaced and removed while the trunk queue is
		// deep: queued frames re-time to the new RateScale, and frames
		// that left before the change draw from the model they crossed.
		"model install and removal mid-queue": func(sc *portScenario) {
			sc.queue = 8
			sc.flows = []scnFlow{{0, 3, 0, 50, 1e9}, {1, 4, 0, 50, 1e9}}
			sc.degrades = []scnDegrade{
				{trunkEdge(s, 4).Add(s / 3), 5, linkmodel.AdaptiveRate{Levels: 3, Floor: 0.3, Every: 10 * simtime.Microsecond}},
				{trunkEdge(s, 9).Add(s / 2), 5, linkmodel.GilbertElliott{PGoodBad: 0.3, PBadGood: 0.3, LossGood: 0.05, LossBad: 0.7}},
				{trunkEdge(s, 14), 5, nil},
				{trunkEdge(s, 20).Add(s / 4), 5, linkmodel.BernoulliLoss{P: 0.4}},
				{trunkEdge(s, 26), 5, linkmodel.AdaptiveRate{Levels: 4, Floor: 0.5, Every: 7 * simtime.Microsecond}},
				{trunkEdge(s, 31).Add(s / 5), 5, nil},
			}
		},
		// Frames still propagating on a lossy trunk at the horizon left
		// before it, so their corruption verdicts count. Two senders keep
		// the trunk queue full until their last frames reach s0 (at
		// trunkEdge(99)); the horizon falls while the backlog drains.
		"lossy trunk at the horizon": func(sc *portScenario) {
			sc.queue = 64
			sc.trunk.Delay = 100 * simtime.Microsecond
			sc.flows = []scnFlow{{0, 3, 0, 100, 1e9}, {1, 4, 0, 100, 1e9}}
			sc.degrades = []scnDegrade{{0, 5, linkmodel.BernoulliLoss{P: 0.5}}}
			sc.until = trunkEdge(s, 99).Add(3 * sc.trunk.Delay)
			sc.statsEvery = simtime.Second // no sample settles the trunk first
		},
		// The trunk fails exactly when a queued frame would start: the
		// frame ending now is lost with the queue behind it.
		"failure at a queued frame's start": func(sc *portScenario) {
			sc.queue = 8
			sc.flows = []scnFlow{{0, 3, 0, 40, 1e9}, {1, 4, 0, 40, 1e9}}
			sc.links = []scnLink{
				{trunkEdge(s, 7), 5, false},
				{trunkEdge(s, 12), 5, true},
				{trunkEdge(s, 20), 5, false},
				{trunkEdge(s, 20).Add(s / 2), 5, true},
			}
		},
		"polls at ties": func(sc *portScenario) {
			sc.flows = []scnFlow{{0, 3, 0, 40, 1e9}, {4, 1, 0, 40, 1e9}}
			for i := 1; i < 30; i += 3 {
				sc.polls = append(sc.polls, scnPoll{simtime.Time(i)*simtime.Time(s) + 2000, i % 2})
			}
			sc.statsEvery = 3 * s
		},
	}
	for name, mk := range cases {
		mk := mk
		t.Run(name, func(t *testing.T) {
			sc := baseScenario()
			mk(sc)
			sc.check(t)
		})
	}
}

// randomScenario derives a scenario from a seed. Instants are drawn on a
// grid of half serialization times so exact ties are common.
func randomScenario(seed uint64, queue, nEvents uint8) *portScenario {
	rng := rand.New(rand.NewSource(int64(seed)))
	rates := []float64{1e9, 1e9, 5e8, 2.5e8}
	sc := baseScenario()
	sc.seed = seed | 1
	sc.queue = 1 + int(queue%6)
	for i := range sc.edge {
		sc.edge[i].BandwidthBps = rates[rng.Intn(len(rates))]
		sc.edge[i].Delay = simtime.Duration(rng.Intn(5)) * simtime.Microsecond // 0: runs as 1 ns
	}
	sc.trunk.BandwidthBps = rates[rng.Intn(len(rates))]
	half := ser(1e9) / 2
	at := func() simtime.Time { return simtime.Time(rng.Intn(120)) * simtime.Time(half) }
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		src := rng.Intn(5)
		dst := (src + 1 + rng.Intn(4)) % 5
		sc.flows = append(sc.flows, scnFlow{src, dst, at(), 1 + rng.Intn(40), rates[rng.Intn(len(rates))]})
	}
	models := []linkmodel.Model{
		nil,
		linkmodel.BernoulliLoss{P: 0.25},
		linkmodel.GilbertElliott{PGoodBad: 0.2, PBadGood: 0.3, LossGood: 0.01, LossBad: 0.6},
		linkmodel.AdaptiveRate{Levels: 3, Floor: 0.3, Every: 15 * simtime.Microsecond},
	}
	for i := 0; i < int(nEvents%24); i++ {
		switch link := rng.Intn(6); rng.Intn(5) {
		case 0:
			sc.links = append(sc.links, scnLink{at: at(), link: link})
		case 1:
			sc.degrades = append(sc.degrades, scnDegrade{at(), link, models[rng.Intn(len(models))]})
		case 2:
			// Every other load comes from a data-class event; the class is
			// not drawn, so older seeds replay the same scenarios.
			sc.loads = append(sc.loads, scnLoad{at(), link, rng.Intn(2) == 0, float64(rng.Intn(11)) * 1e8, i&1 == 1})
		case 3:
			sc.injects = append(sc.injects, scnInject{at(), rng.Intn(len(sc.flows))})
		case 4:
			sc.polls = append(sc.polls, scnPoll{at(), rng.Intn(2)})
		}
	}
	// Each link alternates down, up, down, … in time order.
	sort.SliceStable(sc.links, func(i, j int) bool { return sc.links[i].at < sc.links[j].at })
	state := map[int]bool{}
	for i := range sc.links {
		l := sc.links[i].link
		sc.links[i].up = state[l]
		state[l] = !state[l]
	}
	return sc
}

// FuzzPortSchedule: for any scenario the FIFO transmitter and the
// two-event reference agree on every observable.
func FuzzPortSchedule(f *testing.F) {
	for seed := uint64(1); seed <= 24; seed++ {
		f.Add(seed, uint8(seed), uint8(5*seed))
	}
	// Scenarios picked for shapes the seeds above rarely reach; every one
	// runs queues three and more frames deep somewhere.
	for _, c := range []struct {
		seed           uint64
		queue, nEvents uint8
	}{
		{75, 16, 212},   // external load at a queued frame's start, from a timer
		{126, 117, 107}, // the same
		{626, 33, 207},  // external load at a queued frame's start, from a data-class event
		{128, 131, 133}, // the same
		{47, 76, 104},   // models installed mid-queue
		{478, 21, 75},   // a model removed mid-queue
		{103, 212, 64},  // the same
		{166, 141, 115}, // a failure at a queued frame's start
		{116, 47, 233},  // the same, next to a model install
	} {
		f.Add(c.seed, c.queue, c.nEvents)
	}
	f.Fuzz(func(t *testing.T, seed uint64, queue, nEvents uint8) {
		randomScenario(seed, queue, nEvents).check(t)
	})
}
