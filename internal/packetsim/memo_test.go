package packetsim

import (
	"testing"

	"horse/internal/addr"
	"horse/internal/dataplane"
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simcore"
	"horse/internal/simtime"
	"horse/internal/traffic"
)

// Tests of the per-switch forward-decision memo: it must be invisible.
// They run one CBR flow h0→h1 through a tiny fabric and read where its
// packets went off the per-direction receive counters, so "takes effect
// on the very next packet" is an exact packet count. memoFabric's packets
// reach s0 at hop(k) = k·memoGap + memoHop.

const (
	memoGap = 100 * simtime.Microsecond // CBR send interval (1.2e8 bps)
	memoHop = 12*simtime.Microsecond + 2*simtime.Microsecond
)

func hop(k int) simtime.Time { return simtime.Time(k)*simtime.Time(memoGap) + simtime.Time(memoHop) }

// memoFabric is h0 — s0 — s1 — h1 with two parallel s0–s1 trunks, plus h2
// on s0. Link IDs: 0 h0-s0, 1 h2-s0, 2 trunk A, 3 trunk B, 4 s1-h1.
type memoFabric struct {
	topo               *netgraph.Topology
	h0, h1, h2, s0, s1 netgraph.NodeID
}

func newMemoFabric() *memoFabric {
	topo := netgraph.New()
	f := &memoFabric{topo: topo}
	f.s0, f.s1 = topo.AddSwitch("s0"), topo.AddSwitch("s1")
	f.h0, f.h1, f.h2 = topo.AddHost("h0"), topo.AddHost("h1"), topo.AddHost("h2")
	for _, pair := range [][2]netgraph.NodeID{{f.h0, f.s0}, {f.h2, f.s0}, {f.s0, f.s1}, {f.s0, f.s1}, {f.s1, f.h1}} {
		topo.Connect(pair[0], pair[1], 1e9, 2*simtime.Microsecond)
	}
	return f
}

// port returns sw's port on link id.
func (f *memoFabric) port(sw netgraph.NodeID, id netgraph.LinkID) netgraph.PortNum {
	return f.topo.Link(id).PortAt(sw)
}

func (f *memoFabric) flow(packets int) traffic.Trace {
	return traffic.Trace{cbr(f.h0, f.h1, 0, float64(packets)*DataPacketBits, DataPacketBits/memoGap.Seconds())}
}

// rx returns how many data packets arrived over link id in the A→B
// direction.
func rx(s *Simulator, id netgraph.LinkID) int {
	return int(s.rxBits[int32(id)<<1] / DataPacketBits)
}

func flowMod(sw netgraph.NodeID, op openflow.FlowModOp, prio int, m header.Match, out netgraph.PortNum) *openflow.FlowMod {
	return &openflow.FlowMod{Switch: sw, Op: op, Priority: prio, Match: m, Instr: openflow.Apply(openflow.Output(out))}
}

// at applies a controller message at exactly t, ordered as its delivery
// would be (before that instant's packet arrivals).
func (s *Simulator) at(t simtime.Time, msg openflow.Message) {
	key := simcore.OrderKey(simcore.ClassToSwitch, uint32(msg.Datapath()))
	s.k.Schedule(&keyedCall{at: t, key: key, fn: func() { s.plane.Deliver(msg) }})
}

// timerAt runs fn from a controller-timer event at exactly t (it orders
// before that instant's data-plane events). Call it before the run.
func (s *Simulator) timerAt(t simtime.Time, fn func()) { s.plane.After(t.Sub(s.k.Now()), fn) }

func requireMemo(t *testing.T, s *Simulator, sw netgraph.NodeID) {
	t.Helper()
	if s.memo[sw] == nil {
		t.Fatalf("switch %d never memoized a decision: the test exercises nothing", sw)
	}
}

// TestMemoFlowModsTakeEffectNextPacket: an overriding add, its non-strict
// delete and a strict delete of the base rule each apply at the exact
// instant a packet reaches the switch; that packet already obeys them.
func TestMemoFlowModsTakeEffectNextPacket(t *testing.T) {
	f := newMemoFabric()
	sim := New(Config{Topology: f.topo, Miss: dataplane.MissDrop})
	dst := header.Match{}.WithEthDst(addr.HostMAC(f.h1))
	s0 := sim.Network().Switches[f.s0]
	s0.Apply(flowMod(f.s0, openflow.FlowAdd, 10, dst, f.port(f.s0, 2)), 0)
	sim.Network().Switches[f.s1].Apply(flowMod(f.s1, openflow.FlowAdd, 10, dst, f.port(f.s1, 4)), 0)
	sim.Load(f.flow(40))
	sim.at(hop(10), flowMod(f.s0, openflow.FlowAdd, 20, dst, f.port(f.s0, 3)))
	sim.at(hop(20), &openflow.FlowMod{Switch: f.s0, Op: openflow.FlowDelete, Match: dst, Cookie: 0, Priority: 20})
	sim.at(hop(20), flowMod(f.s0, openflow.FlowAdd, 10, dst, f.port(f.s0, 2)))
	sim.at(hop(30), &openflow.FlowMod{Switch: f.s0, Op: openflow.FlowDeleteStrict, Match: dst, Priority: 10})
	mustRun(sim, simtime.Time(10*simtime.Millisecond))
	requireMemo(t, sim, f.s0)
	// 0–9 trunk A, 10–19 trunk B (override), 20–29 trunk A (override and
	// base deleted, base re-added), 30–39 table miss.
	if a, b := rx(sim, 2), rx(sim, 3); a != 20 || b != 10 {
		t.Errorf("trunk A carried %d packets, trunk B %d; want 20 and 10", a, b)
	}
	if got := rx(sim, 4); got != 30 {
		t.Errorf("h1 received %d packets, want 30 (the last 10 miss)", got)
	}
}

// TestMemoHitsKeepIdleEntryAlive: an idle-timeout entry whose traffic is
// served from the memo after the first packet must not expire under it,
// and must expire once the traffic stops.
func TestMemoHitsKeepIdleEntryAlive(t *testing.T) {
	f := newMemoFabric()
	sim := New(Config{Topology: f.topo, Miss: dataplane.MissDrop})
	dst := header.Match{}.WithEthDst(addr.HostMAC(f.h1))
	idle := flowMod(f.s0, openflow.FlowAdd, 10, dst, f.port(f.s0, 2))
	idle.IdleTimeout = 3 * memoGap
	sim.at(0, idle)
	sim.Network().Switches[f.s1].Apply(flowMod(f.s1, openflow.FlowAdd, 10, dst, f.port(f.s1, 4)), 0)
	sim.Load(f.flow(40)) // 40 gaps ≫ the 3-gap idle timeout
	mustRun(sim, hop(39).Add(2*memoGap))
	requireMemo(t, sim, f.s0)
	if got := rx(sim, 4); got != 40 {
		t.Fatalf("h1 received %d of 40 packets: the entry expired under memo hits", got)
	}
	if n := sim.Network().Switches[f.s0].Tables[0].Len(); n != 1 {
		t.Fatalf("entry gone %v after its last hit, before its idle timeout", 2*memoGap)
	}

	f = newMemoFabric()
	sim = New(Config{Topology: f.topo, Miss: dataplane.MissDrop})
	sim.at(0, idle)
	sim.Network().Switches[f.s1].Apply(flowMod(f.s1, openflow.FlowAdd, 10, dst, f.port(f.s1, 4)), 0)
	sim.Load(f.flow(40))
	mustRun(sim, hop(39).Add(4*memoGap))
	if n := sim.Network().Switches[f.s0].Tables[0].Len(); n != 0 {
		t.Fatalf("idle entry still installed %v after its last hit", 4*memoGap)
	}
}

// TestMemoExpiryInvalidates: a hard timeout evicts an entry under live
// traffic; the packets after it must miss, not ride the memo.
func TestMemoExpiryInvalidates(t *testing.T) {
	f := newMemoFabric()
	sim := New(Config{Topology: f.topo, Miss: dataplane.MissDrop})
	dst := header.Match{}.WithEthDst(addr.HostMAC(f.h1))
	hard := flowMod(f.s0, openflow.FlowAdd, 10, dst, f.port(f.s0, 2))
	hard.HardTimeout = hop(10).Add(memoGap / 2).Sub(0)
	sim.at(0, hard)
	sim.Network().Switches[f.s1].Apply(flowMod(f.s1, openflow.FlowAdd, 10, dst, f.port(f.s1, 4)), 0)
	sim.Load(f.flow(40))
	mustRun(sim, simtime.Time(10*simtime.Millisecond))
	requireMemo(t, sim, f.s0)
	if got := rx(sim, 4); got != 11 {
		t.Errorf("h1 received %d packets, want the 11 forwarded before the hard timeout", got)
	}
}

// memoFastFailover: a fast-failover group must move the flow to the
// backup trunk with the first packet after the primary dies and back with
// the first packet after it recovers — the memo is keyed by port liveness
// too. build makes the engine (table misses drop) on the fabric's
// topology; TestMemoFastFailoverReselects runs it through the façade.
func memoFastFailover(t *testing.T, build func(*netgraph.Topology) *Simulator) {
	f := newMemoFabric()
	sim := build(f.topo)
	dst := header.Match{}.WithEthDst(addr.HostMAC(f.h1))
	a, b := f.port(f.s0, 2), f.port(f.s0, 3)
	s0 := sim.Network().Switches[f.s0]
	if err := s0.Apply(&openflow.GroupMod{Switch: f.s0, Op: openflow.GroupAdd, GroupID: 1, Type: openflow.GroupFastFailover,
		Buckets: []*openflow.Bucket{
			{WatchPort: a, Actions: []openflow.Action{openflow.Output(a)}},
			{WatchPort: b, Actions: []openflow.Action{openflow.Output(b)}},
		}}, 0); err != nil {
		t.Fatal(err)
	}
	s0.Apply(&openflow.FlowMod{Switch: f.s0, Op: openflow.FlowAdd, Priority: 10, Match: dst,
		Instr: openflow.Apply(openflow.GroupAction(1))}, 0)
	sim.Network().Switches[f.s1].Apply(flowMod(f.s1, openflow.FlowAdd, 10, dst, f.port(f.s1, 4)), 0)
	sim.Load(f.flow(40))
	sim.ScheduleLinkChange(hop(10), 2, false)
	sim.ScheduleLinkChange(hop(25), 2, true)
	col := mustRun(sim, simtime.Time(10*simtime.Millisecond))
	requireMemo(t, sim, f.s0)
	if a, b := rx(sim, 2), rx(sim, 3); a != 25 || b != 15 || col.PacketsLost != 0 {
		t.Errorf("trunk A carried %d packets, trunk B %d, %d lost; want 25, 15, 0", a, b, col.PacketsLost)
	}
}

// TestMemoMeterPolicesOnHits: a metered entry served from the memo still
// runs its token bucket per packet. 1 Mbps against line rate admits the
// 50 kbit initial burst — four frames — and nothing else within the run.
func TestMemoMeterPolicesOnHits(t *testing.T) {
	f := newMemoFabric()
	sim := New(Config{Topology: f.topo, Miss: dataplane.MissDrop})
	dst := header.Match{}.WithEthDst(addr.HostMAC(f.h1))
	s0 := sim.Network().Switches[f.s0]
	if err := s0.Apply(&openflow.MeterMod{Switch: f.s0, Op: openflow.MeterAdd, MeterID: 1, RateBps: 1e6}, 0); err != nil {
		t.Fatal(err)
	}
	metered := flowMod(f.s0, openflow.FlowAdd, 10, dst, f.port(f.s0, 2))
	metered.Instr.Meter = 1
	s0.Apply(metered, 0)
	sim.Network().Switches[f.s1].Apply(flowMod(f.s1, openflow.FlowAdd, 10, dst, f.port(f.s1, 4)), 0)
	sim.Load(f.flow(40))
	mustRun(sim, simtime.Time(10*simtime.Millisecond))
	requireMemo(t, sim, f.s0)
	if got := rx(sim, 4); got != 4 {
		t.Errorf("meter admitted %d packets, want the 4-frame burst", got)
	}
	if e := s0.Tables[0].Entries()[0]; e.Packets != 40 {
		t.Errorf("metered entry counted %d packets, want all 40 (policed ones too)", e.Packets)
	}
}

// TestMemoSwitchCrashInvalidates: a restarted switch has empty tables, so
// traffic that was forwarding from the memo must miss afterwards.
func TestMemoSwitchCrashInvalidates(t *testing.T) {
	f := newMemoFabric()
	sim := New(Config{Topology: f.topo, Miss: dataplane.MissDrop})
	dst := header.Match{}.WithEthDst(addr.HostMAC(f.h1))
	sim.Network().Switches[f.s0].Apply(flowMod(f.s0, openflow.FlowAdd, 10, dst, f.port(f.s0, 2)), 0)
	sim.Network().Switches[f.s1].Apply(flowMod(f.s1, openflow.FlowAdd, 10, dst, f.port(f.s1, 4)), 0)
	sim.Load(f.flow(40))
	sim.ScheduleSwitchChange(hop(10).Add(memoGap/2), f.s0, false)
	sim.ScheduleSwitchChange(hop(15).Add(memoGap/2), f.s0, true)
	mustRun(sim, simtime.Time(10*simtime.Millisecond))
	requireMemo(t, sim, f.s0)
	if got := rx(sim, 4); got != 11 {
		t.Errorf("h1 received %d packets, want the 11 forwarded before the crash", got)
	}
	if got := rx(sim, 0); got != 35 {
		t.Errorf("s0 received %d packets, want 35 (5 offered to its dead access link)", got)
	}
}

// TestMemoBufferedBypass: re-processing a punt-buffered packet neither
// reads the memo (a planted slot pointing at h2 is ignored) nor writes it
// (the planted slot survives).
func TestMemoBufferedBypass(t *testing.T) {
	f := newMemoFabric()
	sim := New(Config{Topology: f.topo, Miss: dataplane.MissController, Controller: &pollRecorder{}})
	dst := header.Match{}.WithEthDst(addr.HostMAC(f.h1))
	sim.Network().Switches[f.s1].Apply(flowMod(f.s1, openflow.FlowAdd, 10, dst, f.port(f.s1, 4)), 0)
	tr := f.flow(1)
	sim.Load(tr)
	planted := &openflow.FlowEntry{}
	sim.timerAt(hop(1), func() {
		if len(sim.punted[f.s0]) != 1 {
			t.Errorf("%d packets parked at s0, want 1", len(sim.punted[f.s0]))
		}
		s0 := sim.Network().Switches[f.s0]
		s0.Apply(flowMod(f.s0, openflow.FlowAdd, 10, dst, f.port(f.s0, 2)), sim.Now())
		sim.memo[f.s0] = new([memoSlots]memoSlot)
		sim.memoGen[f.s0] = s0.Gen()
		sim.memo[f.s0][memoIndex(0, 0)] = memoSlot{e0: planted, tag: 0, out: uint16(f.port(f.s0, 1))}
		// A PacketOut with no actions re-enters the pipeline as buffered.
		sim.handlePacketOut(&openflow.PacketOut{Switch: f.s0, Key: tr[0].Key})
	})
	mustRun(sim, simtime.Time(10*simtime.Millisecond))
	if got := rx(sim, 4); got != 1 {
		t.Errorf("h1 received %d packets, want the released one (memo read by a buffered packet?)", got)
	}
	if m := sim.memo[f.s0][memoIndex(0, 0)]; m.e0 != planted || planted.Packets != 0 {
		t.Errorf("buffered re-processing touched the memo: slot %+v, planted entry hit %d times", m, planted.Packets)
	}
}
