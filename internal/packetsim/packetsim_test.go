package packetsim

import (
	"math"
	"testing"

	"horse/internal/addr"
	"horse/internal/controller"
	"horse/internal/dataplane"
	"horse/internal/flowsim"
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simcore"
	"horse/internal/simtime"
	"horse/internal/traffic"
)

func cbr(src, dst netgraph.NodeID, start simtime.Time, sizeBits, rateBps float64) traffic.Demand {
	return traffic.Demand{
		Key: addr.FlowKeyBetween(src, dst, header.ProtoUDP, 40000, 80),
		Src: src, Dst: dst, Start: start,
		SizeBits: sizeBits, RateBps: rateBps,
	}
}

func tcp(src, dst netgraph.NodeID, start simtime.Time, sizeBits float64) traffic.Demand {
	d := cbr(src, dst, start, sizeBits, math.Inf(1))
	d.Key.Proto = header.ProtoTCP
	d.TCP = true
	return d
}

func dumbbell(bottleneck float64) *netgraph.Topology {
	return netgraph.Dumbbell(2, 2, netgraph.Gig,
		netgraph.LinkSpec{BandwidthBps: bottleneck, Delay: simtime.Millisecond})
}

func TestCBRPacketFlowCompletes(t *testing.T) {
	topo := dumbbell(1e9)
	sim := New(Config{Topology: topo, Miss: dataplane.MissDrop})
	dataplane.InstallMACRoutes(sim.Network())
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	// 1e7 bits at 1e8 bps ≈ 0.1s + per-packet delays.
	sim.Load(traffic.Trace{cbr(h0, r0, 0, 1e7, 1e8)})
	col := mustRun(sim, simtime.Never)
	f := col.Flows()[0]
	if !f.Completed {
		t.Fatalf("outcome = %s", f.Outcome)
	}
	fct := f.FCT().Seconds()
	if fct < 0.095 || fct > 0.13 {
		t.Errorf("FCT = %g, want ~0.1s", fct)
	}
	if sim.PacketsForwarded() == 0 {
		t.Error("no packets forwarded")
	}
}

func TestTCPPacketFlowCompletes(t *testing.T) {
	topo := dumbbell(1e9)
	sim := New(Config{Topology: topo, Miss: dataplane.MissDrop})
	dataplane.InstallMACRoutes(sim.Network())
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	sim.Load(traffic.Trace{tcp(h0, r0, 0, 1e7)})
	col := mustRun(sim, simtime.Time(simtime.Minute))
	f := col.Flows()[0]
	if !f.Completed {
		t.Fatalf("outcome = %s", f.Outcome)
	}
	// Slow start from IW10 with ~2.1ms RTT needs a few RTTs for ~834
	// packets; it cannot beat the line-rate bound either.
	if f.FCT() < 10*simtime.Millisecond {
		t.Errorf("FCT = %v implausibly fast", f.FCT())
	}
	if f.FCT() > simtime.Time(5*simtime.Second).Sub(0) {
		t.Errorf("FCT = %v implausibly slow", f.FCT())
	}
}

func TestTCPRecoversFromCongestionLoss(t *testing.T) {
	// Two TCP flows into a 10 Mbps bottleneck with a tiny queue: drops
	// guaranteed; both must still complete via retransmission.
	topo := dumbbell(1e7)
	sim := New(Config{Topology: topo, Miss: dataplane.MissDrop, QueuePackets: 10})
	dataplane.InstallMACRoutes(sim.Network())
	h0, h1 := topo.MustLookup("h0"), topo.MustLookup("h1")
	r0, r1 := topo.MustLookup("r0"), topo.MustLookup("r1")
	d1, d2 := tcp(h0, r0, 0, 2e6), tcp(h1, r1, 0, 2e6)
	d2.Key.SrcPort = 41000
	sim.Load(traffic.Trace{d1, d2})
	col := mustRun(sim, simtime.Time(5*simtime.Minute))
	drops := col.PacketsQueueDropped
	for _, f := range col.Flows() {
		if !f.Completed {
			t.Errorf("flow %d: %s (drops seen: %d)", f.ID, f.Outcome, drops)
		}
	}
	if drops == 0 {
		t.Error("expected queue drops at the constricted bottleneck")
	}
	// Fair sharing: both flows finish within ~2.5x of each other.
	fa, fb := col.Flows()[0].FCT().Seconds(), col.Flows()[1].FCT().Seconds()
	if fa/fb > 2.5 || fb/fa > 2.5 {
		t.Errorf("unfair FCTs: %g vs %g", fa, fb)
	}
}

func TestUDPLossAtBottleneck(t *testing.T) {
	// A 100 Mbps CBR into a 10 Mbps bottleneck: ~90% of packets drop, the
	// flow still terminates (UDP does not retransmit).
	topo := dumbbell(1e7)
	sim := New(Config{Topology: topo, Miss: dataplane.MissDrop, QueuePackets: 20})
	dataplane.InstallMACRoutes(sim.Network())
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	sim.Load(traffic.Trace{cbr(h0, r0, 0, 1e7, 1e8)})
	col := mustRun(sim, simtime.Time(simtime.Minute))
	f := col.Flows()[0]
	if !f.Completed {
		t.Fatalf("outcome = %s", f.Outcome)
	}
	if col.PacketsQueueDropped == 0 {
		t.Error("overdriven bottleneck produced no drops")
	}
}

func TestMissDropBlackholes(t *testing.T) {
	topo := dumbbell(1e9)
	sim := New(Config{Topology: topo, Miss: dataplane.MissDrop})
	// No routes installed: every packet dies at the first switch.
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	sim.Load(traffic.Trace{cbr(h0, r0, 0, 1e6, 1e8)})
	col := mustRun(sim, simtime.Time(simtime.Second))
	f := col.Flows()[0]
	if f.Completed && f.SizeBits > f.SentBits {
		t.Error("flow completed through a blackhole")
	}
}

func TestDeadlineCBR(t *testing.T) {
	topo := dumbbell(1e9)
	sim := New(Config{Topology: topo, Miss: dataplane.MissDrop})
	dataplane.InstallMACRoutes(sim.Network())
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	d := cbr(h0, r0, 0, math.Inf(1), 1e7)
	d.Duration = simtime.Second
	sim.Load(traffic.Trace{d})
	col := mustRun(sim, simtime.Time(10*simtime.Second))
	f := col.Flows()[0]
	if !f.Completed {
		t.Fatalf("outcome = %s", f.Outcome)
	}
	// Sent ~1e7 bits over the 1s lifetime.
	if f.SentBits < 0.9e7 || f.SentBits > 1.1e7 {
		t.Errorf("sent = %g, want ~1e7", f.SentBits)
	}
}

func TestPacketVsFlowLevelAgreement(t *testing.T) {
	// The E3 accuracy claim in miniature: a CBR flow's FCT at packet
	// granularity is within a few percent of the fluid calculation.
	topo := dumbbell(1e8)
	sim := New(Config{Topology: topo, Miss: dataplane.MissDrop})
	dataplane.InstallMACRoutes(sim.Network())
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	size, rate := 1e7, 5e7
	sim.Load(traffic.Trace{cbr(h0, r0, 0, size, rate)})
	col := mustRun(sim, simtime.Never)
	f := col.Flows()[0]
	if !f.Completed {
		t.Fatalf("outcome = %s", f.Outcome)
	}
	fluid := size / rate
	got := f.FCT().Seconds()
	if relErr := math.Abs(got-fluid) / fluid; relErr > 0.05 {
		t.Errorf("packet FCT %g vs fluid %g: rel err %g", got, fluid, relErr)
	}
}

// TestRTOGenerationCancelsStaleTimer is the regression test for RTO
// cancellation: the final cumulative ACK zeroes the in-flight count and
// re-arms the timer, which removes the queued RTO event outright (true
// cancellation — before the Canceler rework the corpse stayed queued and
// fired as a gen-stamped no-op). The queue must therefore be empty at
// completion, and draining anything left must not retransmit or mutate
// sender state. Completion is purely message-driven: the sender learns it
// from the ACK stream, never from receiver state.
func TestRTOGenerationCancelsStaleTimer(t *testing.T) {
	topo := dumbbell(1e9)
	sim := New(Config{Topology: topo, Miss: dataplane.MissDrop})
	k := sim.k
	dataplane.InstallMACRoutes(sim.Network())
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	sim.Load(traffic.Trace{tcp(h0, r0, 0, 1e6)})
	sim.Begin()
	k.Run(0) // the flow exists from its first send on
	f := sim.flows[0]
	// Step virtual time until the receiver completes and the final ACK
	// drains the sender, leaving later events (any stale RTO) queued.
	var bound simtime.Time
	for (f.recvDoneAt == simtime.Never || f.inFlight > 0) && bound < simtime.Time(simtime.Minute) {
		bound = bound.Add(simtime.Millisecond)
		k.Run(bound)
	}
	if f.recvDoneAt == simtime.Never || f.inFlight > 0 {
		t.Fatalf("flow did not complete while stepping (recvDoneAt=%v inFlight=%d)", f.recvDoneAt, f.inFlight)
	}
	if f.rto != (simcore.Timer{}) {
		t.Error("rto timer handle not cleared by the final ACK's re-arm")
	}
	if n := k.Len(); n != 0 {
		t.Errorf("%d events still queued at completion; cancellation left a corpse", n)
	}
	sent, nextSeq, gen := f.sentBits, f.nextSeq, f.rtoGen
	k.Run(simtime.Never) // fire everything that was still queued
	if f.sentBits != sent {
		t.Errorf("stale RTO retransmitted after completion: sentBits %g -> %g", sent, f.sentBits)
	}
	if f.nextSeq != nextSeq || f.rtoGen != gen {
		t.Errorf("stale timer mutated sender state: nextSeq %d->%d rtoGen %d->%d",
			nextSeq, f.nextSeq, gen, f.rtoGen)
	}
	sim.Finish()
}

// TestReactiveControllerCompletesFlow: the controller-attached packet
// engine end to end — a table miss punts (PacketIn + buffered packet),
// ReactiveMAC installs rules after the control latency, the buffered
// packet retries, and the transfer completes.
func TestReactiveControllerCompletesFlow(t *testing.T) {
	topo := dumbbell(1e9)
	sim := New(Config{
		Topology: topo, Miss: dataplane.MissController,
		Controller:     controller.NewChain(&controller.ReactiveMAC{}),
		ControlLatency: simtime.Millisecond,
	})
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	sim.Load(traffic.Trace{tcp(h0, r0, 0, 1e6)})
	col := mustRun(sim, simtime.Time(simtime.Minute))
	f := col.Flows()[0]
	if !f.Completed {
		t.Fatalf("reactive flow outcome = %s (punts=%d)", f.Outcome, f.Punts)
	}
	if f.Punts == 0 {
		t.Error("no punts: rules were not installed reactively")
	}
	if col.PacketIns == 0 || col.FlowMods == 0 {
		t.Errorf("control plane idle: packetins=%d flowmods=%d", col.PacketIns, col.FlowMods)
	}
	// The punt + install round trip must cost at least the control
	// latency before the first byte moves.
	if f.FCT() < 2*simtime.Millisecond {
		t.Errorf("FCT %v too fast for a reactive start", f.FCT())
	}
}

// TestIdleTimeoutExpiresAndReinstalls: reactive rules with a short idle
// timeout expire (FlowRemoved), and a later flow punts anew.
func TestIdleTimeoutExpiresAndReinstalls(t *testing.T) {
	topo := dumbbell(1e9)
	removed := 0
	ctrl := &recordingController{
		inner: controller.NewChain(&controller.ReactiveMAC{IdleTimeout: 50 * simtime.Millisecond}),
		onMsg: func(msg openflow.Message) {
			if _, ok := msg.(*openflow.FlowRemoved); ok {
				removed++
			}
		},
	}
	sim := New(Config{
		Topology: topo, Miss: dataplane.MissController,
		Controller: ctrl, ControlLatency: simtime.Millisecond,
	})
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	// Two short transfers far enough apart that the idle timeout fires in
	// between.
	d1 := cbr(h0, r0, 0, 1e6, 1e8)
	d2 := cbr(h0, r0, simtime.Time(simtime.Second), 1e6, 1e8)
	d2.Key.SrcPort = 41000
	sim.Load(traffic.Trace{d1, d2})
	col := mustRun(sim, simtime.Time(10*simtime.Second))
	for _, f := range col.Flows() {
		if !f.Completed {
			t.Errorf("flow %d: %s", f.ID, f.Outcome)
		}
		if f.Punts == 0 {
			t.Errorf("flow %d rode cached rules; idle timeout never evicted", f.ID)
		}
	}
	if removed == 0 {
		t.Error("no FlowRemoved notifications reached the controller")
	}
}

// TestMeterPolicesPackets: a meter on the path drops packets beyond its
// rate (token bucket), throttling a CBR flow's delivery.
func TestMeterPolicesPackets(t *testing.T) {
	topo := dumbbell(1e9)
	sim := New(Config{Topology: topo, Miss: dataplane.MissDrop})
	dataplane.InstallMACRoutes(sim.Network())
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	// Meter at the ingress switch: 1 Mbps against a 100 Mbps CBR.
	sw, _ := topo.AttachedSwitch(h0)
	net := sim.Network()
	net.Switches[sw].Apply(&openflow.MeterMod{
		Switch: sw, Op: openflow.MeterAdd, MeterID: 1, RateBps: 1e6,
	}, 0)
	net.Switches[sw].Apply(&openflow.FlowMod{
		Op: openflow.FlowAdd, Priority: 100,
		Match: header.Match{}.WithEthDst(addr.HostMAC(r0)),
		Instr: openflow.Instructions{Meter: 1}.WithGoto(1),
	}, 0)
	// Forwarding lives in table 1 so the metered entry can goto it.
	for _, swID := range topo.Switches() {
		next := topo.ECMPNextHops(r0, netgraph.HopCost)
		if len(next[swID]) == 0 {
			continue
		}
		out := topo.PortToward(swID, next[swID][0])
		net.Switches[swID].Apply(&openflow.FlowMod{
			Op: openflow.FlowAdd, Table: 1, Priority: 10,
			Match: header.Match{}.WithEthDst(addr.HostMAC(r0)),
			Instr: openflow.Apply(openflow.Output(out)),
		}, 0)
	}
	sim.Load(traffic.Trace{cbr(h0, r0, 0, 1e6, 1e8)})
	col := mustRun(sim, simtime.Time(10*simtime.Second))
	f := col.Flows()[0]
	if !f.Completed {
		t.Fatalf("outcome = %s", f.Outcome)
	}
	// 1e6 bits offered at 100 Mbps through a 1 Mbps meter: the token
	// bucket admits the initial burst, then the tail drops, so the
	// second switch sees only a fraction of the packets.
	if sim.PacketsForwarded() == 0 {
		t.Fatal("nothing forwarded")
	}
	admitted := float64(sim.counter) // switch hops ≈ admitted packets × hops
	if admitted >= f.SentBits/DataPacketBits*2 {
		t.Errorf("meter admitted everything: %g hops for %g packets",
			admitted, f.SentBits/DataPacketBits)
	}
}

// recordingController wraps a controller and observes every message.
type recordingController struct {
	inner flowsim.Controller
	onMsg func(openflow.Message)
}

func (r *recordingController) Start(ctx *flowsim.Context) { r.inner.Start(ctx) }
func (r *recordingController) Handle(ctx *flowsim.Context, msg openflow.Message) {
	if r.onMsg != nil {
		r.onMsg(msg)
	}
	r.inner.Handle(ctx, msg)
}

func TestStatsSampling(t *testing.T) {
	topo := dumbbell(1e8)
	sim := New(Config{Topology: topo, Miss: dataplane.MissDrop, StatsEvery: 50 * simtime.Millisecond})
	dataplane.InstallMACRoutes(sim.Network())
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	sim.Load(traffic.Trace{cbr(h0, r0, 0, 5e7, 1e8)})
	col := mustRun(sim, simtime.Time(2*simtime.Second))
	series := col.LinkSeries()
	if len(series) == 0 {
		t.Fatal("no samples")
	}
	sawBusy := false
	for _, smp := range series {
		if smp.UsedFrac > 0.5 {
			sawBusy = true
		}
		if smp.UsedFrac > 1.01 {
			t.Fatalf("utilization %g > 1", smp.UsedFrac)
		}
	}
	if !sawBusy {
		t.Error("busy bottleneck never observed")
	}
}
