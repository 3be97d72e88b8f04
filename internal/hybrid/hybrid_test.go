package hybrid

import (
	"math"
	"testing"

	"horse/internal/addr"
	"horse/internal/controller"
	"horse/internal/dataplane"
	"horse/internal/flowsim"
	"horse/internal/header"
	"horse/internal/linkmodel"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/packetsim"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/tcpmodel"
	"horse/internal/traffic"
)

// installMACRoutes pre-installs shortest-path MAC forwarding on every
// switch (the identical-state methodology of E3).
func installMACRoutes(net *dataplane.Network) {
	topo := net.Topo
	for _, host := range topo.Hosts() {
		next := topo.ECMPNextHops(host, netgraph.HopCost)
		for _, sw := range topo.Switches() {
			if len(next[sw]) == 0 {
				continue
			}
			out := topo.PortToward(sw, next[sw][0])
			if out == netgraph.NoPort {
				continue
			}
			net.Switches[sw].Apply(&openflow.FlowMod{
				Op: openflow.FlowAdd, Priority: 10,
				Match: header.Match{}.WithEthDst(addr.HostMAC(host)),
				Instr: openflow.Apply(openflow.Output(out)),
			}, 0)
		}
	}
}

func cbr(src, dst netgraph.NodeID, start simtime.Time, sizeBits, rateBps float64, sport uint16) traffic.Demand {
	return traffic.Demand{
		Key: addr.FlowKeyBetween(src, dst, header.ProtoUDP, sport, 80),
		Src: src, Dst: dst, Start: start,
		SizeBits: sizeBits, RateBps: rateBps,
	}
}

// fatTreeCBRScenario is the golden E3-style scenario: a k=4 fat-tree with
// pre-installed MAC routes and one CBR flow per pod-pair, sized so link
// shares are uncontended and the fluid FCT is exact.
func fatTreeCBRScenario() (*netgraph.Topology, traffic.Trace) {
	topo := netgraph.FatTree(4, netgraph.Gig)
	hosts := topo.Hosts()
	var tr traffic.Trace
	n := len(hosts)
	for i := 0; i < 6; i++ {
		src := hosts[i%n]
		dst := hosts[(i+n/2)%n]
		tr = append(tr, cbr(src, dst,
			simtime.Time(i)*simtime.Time(10*simtime.Millisecond),
			2e6, 5e7, uint16(30000+i)))
	}
	tr.Sort()
	return topo, tr
}

// TestGoldenFlowPacketParity is the flow/packet parity contract through
// the shared kernel: on identical pre-installed fat-tree state, both
// engines report the same completion set, and per-flow FCTs agree within
// tolerance (CBR without contention is near-fluid on both sides).
func TestGoldenFlowPacketParity(t *testing.T) {
	// Flow-level run.
	topoF, trF := fatTreeCBRScenario()
	simF := flowsim.New(flowsim.Config{
		Topology: topoF, Controller: flowsim.NopController{}, Miss: dataplane.MissDrop,
	})
	installMACRoutes(simF.Network())
	simF.Load(trF)
	colF := mustRun(simF, simtime.Time(simtime.Minute))

	// Packet-level run on identical state.
	topoP, trP := fatTreeCBRScenario()
	simP := packetsim.New(packetsim.Config{Topology: topoP, Miss: dataplane.MissDrop})
	installMACRoutes(simP.Network())
	simP.Load(trP)
	colP := mustRun(simP, simtime.Time(simtime.Minute))

	flowsF, flowsP := colF.Flows(), colP.Flows()
	if len(flowsF) != len(trF) || len(flowsP) != len(trP) {
		t.Fatalf("record counts: flow=%d packet=%d, want %d", len(flowsF), len(flowsP), len(trF))
	}
	// Same completion set. Both engines number flows in arrival order and
	// the trace is start-sorted, so IDs align.
	byID := func(rs []stats.FlowRecord) map[int64]stats.FlowRecord {
		m := make(map[int64]stats.FlowRecord)
		for _, r := range rs {
			m[r.ID] = r
		}
		return m
	}
	mF, mP := byID(flowsF), byID(flowsP)
	for id, rf := range mF {
		rp, ok := mP[id]
		if !ok {
			t.Fatalf("flow %d missing from packet run", id)
		}
		if rf.Completed != rp.Completed {
			t.Errorf("flow %d: completed flow=%v packet=%v", id, rf.Completed, rp.Completed)
			continue
		}
		if !rf.Completed {
			continue
		}
		fctF, fctP := rf.FCT().Seconds(), rp.FCT().Seconds()
		if fctP <= 0 {
			t.Errorf("flow %d: packet FCT %g", id, fctP)
			continue
		}
		if rel := math.Abs(fctF-fctP) / fctP; rel > 0.05 {
			t.Errorf("flow %d: FCT flow=%gs packet=%gs rel-err %g > 5%%", id, fctF, fctP, rel)
		}
	}
}

// reactiveScenario: a dumbbell with a reactive MAC controller and a small
// mixed workload — every flow must punt before it can move.
func reactiveScenario() (*netgraph.Topology, traffic.Trace) {
	topo := netgraph.Dumbbell(3, 3, netgraph.Gig,
		netgraph.LinkSpec{BandwidthBps: 2e8, Delay: simtime.Millisecond})
	var tr traffic.Trace
	for i := 0; i < 3; i++ {
		src := topo.MustLookup([]string{"h0", "h1", "h2"}[i])
		dst := topo.MustLookup([]string{"r0", "r1", "r2"}[i])
		d := cbr(src, dst, simtime.Time(i)*simtime.Time(20*simtime.Millisecond), 2e6, 5e7, uint16(32000+i))
		if i == 1 {
			d.TCP = true
			d.RateBps = math.Inf(1)
			d.Key.Proto = header.ProtoTCP
		}
		tr = append(tr, d)
	}
	tr.Sort()
	return topo, tr
}

// TestHybridFullPacketMatchesStandalone is the acceptance contract: at
// 100% packet fidelity a reactive (controller-driven) hybrid run produces
// the identical completion set — same flows, same outcomes, same FCTs —
// as the standalone controller-attached packet engine.
func TestHybridFullPacketMatchesStandalone(t *testing.T) {
	topoS, trS := reactiveScenario()
	standalone := packetsim.New(packetsim.Config{
		Topology: topoS, Miss: dataplane.MissController,
		Controller:     controller.NewChain(&controller.ReactiveMAC{}),
		ControlLatency: simtime.Millisecond,
	})
	standalone.Load(trS)
	colS := mustRun(standalone, simtime.Time(simtime.Minute))

	topoH, trH := reactiveScenario()
	hyb := New(Config{
		Topology: topoH, Miss: dataplane.MissController,
		Controller:     controller.NewChain(&controller.ReactiveMAC{}),
		ControlLatency: simtime.Millisecond,
		PacketLevel:    Fraction(1.0),
	})
	hyb.Load(trH)
	mustRun(hyb, simtime.Time(simtime.Minute))
	recs := hyb.Collector().Flows()

	flowsS := colS.Flows()
	if len(recs) != len(flowsS) {
		t.Fatalf("hybrid %d records vs standalone %d", len(recs), len(flowsS))
	}
	for i, rs := range flowsS {
		rh := recs[i]
		if rh.ID != rs.ID {
			t.Fatalf("record %d: id %d vs %d", i, rh.ID, rs.ID)
		}
		if rh.Completed != rs.Completed || rh.Outcome != rs.Outcome {
			t.Errorf("flow %d: hybrid (%v,%s) vs standalone (%v,%s)",
				rs.ID, rh.Completed, rh.Outcome, rs.Completed, rs.Outcome)
		}
		if rh.End != rs.End || rh.SentBits != rs.SentBits {
			t.Errorf("flow %d: hybrid end=%v sent=%g vs standalone end=%v sent=%g",
				rs.ID, rh.End, rh.SentBits, rs.End, rs.SentBits)
		}
	}
}

// TestHybridSplitRunsBothEngines: a 50% split simulates part of the trace
// per engine under one controller, and every flow completes.
func TestHybridSplitRunsBothEngines(t *testing.T) {
	topo, tr := reactiveScenario()
	hyb := New(Config{
		Topology: topo, Miss: dataplane.MissController,
		Controller:     controller.NewChain(&controller.ReactiveMAC{}),
		ControlLatency: simtime.Millisecond,
		TCP:            tcpmodel.Params{RTT: 2200 * simtime.Microsecond, MSS: 1500, InitialWindow: 10},
		PacketLevel:    Fraction(0.5),
	})
	hyb.Load(tr)
	col := mustRun(hyb, simtime.Time(simtime.Minute))
	if pkt, flow := hyb.Split(); pkt == 0 || flow == 0 {
		t.Fatalf("split degenerate: pkt=%d flow=%d", pkt, flow)
	}
	recs := col.Flows()
	if len(recs) != len(tr) {
		t.Fatalf("%d records for %d demands", len(recs), len(tr))
	}
	seen := map[int64]bool{}
	for _, r := range recs {
		if seen[r.ID] {
			t.Errorf("duplicate record for flow %d", r.ID)
		}
		seen[r.ID] = true
		if !r.Completed {
			t.Errorf("flow %d: %s", r.ID, r.Outcome)
		}
	}
	if hyb.PacketsForwarded() == 0 {
		t.Error("packet engine idle")
	}
	if col.EventsRun == 0 || col.PacketIns == 0 {
		t.Errorf("merged counters empty: events=%d packetins=%d", col.EventsRun, col.PacketIns)
	}
}

// TestHybridCouplingThrottlesPackets: flow-level background load on the
// shared bottleneck must slow a packet-level foreground transfer — the
// one-way capacity coupling. The same foreground without background
// finishes measurably faster.
func TestHybridCouplingThrottlesPackets(t *testing.T) {
	run := func(withBackground bool) simtime.Duration {
		topo := netgraph.Dumbbell(2, 2, netgraph.Gig,
			netgraph.LinkSpec{BandwidthBps: 1e8, Delay: simtime.Millisecond})
		h0, h1 := topo.MustLookup("h0"), topo.MustLookup("h1")
		r0, r1 := topo.MustLookup("r0"), topo.MustLookup("r1")
		var tr traffic.Trace
		// Demand 0: packet-level foreground, a backlogged 4e6-bit TCP
		// transfer across the shared 100 Mbps bottleneck (TCP so every
		// bit must actually traverse the residual capacity).
		fg := cbr(h0, r0, 0, 4e6, math.Inf(1), 30000)
		fg.TCP = true
		fg.Key.Proto = header.ProtoTCP
		tr = append(tr, fg)
		if withBackground {
			// Demand 1: flow-level background claiming ~80% of the
			// bottleneck for the whole window.
			bg := cbr(h1, r1, 0, math.Inf(1), 8e7, 30001)
			bg.Duration = 2 * simtime.Second
			tr = append(tr, bg)
		}
		hyb := New(Config{
			Topology: topo, Miss: dataplane.MissDrop,
			PacketLevel: func(i int, d traffic.Demand) bool { return i == 0 },
		})
		// Pre-install routes in the shared network so both fidelities
		// forward from t=0 (the E3 identical-state methodology).
		installMACRoutes(hyb.Network())
		hyb.Load(tr)
		mustRun(hyb, simtime.Time(10*simtime.Second))
		for _, r := range hyb.Collector().Flows() {
			if r.ID == 1 {
				if !r.Completed {
					t.Fatalf("foreground did not complete (background=%v)", withBackground)
				}
				return r.FCT()
			}
		}
		t.Fatalf("foreground record missing")
		return 0
	}
	alone := run(false)
	squeezed := run(true)
	// The background claims 80% of the bottleneck, so the squeezed run
	// must be clearly slower. (TCP loss recovery — RTO-floor bound —
	// dominates both runs, so the ratio lands well under the raw 5×
	// bandwidth ratio; the simulation is deterministic, so a 1.5×
	// threshold is stable.)
	if float64(squeezed) < 1.5*float64(alone) {
		t.Errorf("coupling missing: FCT alone %v vs with background %v", alone, squeezed)
	}
}

// TestHybridFailureAtDepartureMatchesStandalone: a link failure landing
// exactly when a lone frame finishes serializing loses that frame at the
// failure instant, as the standalone packet engine does. In a hybrid run
// the flow engine applies the failure, so the packet engine settles its
// port inside a flow-engine event and must judge the tie by that event's
// order key — not by the class of the last packet event (here the
// frame's own send, which orders after the instant's departures). The
// frame is the flow's last, so its loss dates the UDP record's End.
func TestHybridFailureAtDepartureMatchesStandalone(t *testing.T) {
	const packets = 4
	interval := 120 * simtime.Microsecond
	failAt := simtime.Time(packets-1) * simtime.Time(interval)
	failAt = failAt.Add(simtime.TransferTime(packetsim.DataPacketBits, 1e9))
	build := func() (*netgraph.Topology, traffic.Trace) {
		topo := netgraph.New()
		s0 := topo.AddSwitch("s0")
		h0, h1 := topo.AddHost("h0"), topo.AddHost("h1")
		topo.Connect(h0, s0, 1e9, 2*simtime.Microsecond) // link 0
		topo.Connect(s0, h1, 1e9, 2*simtime.Microsecond)
		rate := packetsim.DataPacketBits / interval.Seconds()
		return topo, traffic.Trace{cbr(h0, h1, 0, packets*packetsim.DataPacketBits, rate, 30000)}
	}
	until := simtime.Time(10 * simtime.Millisecond)

	topoS, trS := build()
	standalone := packetsim.New(packetsim.Config{Topology: topoS, Miss: dataplane.MissDrop})
	installMACRoutes(standalone.Network())
	standalone.Load(trS)
	standalone.ScheduleLinkChange(failAt, 0, false)
	colS := mustRun(standalone, until)

	topoH, trH := build()
	hyb := New(Config{Topology: topoH, Miss: dataplane.MissDrop, PacketLevel: Fraction(1)})
	installMACRoutes(hyb.Network())
	hyb.Load(trH)
	hyb.ScheduleLinkChange(failAt, 0, false)
	mustRun(hyb, until)

	rs, rh := colS.Flows(), hyb.Collector().Flows()
	if len(rs) != 1 || len(rh) != 1 {
		t.Fatalf("records: standalone %d, hybrid %d, want 1 each", len(rs), len(rh))
	}
	if rs[0].End != failAt {
		t.Fatalf("standalone End %v, want the failure instant %v", rs[0].End, failAt)
	}
	if rh[0] != rs[0] {
		t.Errorf("hybrid record %+v\nstandalone      %+v", rh[0], rs[0])
	}
	if lost := hyb.PacketCollector().PacketsLost; lost != colS.PacketsLost || lost != 1 {
		t.Errorf("packets lost: hybrid %d, standalone %d, want 1", lost, colS.PacketsLost)
	}
}

// TestHybridModelChangeMatchesStandalone: frames that left a lossy link
// before its model changes draw their corruption verdicts from the model
// they crossed, as in a standalone packet run. The flow engine applies the
// change to the shared registry, so the packet engine must settle the link
// first (BeforeLinkDegrade). Two senders fill s0's port toward h1; the
// change lands while that backlog drains, with several departed frames
// still propagating on the 100 µs link.
func TestHybridModelChangeMatchesStandalone(t *testing.T) {
	build := func() (*netgraph.Topology, traffic.Trace) {
		topo := netgraph.New()
		s0 := topo.AddSwitch("s0")
		h0, h1, h2 := topo.AddHost("h0"), topo.AddHost("h1"), topo.AddHost("h2")
		topo.Connect(h0, s0, 1e9, 2*simtime.Microsecond)
		topo.Connect(h2, s0, 1e9, 2*simtime.Microsecond)
		topo.Connect(s0, h1, 1e9, 100*simtime.Microsecond) // link 2
		size := 40.0 * packetsim.DataPacketBits
		return topo, traffic.Trace{cbr(h0, h1, 0, size, 1e9, 30000), cbr(h2, h1, 0, size, 1e9, 30001)}
	}
	changes := []struct {
		at simtime.Time
		m  linkmodel.Model
	}{
		{0, linkmodel.BernoulliLoss{P: 0.5}},
		{simtime.Time(700 * simtime.Microsecond), linkmodel.BernoulliLoss{P: 0.1}},
	}
	until := simtime.Time(10 * simtime.Millisecond)

	topoS, trS := build()
	standalone := packetsim.New(packetsim.Config{Topology: topoS, Miss: dataplane.MissDrop})
	installMACRoutes(standalone.Network())
	standalone.Load(trS)
	for _, c := range changes {
		standalone.ScheduleLinkDegrade(c.at, 2, c.m)
	}
	colS := mustRun(standalone, until)

	topoH, trH := build()
	hyb := New(Config{Topology: topoH, Miss: dataplane.MissDrop, PacketLevel: Fraction(1)})
	installMACRoutes(hyb.Network())
	hyb.Load(trH)
	for _, c := range changes {
		hyb.ScheduleLinkDegrade(c.at, 2, c.m)
	}
	mustRun(hyb, until)

	rs, rh := colS.Flows(), hyb.Collector().Flows()
	if len(rs) != 2 || len(rh) != 2 {
		t.Fatalf("records: standalone %d, hybrid %d, want 2 each", len(rs), len(rh))
	}
	for i := range rs {
		if rh[i] != rs[i] {
			t.Errorf("flow %d: hybrid %+v\n standalone %+v", i+1, rh[i], rs[i])
		}
	}
	if c := hyb.PacketCollector().PacketsCorrupted; c != colS.PacketsCorrupted || c == 0 {
		t.Errorf("corrupted frames: hybrid %d, standalone %d (want equal, nonzero)", c, colS.PacketsCorrupted)
	}
}
