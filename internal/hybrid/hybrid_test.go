package hybrid

import (
	"math"
	"reflect"
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
	dataplane.InstallMACRoutes(simF.Network())
	simF.Load(trF)
	colF := mustRun(simF, simtime.Time(simtime.Minute))

	// Packet-level run on identical state.
	topoP, trP := fatTreeCBRScenario()
	simP := packetsim.New(packetsim.Config{Topology: topoP, Miss: dataplane.MissDrop})
	dataplane.InstallMACRoutes(simP.Network())
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

// dynamics is the scripting surface both engines offer.
type dynamics interface {
	ScheduleLinkChange(at simtime.Time, link netgraph.LinkID, up bool)
	ScheduleSwitchChange(at simtime.Time, sw netgraph.NodeID, up bool)
	ScheduleControllerChange(at simtime.Time, attached bool)
	ScheduleLinkDegrade(at simtime.Time, link netgraph.LinkID, m linkmodel.Model)
}

// parityCase is one scripted run that a hybrid engine at 100% packet
// level must reproduce exactly.
type parityCase struct {
	name  string
	build func() (*netgraph.Topology, traffic.Trace)
	// reactive runs ReactiveMAC over table-miss punts; otherwise switches
	// drop misses and forward over pre-installed MAC routes.
	reactive bool
	script   func(d dynamics)
	until    simtime.Time
	// check asserts that the standalone run exercised what the case names.
	check func(t *testing.T, recs []stats.FlowRecord, col *stats.Collector)
}

// TestHybridFullPacketMatchesStandalone is the acceptance contract of the
// one control plane: at 100% packet fidelity a hybrid run produces the
// records — same flows, outcomes, FCTs, bytes — and the loss, corruption,
// punt and rule-install counts of the standalone packet engine, with the
// controller attached or not, across every kind of scripted dynamics.
func TestHybridFullPacketMatchesStandalone(t *testing.T) {
	ms := func(n float64) simtime.Time { return simtime.Time(n * float64(simtime.Millisecond)) }
	// The reactive dumbbell's bottleneck is link 0 between sL (node 0) and
	// sR; flow 0 starts at 0, and its first packet reaches sL at 62 µs.
	const bottleneck, sL = netgraph.LinkID(0), netgraph.NodeID(0)
	lost := func(t *testing.T, _ []stats.FlowRecord, col *stats.Collector) {
		if col.PacketsLost == 0 {
			t.Error("standalone run lost no packets")
		}
	}
	cases := []parityCase{
		{name: "reactive", build: reactiveScenario, reactive: true, until: simtime.Time(simtime.Minute)},
		{
			name: "link-down-up", build: reactiveScenario, reactive: true, until: simtime.Time(simtime.Minute),
			script: func(d dynamics) {
				d.ScheduleLinkChange(ms(10), bottleneck, false)
				d.ScheduleLinkChange(ms(30), bottleneck, true)
			},
			check: lost,
		},
		{
			// Before the first rules install at 1 ms every packet of flow 0
			// parks at sL; the crash loses them.
			name: "switch-crash-restart-punts-parked", build: reactiveScenario, reactive: true, until: simtime.Time(simtime.Minute),
			script: func(d dynamics) {
				d.ScheduleSwitchChange(ms(0.7), sL, false)
				d.ScheduleSwitchChange(ms(5), sL, true)
			},
			check: lost,
		},
		{
			// Detached from the start, every punt parks with its PacketIn
			// lost; the reattach re-announces them all.
			name: "controller-detach-reattach-punts-parked", build: reactiveScenario, reactive: true, until: simtime.Time(simtime.Minute),
			script: func(d dynamics) {
				d.ScheduleControllerChange(0, false)
				d.ScheduleControllerChange(ms(10), true)
			},
			check: func(t *testing.T, recs []stats.FlowRecord, col *stats.Collector) {
				if col.PacketIns <= uint64(len(recs)) {
					t.Errorf("%d PacketIns for %d flows: nothing re-announced", col.PacketIns, len(recs))
				}
			},
		},
		{
			name: "link-model-install-removal", build: reactiveScenario, reactive: true, until: simtime.Time(simtime.Minute),
			script: func(d dynamics) {
				d.ScheduleLinkDegrade(ms(5), bottleneck, linkmodel.BernoulliLoss{P: 0.2})
				d.ScheduleLinkDegrade(ms(50), bottleneck, nil)
			},
			check: func(t *testing.T, _ []stats.FlowRecord, col *stats.Collector) {
				if col.PacketsCorrupted == 0 {
					t.Error("no frame corrupted under the installed model")
				}
			},
		},
		failureAtDeparture(),
		modelChangeMidBacklog(),
		rateModelMidBacklog(),
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			miss, ctrl := dataplane.MissDrop, func() flowsim.Controller { return nil }
			if c.reactive {
				miss = dataplane.MissController
				ctrl = func() flowsim.Controller { return controller.NewChain(&controller.ReactiveMAC{}) }
			}
			script := func(d dynamics) {
				if c.script != nil {
					c.script(d)
				}
			}

			topoS, trS := c.build()
			standalone := packetsim.New(packetsim.Config{
				Topology: topoS, Miss: miss, Controller: ctrl(), ControlLatency: simtime.Millisecond,
			})
			if !c.reactive {
				dataplane.InstallMACRoutes(standalone.Network())
			}
			standalone.Load(trS)
			script(standalone)
			colS := mustRun(standalone, c.until)

			topoH, trH := c.build()
			hyb := New(Config{
				Topology: topoH, Miss: miss, Controller: ctrl(), ControlLatency: simtime.Millisecond,
				PacketLevel: Fraction(1.0),
			})
			if !c.reactive {
				dataplane.InstallMACRoutes(hyb.Network())
			}
			hyb.Load(trH)
			script(hyb)
			colH := mustRun(hyb, c.until)

			rs, rh := colS.Flows(), colH.Flows()
			if len(rs) != len(trS) || len(rh) != len(rs) {
				t.Fatalf("records: standalone %d, hybrid %d, want %d", len(rs), len(rh), len(trS))
			}
			for i := range rs {
				if rh[i] != rs[i] {
					t.Errorf("record %d: hybrid %+v\n standalone   %+v", i, rh[i], rs[i])
				}
			}
			if colH.PacketsLost != colS.PacketsLost || colH.PacketsCorrupted != colS.PacketsCorrupted ||
				colH.PacketIns != colS.PacketIns || colH.FlowMods != colS.FlowMods {
				t.Errorf("lost/corrupted/packet-ins/flow-mods: hybrid %d/%d/%d/%d, standalone %d/%d/%d/%d",
					colH.PacketsLost, colH.PacketsCorrupted, colH.PacketIns, colH.FlowMods,
					colS.PacketsLost, colS.PacketsCorrupted, colS.PacketIns, colS.FlowMods)
			}
			if c.reactive && colS.FlowMods == 0 {
				t.Error("the controller installed nothing")
			}
			if c.check != nil {
				c.check(t, rs, colS)
			}
		})
	}
}

// failureAtDeparture: a link failure landing exactly when a lone frame
// finishes serializing loses that frame at the failure instant. The
// control plane applies the failure, so the packet engine settles its
// port inside a control-plane event and must judge the tie by that
// event's order key — not by the class of the last packet event (here the
// frame's own send, which orders after the instant's departures). The
// frame is the flow's last, so its loss dates the UDP record's End.
func failureAtDeparture() parityCase {
	const packets = 4
	interval := 120 * simtime.Microsecond
	failAt := simtime.Time(packets-1) * simtime.Time(interval)
	failAt = failAt.Add(simtime.TransferTime(packetsim.DataPacketBits, 1e9))
	return parityCase{
		name: "failure-at-departure",
		build: func() (*netgraph.Topology, traffic.Trace) {
			topo := netgraph.New()
			s0 := topo.AddSwitch("s0")
			h0, h1 := topo.AddHost("h0"), topo.AddHost("h1")
			topo.Connect(h0, s0, 1e9, 2*simtime.Microsecond) // link 0
			topo.Connect(s0, h1, 1e9, 2*simtime.Microsecond)
			rate := packetsim.DataPacketBits / interval.Seconds()
			return topo, traffic.Trace{cbr(h0, h1, 0, packets*packetsim.DataPacketBits, rate, 30000)}
		},
		script: func(d dynamics) { d.ScheduleLinkChange(failAt, 0, false) },
		until:  simtime.Time(10 * simtime.Millisecond),
		check: func(t *testing.T, recs []stats.FlowRecord, col *stats.Collector) {
			if recs[0].End != failAt || col.PacketsLost != 1 {
				t.Errorf("End %v with %d lost, want the failure instant %v with 1 lost", recs[0].End, col.PacketsLost, failAt)
			}
		},
	}
}

// modelChangeMidBacklog: frames that left a lossy link before its model
// changes draw their corruption verdicts from the model they crossed, so
// the packet engine settles the link before the plane swaps the model.
// Two senders fill s0's port toward h1; the change lands while that
// backlog drains, with several departed frames still propagating on the
// 100 µs link.
func modelChangeMidBacklog() parityCase {
	return parityCase{
		name: "model-change-mid-backlog",
		build: func() (*netgraph.Topology, traffic.Trace) {
			topo := netgraph.New()
			s0 := topo.AddSwitch("s0")
			h0, h1, h2 := topo.AddHost("h0"), topo.AddHost("h1"), topo.AddHost("h2")
			topo.Connect(h0, s0, 1e9, 2*simtime.Microsecond)
			topo.Connect(h2, s0, 1e9, 2*simtime.Microsecond)
			topo.Connect(s0, h1, 1e9, 100*simtime.Microsecond) // link 2
			size := 40.0 * packetsim.DataPacketBits
			return topo, traffic.Trace{cbr(h0, h1, 0, size, 1e9, 30000), cbr(h2, h1, 0, size, 1e9, 30001)}
		},
		script: func(d dynamics) {
			d.ScheduleLinkDegrade(0, 2, linkmodel.BernoulliLoss{P: 0.5})
			d.ScheduleLinkDegrade(simtime.Time(700*simtime.Microsecond), 2, linkmodel.BernoulliLoss{P: 0.1})
		},
		until: simtime.Time(10 * simtime.Millisecond),
		check: func(t *testing.T, _ []stats.FlowRecord, col *stats.Collector) {
			if col.PacketsCorrupted == 0 {
				t.Error("no frame corrupted")
			}
		},
	}
}

// rateModelMidBacklog: a rate-adapting model installed and removed while
// s0's port toward h1 holds a backlog re-times the queued frames both
// times, so the packet engine re-times after the plane swaps the model.
func rateModelMidBacklog() parityCase {
	c := modelChangeMidBacklog()
	c.name = "rate-model-mid-backlog"
	c.script = func(d dynamics) {
		d.ScheduleLinkDegrade(simtime.Time(300*simtime.Microsecond), 2, linkmodel.AdaptiveRate{Levels: 4, Floor: 0.25, Every: 50 * simtime.Microsecond})
		d.ScheduleLinkDegrade(simtime.Time(700*simtime.Microsecond), 2, nil)
	}
	c.check = func(t *testing.T, recs []stats.FlowRecord, _ *stats.Collector) {
		// At line rate both flows' 80 frames leave s0 by 962 µs.
		if end := max(recs[0].End, recs[1].End); end < simtime.Time(simtime.Millisecond+100*simtime.Microsecond) {
			t.Errorf("last flow ends at %v: the model did not slow the backlog", end)
		}
	}
	return c
}

// portPoller polls every switch's port counters every 200 ms for the
// first second and keeps the replies.
type portPoller struct{ replies []openflow.PortStatsReply }

func (*portPoller) Name() string { return "port-poller" }

func (p *portPoller) Start(ctx *flowsim.Context) {
	ctx.After(200*simtime.Millisecond, func() {
		for _, sw := range ctx.Topology().Switches() {
			ctx.Send(&openflow.PortStatsRequest{Switch: sw, Port: netgraph.NoPort})
		}
		if ctx.Now() < simtime.Time(simtime.Second) {
			p.Start(ctx)
		}
	})
}

func (p *portPoller) Handle(_ *flowsim.Context, msg openflow.Message) {
	if r, ok := msg.(*openflow.PortStatsReply); ok {
		p.replies = append(p.replies, *r)
	}
}

// TestHybridPortStatsCountPackets: a hybrid run's PortStatsReply sums the
// counters of both engines, so at 100% packet level it answers exactly
// what the standalone packet engine does — bits and rates.
func TestHybridPortStatsCountPackets(t *testing.T) {
	topoS, trS := reactiveScenario()
	pollS := &portPoller{}
	standalone := packetsim.New(packetsim.Config{
		Topology: topoS, Miss: dataplane.MissController,
		Controller: controller.NewChain(&controller.ReactiveMAC{}, pollS),
	})
	standalone.Load(trS)
	mustRun(standalone, simtime.Time(simtime.Minute))

	topoH, trH := reactiveScenario()
	pollH := &portPoller{}
	hyb := New(Config{
		Topology: topoH, Miss: dataplane.MissController,
		Controller:  controller.NewChain(&controller.ReactiveMAC{}, pollH),
		PacketLevel: Fraction(1.0),
	})
	hyb.Load(trH)
	mustRun(hyb, simtime.Time(simtime.Minute))

	if len(pollS.replies) == 0 || !reflect.DeepEqual(pollH.replies, pollS.replies) {
		t.Fatalf("hybrid replies %+v\nstandalone     %+v", pollH.replies, pollS.replies)
	}
	var bits float64
	for _, r := range pollS.replies {
		for _, ps := range r.Stats {
			bits += ps.TxBits
		}
	}
	if bits == 0 {
		t.Error("no port carried traffic")
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
		dataplane.InstallMACRoutes(hyb.Network())
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

// TestHybridRetimeFreesEveryPacket: flow-level background flows start and
// stop while packet-level transfers hold a backlog at the shared
// bottleneck, so every rate shift re-times queued frames under fresh
// copies. Once the run quiesces, the packet engine has freed each packet
// it allocated, the replaced originals included.
func TestHybridRetimeFreesEveryPacket(t *testing.T) {
	topo := netgraph.Dumbbell(2, 2, netgraph.Gig,
		netgraph.LinkSpec{BandwidthBps: 1e8, Delay: simtime.Millisecond})
	h0, h1 := topo.MustLookup("h0"), topo.MustLookup("h1")
	r0, r1 := topo.MustLookup("r0"), topo.MustLookup("r1")
	var tr traffic.Trace
	for i := 0; i < 2; i++ {
		fg := cbr(h0, r0, simtime.Time(i)*simtime.Time(5*simtime.Millisecond), 4e6, math.Inf(1), uint16(30000+i))
		fg.TCP = true
		fg.Key.Proto = header.ProtoTCP
		tr = append(tr, fg)
	}
	for i := 0; i < 4; i++ {
		bg := cbr(h1, r1, simtime.Time(i)*simtime.Time(20*simtime.Millisecond), math.Inf(1), 2e7, uint16(31000+i))
		bg.Duration = 50 * simtime.Millisecond
		tr = append(tr, bg)
	}
	hyb := New(Config{
		Topology: topo, Miss: dataplane.MissDrop,
		PacketLevel: func(_ int, d traffic.Demand) bool { return d.TCP },
	})
	dataplane.InstallMACRoutes(hyb.Network())
	hyb.Load(tr)
	col := mustRun(hyb, simtime.Never)
	for _, r := range col.Flows() {
		if !r.Completed {
			t.Fatalf("flow %d: %s", r.ID, r.Outcome)
		}
	}
	if hyb.PacketsForwarded() == 0 {
		t.Fatal("packet engine idle")
	}
	if held := hyb.pkt.PacketsHeld(); held != 0 {
		t.Errorf("%d packets never freed after the run quiesced", held)
	}
}
