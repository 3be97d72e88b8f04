package flowsim

import (
	"math"
	"testing"

	"horse/internal/addr"
	"horse/internal/dataplane"
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simtime"
	"horse/internal/traffic"
)

// proactiveMAC is a minimal proactive controller: on Start it installs
// MAC-destination shortest-path forwarding for every host on every switch.
type proactiveMAC struct{}

func (proactiveMAC) Start(ctx *Context) {
	topo := ctx.Topology()
	for _, host := range topo.Hosts() {
		hops := topo.ECMPNextHops(host, netgraph.HopCost)
		for _, sw := range topo.Switches() {
			nh := hops[sw]
			if len(nh) == 0 {
				continue
			}
			ctx.Send(&openflow.FlowMod{
				Switch: sw, Op: openflow.FlowAdd, Priority: 10,
				Match: header.Match{}.WithEthDst(addr.HostMAC(host)),
				Instr: openflow.Apply(openflow.Output(topo.PortToward(sw, nh[0]))),
			})
		}
	}
}

func (proactiveMAC) Handle(*Context, openflow.Message) {}

// reactivePath installs per-destination rules when a PacketIn arrives.
type reactivePath struct{}

func (reactivePath) Start(*Context) {}

func (reactivePath) Handle(ctx *Context, msg openflow.Message) {
	pin, ok := msg.(*openflow.PacketIn)
	if !ok {
		return
	}
	topo := ctx.Topology()
	dst := addr.HostOfMAC(pin.Key.EthDst)
	if dst < 0 {
		return
	}
	path := topo.ShortestPath(pin.Switch, dst, netgraph.HopCost)
	if path == nil {
		return
	}
	for i := 0; i+1 < len(path); i++ {
		ctx.Send(&openflow.FlowMod{
			Switch: path[i], Op: openflow.FlowAdd, Priority: 10,
			Match: header.Match{}.WithEthDst(pin.Key.EthDst),
			Instr: openflow.Apply(openflow.Output(topo.PortToward(path[i], path[i+1]))),
		})
	}
}

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

func dumbbellSim(t *testing.T, ctrl Controller, bottleneckBps float64) (*Simulator, *netgraph.Topology) {
	t.Helper()
	topo := netgraph.Dumbbell(2, 2, netgraph.Gig,
		netgraph.LinkSpec{BandwidthBps: bottleneckBps, Delay: simtime.Millisecond})
	sim := New(Config{Topology: topo, Controller: ctrl, Miss: dataplane.MissController})
	return sim, topo
}

func TestCBRFlowCompletes(t *testing.T) {
	sim, topo := dumbbellSim(t, proactiveMAC{}, 1e9)
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	// 1e8 bits at up to 1e8 bps: should take ~1s after the rules land.
	sim.Load(traffic.Trace{cbr(h0, r0, simtime.Time(10*simtime.Millisecond), 1e8, 1e8)})
	col := mustRun(sim, simtime.Never)
	flows := col.Flows()
	if len(flows) != 1 {
		t.Fatalf("records = %d", len(flows))
	}
	f := flows[0]
	if !f.Completed {
		t.Fatalf("flow outcome = %s", f.Outcome)
	}
	fct := f.FCT().Seconds()
	if fct < 0.99 || fct > 1.05 {
		t.Errorf("FCT = %gs, want ~1s", fct)
	}
	if math.Abs(f.SentBits-1e8) > 1 {
		t.Errorf("sent = %g, want 1e8", f.SentBits)
	}
	if err := sim.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestTwoCBRShareBottleneck(t *testing.T) {
	sim, topo := dumbbellSim(t, proactiveMAC{}, 1e8) // 100 Mbps bottleneck
	h0, h1 := topo.MustLookup("h0"), topo.MustLookup("h1")
	r0, r1 := topo.MustLookup("r0"), topo.MustLookup("r1")
	// Two 1e8-bit flows each demanding 1e8 bps: they share 1e8 bps, so
	// each gets 5e7 and takes ~2s.
	sim.Load(traffic.Trace{
		cbr(h0, r0, 0, 1e8, 1e8),
		cbr(h1, r1, 0, 1e8, 1e8),
	})
	col := mustRun(sim, simtime.Never)
	for _, f := range col.Flows() {
		if !f.Completed {
			t.Fatalf("flow %d outcome = %s", f.ID, f.Outcome)
		}
		if fct := f.FCT().Seconds(); fct < 1.9 || fct > 2.2 {
			t.Errorf("flow %d FCT = %g, want ~2s (fair share)", f.ID, fct)
		}
	}
}

func TestEarlyFlowSpeedsUpAfterDeparture(t *testing.T) {
	sim, topo := dumbbellSim(t, proactiveMAC{}, 1e8)
	h0, h1 := topo.MustLookup("h0"), topo.MustLookup("h1")
	r0, r1 := topo.MustLookup("r0"), topo.MustLookup("r1")
	// Short flow departs at ~1s; long flow then doubles its rate:
	// long: 0-1s at 5e7 (5e7 sent), then 1e8 until 1.5e8 total => ~2s.
	sim.Load(traffic.Trace{
		cbr(h0, r0, 0, 1.5e8, 1e8),
		cbr(h1, r1, 0, 0.5e8, 1e8),
	})
	col := mustRun(sim, simtime.Never)
	var long, short *float64
	for _, f := range col.Flows() {
		fct := f.FCT().Seconds()
		v := fct
		if f.SizeBits > 1e8 {
			long = &v
		} else {
			short = &v
		}
	}
	if long == nil || short == nil {
		t.Fatal("missing flows")
	}
	if *short < 0.95 || *short > 1.1 {
		t.Errorf("short FCT = %g, want ~1s", *short)
	}
	if *long < 1.95 || *long > 2.1 {
		t.Errorf("long FCT = %g, want ~2s", *long)
	}
}

func TestReactiveControllerInstallsPath(t *testing.T) {
	sim, topo := dumbbellSim(t, reactivePath{}, 1e9)
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	sim.Load(traffic.Trace{cbr(h0, r0, 0, 1e6, 1e8)})
	col := mustRun(sim, simtime.Never)
	f := col.Flows()[0]
	if !f.Completed {
		t.Fatalf("outcome = %s", f.Outcome)
	}
	if f.Punts == 0 {
		t.Error("reactive flow should have punted at least once")
	}
	if col.PacketIns == 0 || col.FlowMods == 0 {
		t.Error("control-plane counters not updated")
	}
	// Control latency delays the start: FCT must exceed pure transfer.
	if f.FCT() < 2*simtime.Millisecond {
		t.Errorf("FCT = %v, reactive setup latency missing", f.FCT())
	}
}

func TestDropMissBlackholes(t *testing.T) {
	topo := netgraph.Dumbbell(1, 1, netgraph.Gig, netgraph.TenGig)
	sim := New(Config{Topology: topo, Miss: dataplane.MissDrop})
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	sim.Load(traffic.Trace{cbr(h0, r0, 0, 1e6, 1e8)})
	col := mustRun(sim, simtime.Never)
	f := col.Flows()[0]
	if f.Completed || f.Outcome != "dropped" {
		t.Errorf("outcome = %s, want dropped", f.Outcome)
	}
	if col.FlowsDropped != 1 {
		t.Errorf("FlowsDropped = %d", col.FlowsDropped)
	}
}

func TestTCPSlowStartDelaysCompletion(t *testing.T) {
	sim, topo := dumbbellSim(t, proactiveMAC{}, 1e9)
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	sim.Load(traffic.Trace{tcp(h0, r0, 0, 1e7)}) // 10 Mbit transfer
	col := mustRun(sim, simtime.Never)
	f := col.Flows()[0]
	if !f.Completed {
		t.Fatalf("outcome = %s", f.Outcome)
	}
	// At pure line rate 1 Gbps the transfer would take 10ms; slow start
	// (IW10, RTT 10ms => ~11.7Mbps initial) forces several RTTs.
	if f.FCT() < 30*simtime.Millisecond {
		t.Errorf("FCT = %v, too fast for slow start", f.FCT())
	}
	if f.FCT() > simtime.Time(2*simtime.Second).Sub(0) {
		t.Errorf("FCT = %v, suspiciously slow", f.FCT())
	}
}

func TestDeadlineCBRFlow(t *testing.T) {
	sim, topo := dumbbellSim(t, proactiveMAC{}, 1e9)
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	d := cbr(h0, r0, 0, math.Inf(1), 1e8)
	d.Duration = 2 * simtime.Second
	sim.Load(traffic.Trace{d})
	col := mustRun(sim, simtime.Never)
	f := col.Flows()[0]
	if !f.Completed {
		t.Fatalf("outcome = %s", f.Outcome)
	}
	if fct := f.FCT().Seconds(); math.Abs(fct-2) > 0.01 {
		t.Errorf("deadline FCT = %g, want 2s", fct)
	}
	// ~2e8 bits at 1e8 bps for 2s (minus brief setup).
	if f.SentBits < 1.9e8 || f.SentBits > 2.05e8 {
		t.Errorf("sent = %g, want ~2e8", f.SentBits)
	}
}

func TestMeterPolicesCBR(t *testing.T) {
	sim, topo := dumbbellSim(t, proactiveMAC{}, 1e9)
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	sl := topo.MustLookup("sL")
	// Pre-install meter and a metered high-priority rule on sL.
	sw := sim.Network().Switches[sl]
	sw.Apply(&openflow.MeterMod{Op: openflow.MeterAdd, MeterID: 1, RateBps: 5e7}, 0)
	sim.Allocator().SetCapacity(sim.meterResource(sl, 1), 5e7)
	sr := topo.MustLookup("sR")
	sw.Apply(&openflow.FlowMod{
		Op: openflow.FlowAdd, Priority: 100,
		Match: header.Match{}.WithEthDst(addr.HostMAC(r0)),
		Instr: openflow.Apply(openflow.Output(topo.PortToward(sl, sr))).WithMeter(1),
	}, 0)
	sim.Load(traffic.Trace{cbr(h0, r0, 0, 1e8, 1e8)}) // wants 1e8, metered to 5e7
	col := mustRun(sim, simtime.Never)
	f := col.Flows()[0]
	if !f.Completed {
		t.Fatalf("outcome = %s", f.Outcome)
	}
	if fct := f.FCT().Seconds(); fct < 1.9 || fct > 2.2 {
		t.Errorf("metered FCT = %g, want ~2s (policed to half rate)", fct)
	}
}

func TestLinkFailureStallsThenRecovers(t *testing.T) {
	sim, topo := dumbbellSim(t, proactiveMAC{}, 1e9)
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	sl, sr := topo.MustLookup("sL"), topo.MustLookup("sR")
	bottleneck := topo.LinkAt(sl, topo.PortToward(sl, sr)).ID
	// Flow needs 1s at 1e8. Fail the core link from t=0.5s to t=1.5s: the
	// flow stalls for 1s and completes around t=2s.
	sim.Load(traffic.Trace{cbr(h0, r0, 0, 1e8, 1e8)})
	sim.ScheduleLinkChange(simtime.Time(500*simtime.Millisecond), bottleneck, false)
	sim.ScheduleLinkChange(simtime.Time(1500*simtime.Millisecond), bottleneck, true)
	col := mustRun(sim, simtime.Never)
	f := col.Flows()[0]
	if !f.Completed {
		t.Fatalf("outcome = %s", f.Outcome)
	}
	if fct := f.FCT().Seconds(); fct < 1.95 || fct > 2.15 {
		t.Errorf("FCT with outage = %g, want ~2s", fct)
	}
}

// TestLinkChangesAdvanceGen pins the dataplane.Switch.Gen contract on the
// flow engine: a scripted link flip, and the link flips a neighbor's crash
// and restart cause, change the decision generation of every switch whose
// port changed liveness. No controller is attached, so no FlowMod bumps
// Gen on its own.
func TestLinkChangesAdvanceGen(t *testing.T) {
	topo := netgraph.Dumbbell(1, 1, netgraph.Gig, netgraph.Gig)
	sim := New(Config{Topology: topo})
	sl, sr := topo.MustLookup("sL"), topo.MustLookup("sR")
	core := topo.LinkAt(sl, topo.PortToward(sl, sr)).ID
	left := sim.Network().Switch(sl)
	ms := func(n int) simtime.Time { return simtime.Time(n) * simtime.Time(simtime.Millisecond) }
	var gens []uint64
	for i := 1; i <= 5; i++ {
		sim.plane.After(ms(2*i).Sub(0), func() { gens = append(gens, left.Gen()) })
	}
	sim.ScheduleLinkChange(ms(3), core, false)
	sim.ScheduleLinkChange(ms(5), core, true)
	sim.ScheduleSwitchChange(ms(7), sr, false)
	sim.ScheduleSwitchChange(ms(9), sr, true)
	mustRun(sim, ms(20))
	if len(gens) != 5 {
		t.Fatalf("sampled Gen %d times, want 5", len(gens))
	}
	for i := 1; i < len(gens); i++ {
		if gens[i] <= gens[i-1] {
			t.Errorf("sL Gen did not advance across change %d: %v", i, gens)
		}
	}
}

func TestStatsTickSampling(t *testing.T) {
	topo := netgraph.Dumbbell(1, 1, netgraph.Gig, netgraph.TenGig)
	sim := New(Config{
		Topology: topo, Controller: proactiveMAC{}, Miss: dataplane.MissController,
		StatsEvery: 100 * simtime.Millisecond,
	})
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	sim.Load(traffic.Trace{cbr(h0, r0, 0, 1e9, 1e9)}) // 1s at 1 Gbps
	col := mustRun(sim, simtime.Time(1200*simtime.Millisecond))
	series := col.LinkSeries()
	if len(series) == 0 {
		t.Fatal("no samples")
	}
	// The host link (1 Gbps) should be fully utilized mid-transfer.
	var sawBusy bool
	for _, s := range series {
		if s.UsedFrac > 0.9 {
			sawBusy = true
		}
		if s.UsedFrac < 0 || s.UsedFrac > 1.000001 {
			t.Fatalf("utilization out of range: %g", s.UsedFrac)
		}
	}
	if !sawBusy {
		t.Error("never observed a busy link")
	}
}

func TestRunBoundCutsOff(t *testing.T) {
	sim, topo := dumbbellSim(t, proactiveMAC{}, 1e9)
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	sim.Load(traffic.Trace{cbr(h0, r0, 0, 1e9, 1e8)}) // would take 10s
	col := mustRun(sim, simtime.Time(simtime.Second))
	f := col.Flows()[0]
	if f.Completed {
		t.Error("flow should not have completed in 1s")
	}
	if f.Outcome != "running" {
		t.Errorf("outcome = %s, want running", f.Outcome)
	}
	// It transferred roughly 1s of traffic.
	if f.SentBits < 0.9e8 || f.SentBits > 1.1e8 {
		t.Errorf("sent = %g, want ~1e8", f.SentBits)
	}
}

func TestIdleTimeoutEvictsAndNotifies(t *testing.T) {
	// Controller installs a rule with a 50ms idle timeout; after the flow
	// finishes the entry expires and the controller receives FlowRemoved.
	removed := make(chan struct{}, 1)
	ctrl := &funcController{
		start: func(ctx *Context) {
			topo := ctx.Topology()
			for _, host := range topo.Hosts() {
				hops := topo.ECMPNextHops(host, netgraph.HopCost)
				for _, sw := range topo.Switches() {
					if len(hops[sw]) == 0 {
						continue
					}
					ctx.Send(&openflow.FlowMod{
						Switch: sw, Op: openflow.FlowAdd, Priority: 10,
						Match:       header.Match{}.WithEthDst(addr.HostMAC(host)),
						IdleTimeout: 50 * simtime.Millisecond,
						Instr:       openflow.Apply(openflow.Output(topo.PortToward(sw, hops[sw][0]))),
					})
				}
			}
		},
		handle: func(ctx *Context, msg openflow.Message) {
			if _, ok := msg.(*openflow.FlowRemoved); ok {
				select {
				case removed <- struct{}{}:
				default:
				}
			}
		},
	}
	topo := netgraph.Dumbbell(1, 1, netgraph.Gig, netgraph.TenGig)
	sim := New(Config{Topology: topo, Controller: ctrl, Miss: dataplane.MissDrop})
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	sim.Load(traffic.Trace{cbr(h0, r0, simtime.Time(5*simtime.Millisecond), 1e6, 1e8)})
	mustRun(sim, simtime.Time(simtime.Second))
	select {
	case <-removed:
	default:
		t.Error("FlowRemoved never arrived")
	}
	// Tables must be empty again.
	for _, sw := range sim.Network().Switches {
		for _, tb := range sw.Tables {
			if tb.Len() != 0 {
				t.Errorf("switch %d still has %d entries", sw.Node, tb.Len())
			}
		}
	}
}

// funcController adapts closures to the Controller interface.
type funcController struct {
	start  func(*Context)
	handle func(*Context, openflow.Message)
}

func (c *funcController) Start(ctx *Context) {
	if c.start != nil {
		c.start(ctx)
	}
}

func (c *funcController) Handle(ctx *Context, msg openflow.Message) {
	if c.handle != nil {
		c.handle(ctx, msg)
	}
}

// TestSendFlowModRecycles sends two rules at one instant by value: both
// land as sent, and once delivered both copies are back in the plane's
// pool for the next send.
func TestSendFlowModRecycles(t *testing.T) {
	topo := netgraph.Dumbbell(1, 1, netgraph.Gig, netgraph.TenGig)
	sw := topo.Switches()[0]
	hosts := topo.Hosts()
	ctrl := &funcController{start: func(ctx *Context) {
		for i, h := range hosts {
			ctx.SendFlowMod(openflow.FlowMod{
				Switch: sw, Op: openflow.FlowAdd, Priority: 10 + i,
				Match: header.Match{}.WithEthDst(addr.HostMAC(h)),
				Instr: openflow.Apply(openflow.Output(netgraph.PortNum(i + 1))),
			})
		}
		ctx.SendPacketOut(openflow.PacketOut{Switch: sw})
	}}
	sim := New(Config{Topology: topo, Controller: ctrl, Miss: dataplane.MissDrop})
	mustRun(sim, simtime.Time(10*simtime.Millisecond))
	tb := sim.Network().Switch(sw).Tables[0]
	if tb.Len() != len(hosts) {
		t.Fatalf("table holds %d entries, want %d", tb.Len(), len(hosts))
	}
	for i, h := range hosts {
		e := tb.Lookup(header.FlowKey{EthDst: addr.HostMAC(h)})
		if e == nil || e.Priority != 10+i {
			t.Errorf("host %d: entry %v, want priority %d", h, e, 10+i)
		}
	}
	if raceEnabled || testing.CoverMode() != "" {
		return
	}
	// AllocsPerRun pins GOMAXPROCS to 1, so no other goroutine allocates
	// inside the window. Its first call is a warm-up it does not count:
	// that call takes nothing, so the counted call is the first to take
	// the delivered copies out. It puts them back, leaving the pools as
	// the run left them.
	p := sim.plane
	fms := make([]*openflow.FlowMod, len(hosts))
	warm := true
	n := testing.AllocsPerRun(1, func() {
		if warm {
			warm = false
			return
		}
		for i := range fms {
			fms[i] = p.flowMods.Get()
		}
		po := p.packetOuts.Get()
		p.packetOuts.Put(po)
		for i := len(fms) - 1; i >= 0; i-- {
			p.flowMods.Put(fms[i])
		}
	})
	if n != 0 {
		t.Errorf("taking the delivered copies back out of the pools allocated %.0f times", n)
	}
	for _, fm := range fms {
		if fm.Instr.Actions != nil {
			t.Error("a recycled FlowMod still holds its actions")
		}
	}
}

func TestPortStatsRequestReply(t *testing.T) {
	var reply *openflow.PortStatsReply
	ctrl := &funcController{
		start: func(ctx *Context) {
			proactiveMAC{}.Start(ctx)
			ctx.After(500*simtime.Millisecond, func() {
				topo := ctx.Topology()
				ctx.Send(&openflow.PortStatsRequest{Switch: topo.MustLookup("sL"), Port: netgraph.NoPort})
			})
		},
		handle: func(ctx *Context, msg openflow.Message) {
			if r, ok := msg.(*openflow.PortStatsReply); ok {
				reply = r
			}
		},
	}
	topo := netgraph.Dumbbell(1, 1, netgraph.Gig, netgraph.TenGig)
	sim := New(Config{Topology: topo, Controller: ctrl, Miss: dataplane.MissController})
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	sim.Load(traffic.Trace{cbr(h0, r0, 0, 1e9, 1e9)})
	mustRun(sim, simtime.Time(2*simtime.Second))
	if reply == nil {
		t.Fatal("no PortStatsReply")
	}
	if len(reply.Stats) == 0 {
		t.Fatal("empty stats")
	}
	var sawTraffic bool
	for _, ps := range reply.Stats {
		if ps.TxRateBps > 0 || ps.TxBits > 0 {
			sawTraffic = true
		}
		if !ps.Up || ps.LinkBps <= 0 {
			t.Error("port metadata missing")
		}
	}
	if !sawTraffic {
		t.Error("port stats show no traffic during an active transfer")
	}
}

func TestManyFlowsDeterministic(t *testing.T) {
	run := func() (uint64, float64) {
		topo := netgraph.LeafSpine(4, 2, 4, netgraph.Gig, netgraph.TenGig)
		sim := New(Config{Topology: topo, Controller: proactiveMAC{}, Miss: dataplane.MissController})
		g := traffic.NewGenerator(42)
		tr := g.PoissonArrivals(traffic.PoissonConfig{
			Hosts: topo.Hosts(), Lambda: 200, Horizon: 2 * simtime.Second,
			Sizes: traffic.Pareto{XMin: 1e5, Alpha: 1.4}, TCPFraction: 0.5, CBRRateBps: 1e7,
		})
		sim.Load(tr)
		col := mustRun(sim, simtime.Never)
		var totalSent float64
		for _, f := range col.Flows() {
			totalSent += f.SentBits
		}
		return col.EventsRun, totalSent
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Errorf("nondeterministic: events %d vs %d, sent %g vs %g", e1, e2, s1, s2)
	}
	if e1 == 0 || s1 == 0 {
		t.Error("suspiciously empty run")
	}
}

func TestAllFlowsAccounted(t *testing.T) {
	topo := netgraph.LeafSpine(3, 2, 3, netgraph.Gig, netgraph.TenGig)
	sim := New(Config{Topology: topo, Controller: proactiveMAC{}, Miss: dataplane.MissController})
	g := traffic.NewGenerator(1)
	tr := g.PoissonArrivals(traffic.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 100, Horizon: simtime.Second,
		Sizes: traffic.FixedSize(1e6), TCPFraction: 0.3, CBRRateBps: 1e7,
	})
	sim.Load(tr)
	col := mustRun(sim, simtime.Never)
	if got := len(col.Flows()); got != len(tr) {
		t.Errorf("records = %d, trace = %d", got, len(tr))
	}
	if col.FlowsStarted != uint64(len(tr)) {
		t.Errorf("FlowsStarted = %d", col.FlowsStarted)
	}
	for _, f := range col.Flows() {
		if !f.Completed {
			t.Errorf("flow %d: outcome %s", f.ID, f.Outcome)
		}
	}
}
