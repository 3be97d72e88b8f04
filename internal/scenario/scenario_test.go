package scenario

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"horse/internal/addr"
	"horse/internal/controller"
	"horse/internal/dataplane"
	"horse/internal/eventq"
	"horse/internal/flowsim"
	"horse/internal/header"
	"horse/internal/hybrid"
	"horse/internal/netgraph"
	"horse/internal/packetsim"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

func cbr(src, dst netgraph.NodeID, start simtime.Time, sizeBits, rateBps float64, sport uint16) traffic.Demand {
	return traffic.Demand{
		Key: addr.FlowKeyBetween(src, dst, header.ProtoUDP, sport, 80),
		Src: src, Dst: dst, Start: start,
		SizeBits: sizeBits, RateBps: rateBps,
	}
}

func TestTimelineBuilderOrdersEvents(t *testing.T) {
	tl := New().
		LinkUp(2*simtime.Time(simtime.Second), 1).
		LinkDown(simtime.Time(simtime.Second), 1).
		ControllerOutage(simtime.Time(simtime.Second), 3*simtime.Time(simtime.Second))
	evs := tl.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("events out of order: %v after %v", evs[i].At, evs[i-1].At)
		}
	}
	// Same-instant ties keep insertion order: LinkDown was added before
	// the ControllerDetach at the same instant.
	if evs[0].Kind != LinkDown || evs[1].Kind != ControllerDetach {
		t.Errorf("tie-break broken: got %v, %v", evs[0].Kind, evs[1].Kind)
	}
	if tl.Failures() != 2 {
		t.Errorf("failures = %d, want 2 (link down + detach)", tl.Failures())
	}
	if first, ok := tl.FirstFailure(); !ok || first != simtime.Time(simtime.Second) {
		t.Errorf("first failure = %v, %v", first, ok)
	}
}

func TestRandomLinkFailuresReproducible(t *testing.T) {
	topo := netgraph.LeafSpine(4, 2, 2, netgraph.Gig, netgraph.TenGig)
	cfg := FailureConfig{
		Seed: 42, MTBF: simtime.Second, Recovery: 100 * simtime.Millisecond,
		Horizon: simtime.Time(5 * simtime.Second), CoreOnly: true,
	}
	a, b := RandomLinkFailures(topo, cfg).Events(), RandomLinkFailures(topo, cfg).Events()
	if len(a) == 0 {
		t.Fatal("no failures generated")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].Kind != b[i].Kind || a[i].Link != b[i].Link {
			t.Fatalf("same seed diverged at event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Degenerate configs yield empty timelines instead of hanging or
	// exploding (a negative recovery would walk time backwards forever).
	for _, bad := range []FailureConfig{
		{Seed: 1, MTBF: 0, Recovery: cfg.Recovery, Horizon: cfg.Horizon},
		{Seed: 1, MTBF: cfg.MTBF, Recovery: cfg.Recovery, Horizon: 0},
		{Seed: 1, MTBF: cfg.MTBF, Recovery: -simtime.Second, Horizon: cfg.Horizon},
	} {
		if evs := RandomLinkFailures(topo, bad).Events(); len(evs) != 0 {
			t.Errorf("degenerate config %+v produced %d events", bad, len(evs))
		}
	}

	cfg.Seed = 43
	c := RandomLinkFailures(topo, cfg).Events()
	same := len(c) == len(a)
	if same {
		for i := range a {
			if a[i].At != c[i].At {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical timelines")
	}
	// Only core links fail, each down paired with an up one Recovery later.
	downAt := make(map[netgraph.LinkID]simtime.Time)
	for _, e := range a {
		switch e.Kind {
		case LinkDown:
			if e.At >= cfg.Horizon {
				t.Errorf("failure at %v beyond horizon", e.At)
			}
			l := topo.Link(e.Link)
			if topo.Node(l.A).Kind != netgraph.KindSwitch || topo.Node(l.B).Kind != netgraph.KindSwitch {
				t.Errorf("CoreOnly failed a host link %d", e.Link)
			}
			downAt[e.Link] = e.At
		case LinkUp:
			if want := downAt[e.Link].Add(cfg.Recovery); e.At != want {
				t.Errorf("link %d recovered at %v, want %v", e.Link, e.At, want)
			}
		}
	}
}

// outageScenario is the scripted single-link failure every engine replays:
// a 4-switch ring, proactive MAC forwarding, three CBR flows. The direct
// s0–s1 link dies at 1s (mid-flight for the affected flows) and recovers
// at 3s.
func outageScenario() (*netgraph.Topology, traffic.Trace, *Timeline) {
	topo := netgraph.Ring(4, netgraph.Gig, netgraph.TenGig)
	h := func(n string) netgraph.NodeID { return topo.MustLookup(n) }
	tr := traffic.Trace{
		cbr(h("h0"), h("h1"), 0, 1e8, 5e7, 30000), // crosses the dying link
		cbr(h("h1"), h("h0"), 0, 1e8, 5e7, 30001), // reverse direction
		cbr(h("h2"), h("h3"), 0, 1e8, 5e7, 30002), // unaffected
	}
	s0, s1 := h("s0"), h("s1")
	direct := topo.LinkAt(s0, topo.PortToward(s0, s1)).ID
	tl := New().LinkOutage(simtime.Time(simtime.Second), simtime.Time(3*simtime.Second), direct)
	return topo, tr, tl
}

const outageWindow = simtime.Time(5 * simtime.Second)

func outageController() flowsim.Controller {
	return controller.NewChain(&controller.ProactiveMAC{})
}

// TestScriptedOutageAcceptance is the PR's acceptance contract: one
// scripted failure at t with recovery at t' shows packet-level loss > 0,
// a flow-level stall, and the hybrid at 100% packet share matching the
// standalone packet engine record-for-record.
func TestScriptedOutageAcceptance(t *testing.T) {
	// Flow level: the affected flows stall while the controller
	// reconverges, so they finish late (pure transfer time is 2s).
	topoF, trF, tlF := outageScenario()
	simF := flowsim.New(flowsim.Config{
		Topology: topoF, Controller: outageController(), Miss: dataplane.MissController,
		ControlLatency: simtime.Millisecond,
	})
	tlF.Apply(simF, simtime.Never)
	simF.Load(trF)
	colF := mustRun(simF, outageWindow)
	recsF := colF.Flows()
	if len(recsF) != 3 {
		t.Fatalf("flow records = %d", len(recsF))
	}
	for _, r := range recsF {
		if !r.Completed {
			t.Fatalf("flow %d: %s", r.ID, r.Outcome)
		}
	}
	stallF := false
	for _, r := range recsF {
		if r.FCT() > 2*simtime.Second+simtime.Millisecond {
			stallF = true
		}
	}
	if !stallF {
		t.Error("no flow-level stall: every FCT within 1ms of the undisturbed 2s")
	}
	if colF.PathChanges == 0 {
		t.Error("flow engine never rerouted")
	}
	if out := Evaluate(tlF, colF, nil); out.RerouteLatency <= 0 {
		t.Errorf("reroute latency = %v, want > 0 (controller round trip)", out.RerouteLatency)
	}

	// Packet level: packets queued, in flight, or offered during the
	// outage are lost and counted.
	topoP, trP, tlP := outageScenario()
	simP := packetsim.New(packetsim.Config{
		Topology: topoP, Controller: outageController(), Miss: dataplane.MissController,
		ControlLatency: simtime.Millisecond,
	})
	tlP.Apply(simP, simtime.Never)
	simP.Load(trP)
	colP := mustRun(simP, outageWindow)
	if colP.PacketsLost == 0 {
		t.Error("packet engine lost no packets across a link failure")
	}
	for _, r := range colP.Flows() {
		if !r.Completed {
			t.Fatalf("packet flow %d: %s", r.ID, r.Outcome)
		}
	}

	// Hybrid at 100% packet share: identical records to the standalone
	// packet engine — same flows, outcomes, end times, bytes, losses.
	topoH, trH, tlH := outageScenario()
	hyb := hybrid.New(hybrid.Config{
		Topology: topoH, Controller: outageController(), Miss: dataplane.MissController,
		ControlLatency: simtime.Millisecond,
		PacketLevel:    hybrid.Fraction(1),
	})
	tlH.Apply(hyb, simtime.Never)
	hyb.Load(trH)
	mustRun(hyb, outageWindow)
	recsH := hyb.Collector().Flows()
	recsP := colP.Flows()
	if len(recsH) != len(recsP) {
		t.Fatalf("hybrid %d records vs standalone %d", len(recsH), len(recsP))
	}
	for i, rp := range recsP {
		rh := recsH[i]
		if rh.ID != rp.ID || rh.Completed != rp.Completed || rh.Outcome != rp.Outcome ||
			rh.End != rp.End || rh.SentBits != rp.SentBits {
			t.Errorf("record %d diverged: hybrid %+v vs standalone %+v", i, rh, rp)
		}
	}
	if got, want := hyb.Collector().PacketsLost, colP.PacketsLost; got != want {
		t.Errorf("hybrid lost %d packets, standalone %d", got, want)
	}
}

// TestGoldenCrossEngineFailureParity is the cross-engine contract for the
// scripted single-link failure: flowsim and packetsim arrive at the same
// reroute decision (identical post-event forwarding walk) and the same
// recovered-flow set.
func TestGoldenCrossEngineFailureParity(t *testing.T) {
	runFlow := func() (*stats.Collector, *flowsim.Simulator, traffic.Trace) {
		topo, tr, tl := outageScenario()
		sim := flowsim.New(flowsim.Config{
			Topology: topo, Controller: outageController(), Miss: dataplane.MissController,
			ControlLatency: simtime.Millisecond,
		})
		tl.Apply(sim, simtime.Never)
		sim.Load(tr)
		return mustRun(sim, outageWindow), sim, tr
	}
	runPkt := func() (*stats.Collector, *packetsim.Simulator, traffic.Trace) {
		topo, tr, tl := outageScenario()
		sim := packetsim.New(packetsim.Config{
			Topology: topo, Controller: outageController(), Miss: dataplane.MissController,
			ControlLatency: simtime.Millisecond,
		})
		tl.Apply(sim, simtime.Never)
		sim.Load(tr)
		return mustRun(sim, outageWindow), sim, tr
	}
	colF, simF, trF := runFlow()
	colP, simP, _ := runPkt()

	// Recovered-flow set: both engines number flows in trace order.
	recF, recP := colF.Flows(), colP.Flows()
	completed := func(rs []stats.FlowRecord) map[int64]bool {
		m := make(map[int64]bool)
		for _, r := range rs {
			if r.Completed {
				m[r.ID] = true
			}
		}
		return m
	}
	cF, cP := completed(recF), completed(recP)
	if len(cF) != len(cP) {
		t.Fatalf("recovered sets differ: flow=%d packet=%d", len(cF), len(cP))
	}
	for id := range cF {
		if !cP[id] {
			t.Errorf("flow %d recovered at flow level but not at packet level", id)
		}
	}

	// Reroute decision: after the run (link recovered, controller
	// reconverged) both data planes forward every demand over the same
	// hop sequence.
	for _, d := range trF {
		resF := simF.Network().Walk(d.Key, d.Src, d.Dst)
		resP := simP.Network().Walk(d.Key, d.Src, d.Dst)
		if resF.Terminal != dataplane.Delivered || resP.Terminal != dataplane.Delivered {
			t.Fatalf("post-run walk not delivered: flow=%v packet=%v", resF.Terminal, resP.Terminal)
		}
		if len(resF.Hops) != len(resP.Hops) {
			t.Fatalf("hop counts differ for %v: %d vs %d", d.Key, len(resF.Hops), len(resP.Hops))
		}
		for i := range resF.Hops {
			hf, hp := resF.Hops[i], resP.Hops[i]
			if hf.Switch != hp.Switch || hf.OutPort != hp.OutPort {
				t.Errorf("hop %d differs for %v: flow goes %d:%d, packet goes %d:%d",
					i, d.Key, hf.Switch, hf.OutPort, hp.Switch, hp.OutPort)
			}
		}
	}
}

// TestScenarioReplayByteDeterministic is the replay property: the same
// scenario produces byte-identical flow and link CSVs on repeat runs and
// across the wheel/heap event-queue implementations. (The -parallel
// half of the property lives in experiments: TestE8ParallelDeterminism.)
func TestScenarioReplayByteDeterministic(t *testing.T) {
	render := func(q eventq.Backend) (string, string) {
		topo := netgraph.LeafSpine(4, 2, 2, netgraph.Gig, netgraph.TenGig)
		g := traffic.NewGenerator(91)
		tr := g.PoissonArrivals(traffic.PoissonConfig{
			Hosts: topo.Hosts(), Lambda: 150, Horizon: 2 * simtime.Second,
			Sizes: traffic.Pareto{XMin: 1e5, Alpha: 1.5}, TCPFraction: 0.5, CBRRateBps: 1e7,
		})
		sim := flowsim.New(flowsim.Config{
			Topology: topo, Controller: controller.NewChain(&controller.ECMPLoadBalancer{}),
			Miss: dataplane.MissController, StatsEvery: 100 * simtime.Millisecond,
			EventQueue: q,
		})
		RandomLinkFailures(topo, FailureConfig{
			Seed: 7, MTBF: simtime.Second, Recovery: 200 * simtime.Millisecond,
			Horizon: simtime.Time(2 * simtime.Second), CoreOnly: true,
		}).Apply(sim, simtime.Never)
		sim.Load(tr)
		col := mustRun(sim, simtime.Time(10*simtime.Minute))
		var flows, links bytes.Buffer
		if err := col.WriteFlowsCSV(&flows); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteLinkSeriesCSV(&links); err != nil {
			t.Fatal(err)
		}
		return flows.String(), links.String()
	}
	f1, l1 := render(eventq.BackendWheel)
	f2, l2 := render(eventq.BackendWheel)
	f3, l3 := render(eventq.BackendHeap)
	if f1 != f2 || l1 != l2 {
		t.Fatal("repeat replay diverged with the wheel queue")
	}
	if f1 != f3 || l1 != l3 {
		t.Fatal("wheel and heap queues diverged on the same scenario")
	}
	if len(f1) == 0 || f1 == "id,arrival_s,end_s,size_bits,sent_bits,outcome,fct_s,path_len,punts\n" {
		t.Fatal("replay produced no flow records")
	}
}

// TestSwitchCrashAcrossEngines: a spine crash wipes the switch's tables
// and drops its links; traffic reroutes via the surviving spine and the
// restarted switch is re-programmed by the controller.
func TestSwitchCrashAcrossEngines(t *testing.T) {
	topo := netgraph.LeafSpine(2, 2, 2, netgraph.Gig, netgraph.TenGig)
	h0, h2 := topo.MustLookup("h0"), topo.MustLookup("h2")
	spine0 := topo.MustLookup("spine0")
	tr := traffic.Trace{cbr(h0, h2, 0, 1.5e8, 5e7, 31000)} // 3s transfer
	tl := New().SwitchOutage(simtime.Time(simtime.Second), simtime.Time(2*simtime.Second), spine0)

	sim := flowsim.New(flowsim.Config{
		Topology: topo, Controller: outageController(), Miss: dataplane.MissController,
		ControlLatency: simtime.Millisecond,
	})
	tl.Apply(sim, simtime.Never)
	sim.Load(tr)
	col := mustRun(sim, simtime.Time(simtime.Minute))
	r := col.Flows()[0]
	if !r.Completed {
		t.Fatalf("flow outcome = %s", r.Outcome)
	}
	// The restarted switch was wiped and then re-programmed on recovery.
	entries := 0
	for _, tab := range sim.Network().Switches[spine0].Tables {
		entries += tab.Len()
	}
	if entries == 0 {
		t.Error("restarted switch was never re-programmed")
	}

	// A switch that stays crashed cannot apply controller messages: the
	// crash-triggered resync must not program its wiped tables.
	topoD := netgraph.LeafSpine(2, 2, 2, netgraph.Gig, netgraph.TenGig)
	simD := flowsim.New(flowsim.Config{
		Topology: topoD, Controller: outageController(), Miss: dataplane.MissController,
		ControlLatency: simtime.Millisecond,
	})
	spine0D := topoD.MustLookup("spine0")
	New().SwitchFail(simtime.Time(simtime.Second), spine0D).Apply(simD, simtime.Never)
	simD.Load(traffic.Trace{cbr(topoD.MustLookup("h0"), topoD.MustLookup("h2"), 0, 1.5e8, 5e7, 31001)})
	mustRun(simD, simtime.Time(simtime.Minute))
	dead := 0
	for _, tab := range simD.Network().Switches[spine0D].Tables {
		dead += tab.Len()
	}
	if dead != 0 {
		t.Errorf("crashed switch holds %d rules; messages applied to a dead switch", dead)
	}

	// Packet engine: parked punts and queued packets at the crashed
	// switch are lost, and the flow still completes.
	topoP := netgraph.LeafSpine(2, 2, 2, netgraph.Gig, netgraph.TenGig)
	simP := packetsim.New(packetsim.Config{
		Topology: topoP, Controller: outageController(), Miss: dataplane.MissController,
		ControlLatency: simtime.Millisecond,
	})
	New().SwitchOutage(simtime.Time(simtime.Second), simtime.Time(2*simtime.Second),
		topoP.MustLookup("spine0")).Apply(simP, simtime.Never)
	simP.Load(traffic.Trace{cbr(topoP.MustLookup("h0"), topoP.MustLookup("h2"), 0, 1.5e8, 5e7, 31000)})
	colP := mustRun(simP, simtime.Time(simtime.Minute))
	if rp := colP.Flows()[0]; !rp.Completed {
		t.Fatalf("packet flow outcome = %s", rp.Outcome)
	}
}

// TestReactiveMACSurvivesSwitchRestart: a restarted switch loses its
// table-0 goto default too; ReactiveMAC must re-install the defaults on
// PortStatus so post-restart misses still punt up to the reactive rules —
// and a flow whose reconvergence FlowMods died with the crash must
// re-announce itself instead of waiting forever behind the PacketIn
// dedup.
func TestReactiveMACSurvivesSwitchRestart(t *testing.T) {
	// Case 1: flow active across the outage of the only spine.
	topo := netgraph.LeafSpine(2, 1, 2, netgraph.Gig, netgraph.TenGig)
	spine := topo.MustLookup("spine0")
	sim := flowsim.New(flowsim.Config{
		Topology: topo, Controller: controller.NewChain(&controller.ReactiveMAC{}),
		Miss: dataplane.MissController, ControlLatency: simtime.Millisecond,
	})
	New().SwitchOutage(simtime.Time(simtime.Second), simtime.Time(2*simtime.Second), spine).Apply(sim, simtime.Never)
	sim.Load(traffic.Trace{cbr(topo.MustLookup("h0"), topo.MustLookup("h2"), 0, 1.5e8, 5e7, 36000)})
	r := mustRun(sim, simtime.Time(simtime.Minute)).Flows()[0]
	if !r.Completed {
		t.Fatalf("flow outcome = %s: restarted switch never regained its defaults", r.Outcome)
	}

	// Case 2: the punting switch crashes while the reactive FlowMods are
	// in flight (they die with the wipe); after the restart the flow must
	// re-punt — the crash cleared its PacketIn dedup — and complete.
	topo2 := netgraph.LeafSpine(2, 1, 2, netgraph.Gig, netgraph.TenGig)
	leaf0 := topo2.MustLookup("leaf0")
	sim2 := flowsim.New(flowsim.Config{
		Topology: topo2, Controller: controller.NewChain(&controller.ReactiveMAC{}),
		Miss: dataplane.MissController, ControlLatency: simtime.Millisecond,
	})
	// Punt at t=0 → PacketIn delivered at 1ms → FlowMods land at 2ms; the
	// crash at 1.5ms swallows them.
	New().SwitchOutage(simtime.Time(1500*simtime.Microsecond), simtime.Time(simtime.Second), leaf0).Apply(sim2, simtime.Never)
	sim2.Load(traffic.Trace{cbr(topo2.MustLookup("h0"), topo2.MustLookup("h2"), 0, 1e6, 1e7, 36001)})
	r2 := mustRun(sim2, simtime.Time(simtime.Minute)).Flows()[0]
	if !r2.Completed {
		t.Fatalf("flow outcome = %s: punt dedup stranded a flow whose FlowMods died with the crash", r2.Outcome)
	}
	if r2.End < simtime.Time(simtime.Second) {
		t.Errorf("flow finished at %v, before the restart that unblocked it", r2.End)
	}
}

// TestControllerOutageAcrossEngines: while detached, punts are lost and
// flows wait; on reattach they re-announce and complete. Without a
// reattach they never move.
func TestControllerOutageAcrossEngines(t *testing.T) {
	mk := func() (*netgraph.Topology, traffic.Trace) {
		topo := netgraph.LeafSpine(2, 1, 2, netgraph.Gig, netgraph.TenGig)
		tr := traffic.Trace{cbr(topo.MustLookup("h0"), topo.MustLookup("h3"),
			simtime.Time(100*simtime.Millisecond), 1e6, 1e7, 32000)}
		return topo, tr
	}
	reactive := func() flowsim.Controller {
		return controller.NewChain(&controller.ReactiveMAC{})
	}

	// Flow level, no reattach: the punt is lost, the flow waits forever.
	topo, tr := mk()
	sim := flowsim.New(flowsim.Config{Topology: topo, Controller: reactive(), Miss: dataplane.MissController})
	New().ControllerDetach(simtime.Time(50*simtime.Millisecond)).Apply(sim, simtime.Never)
	sim.Load(tr)
	if r := mustRun(sim, simtime.Time(2*simtime.Second)).Flows()[0]; r.Completed {
		t.Fatal("flow completed with the controller detached")
	}

	// Flow level, with reattach at 300ms: the flow re-punts and completes
	// only after the channel returns.
	topo, tr = mk()
	sim = flowsim.New(flowsim.Config{Topology: topo, Controller: reactive(), Miss: dataplane.MissController})
	New().ControllerOutage(simtime.Time(50*simtime.Millisecond), simtime.Time(300*simtime.Millisecond)).Apply(sim, simtime.Never)
	sim.Load(tr)
	r := mustRun(sim, simtime.Time(2*simtime.Second)).Flows()[0]
	if !r.Completed {
		t.Fatalf("flow outcome = %s after reattach", r.Outcome)
	}
	if r.End < simtime.Time(300*simtime.Millisecond) {
		t.Errorf("flow finished at %v, before the controller reattached", r.End)
	}

	// Packet level, same story.
	topo, tr = mk()
	simP := packetsim.New(packetsim.Config{Topology: topo, Controller: reactive(), Miss: dataplane.MissController})
	New().ControllerOutage(simtime.Time(50*simtime.Millisecond), simtime.Time(300*simtime.Millisecond)).Apply(simP, simtime.Never)
	simP.Load(tr)
	rp := mustRun(simP, simtime.Time(2*simtime.Second)).Flows()[0]
	if !rp.Completed {
		t.Fatalf("packet flow outcome = %s after reattach", rp.Outcome)
	}
	if rp.End < simtime.Time(300*simtime.Millisecond) {
		t.Errorf("packet flow finished at %v, before the controller reattached", rp.End)
	}

	// Nested controller outages end at the LAST reattach, like link and
	// switch outages: 50–600ms overlapped by 300–900ms keeps the channel
	// down until 900ms.
	for _, engine := range []string{"flowsim", "packetsim"} {
		topo, tr = mk()
		tl := New().
			ControllerOutage(simtime.Time(50*simtime.Millisecond), simtime.Time(600*simtime.Millisecond)).
			ControllerOutage(simtime.Time(300*simtime.Millisecond), simtime.Time(900*simtime.Millisecond))
		var col *stats.Collector
		if engine == "flowsim" {
			simN := flowsim.New(flowsim.Config{Topology: topo, Controller: reactive(), Miss: dataplane.MissController})
			tl.Apply(simN, simtime.Never)
			simN.Load(tr)
			col = mustRun(simN, simtime.Time(2*simtime.Second))
		} else {
			simN := packetsim.New(packetsim.Config{Topology: topo, Controller: reactive(), Miss: dataplane.MissController})
			tl.Apply(simN, simtime.Never)
			simN.Load(tr)
			col = mustRun(simN, simtime.Time(2*simtime.Second))
		}
		rn := col.Flows()[0]
		if !rn.Completed {
			t.Fatalf("%s: nested outage flow outcome = %s", engine, rn.Outcome)
		}
		if rn.End < simtime.Time(900*simtime.Millisecond) {
			t.Errorf("%s: flow finished at %v — the inner reattach revived a channel the outer outage still held down", engine, rn.End)
		}
	}
}

// TestOverlappingOutagesCompose: a switch restart must not revive a link
// that is still inside its own scripted outage, in either engine. The
// link fails at 1s until 8s; its endpoint switch crashes at 2s and
// restarts at 3s; at the 5s bound the link must still be down.
func TestOverlappingOutagesCompose(t *testing.T) {
	script := func(topo *netgraph.Topology) (*Timeline, netgraph.LinkID) {
		s0, s1 := topo.MustLookup("s0"), topo.MustLookup("s1")
		direct := topo.LinkAt(s0, topo.PortToward(s0, s1)).ID
		tl := New().
			LinkOutage(simtime.Time(simtime.Second), simtime.Time(8*simtime.Second), direct).
			SwitchOutage(simtime.Time(2*simtime.Second), simtime.Time(3*simtime.Second), s0)
		return tl, direct
	}

	topoF := netgraph.Ring(4, netgraph.Gig, netgraph.TenGig)
	simF := flowsim.New(flowsim.Config{
		Topology: topoF, Controller: outageController(), Miss: dataplane.MissController,
	})
	tlF, directF := script(topoF)
	tlF.Apply(simF, simtime.Never)
	mustRun(simF, simtime.Time(5*simtime.Second))
	if topoF.Link(directF).Up {
		t.Error("flowsim: switch restart revived a link still inside its scripted outage")
	}

	topoP := netgraph.Ring(4, netgraph.Gig, netgraph.TenGig)
	simP := packetsim.New(packetsim.Config{
		Topology: topoP, Controller: outageController(), Miss: dataplane.MissController,
	})
	tlP, directP := script(topoP)
	tlP.Apply(simP, simtime.Never)
	mustRun(simP, simtime.Time(5*simtime.Second))
	if topoP.Link(directP).Up {
		t.Error("packetsim: switch restart revived a link still inside its scripted outage")
	}

	// Nested outages of the SAME link end at the outer recovery, not the
	// inner one.
	topoN := netgraph.Ring(4, netgraph.Gig, netgraph.TenGig)
	simN := flowsim.New(flowsim.Config{
		Topology: topoN, Controller: outageController(), Miss: dataplane.MissController,
	})
	s0N, s1N := topoN.MustLookup("s0"), topoN.MustLookup("s1")
	directN := topoN.LinkAt(s0N, topoN.PortToward(s0N, s1N)).ID
	New().
		LinkOutage(simtime.Time(simtime.Second), simtime.Time(10*simtime.Second), directN).
		LinkOutage(simtime.Time(2*simtime.Second), simtime.Time(3*simtime.Second), directN).
		Apply(simN, simtime.Never)
	mustRun(simN, simtime.Time(5*simtime.Second))
	if topoN.Link(directN).Up {
		t.Error("flowsim: inner recovery ended an outer outage of the same link")
	}

	// And the other direction of the overlap: a link "recovering" under a
	// still-crashed switch stays down until the switch restarts.
	topo2 := netgraph.Ring(4, netgraph.Gig, netgraph.TenGig)
	sim2 := flowsim.New(flowsim.Config{
		Topology: topo2, Controller: outageController(), Miss: dataplane.MissController,
	})
	tl2, direct2 := New(), netgraph.LinkID(0)
	{
		s0, s1 := topo2.MustLookup("s0"), topo2.MustLookup("s1")
		direct2 = topo2.LinkAt(s0, topo2.PortToward(s0, s1)).ID
		tl2.LinkOutage(simtime.Time(simtime.Second), simtime.Time(2*simtime.Second), direct2).
			SwitchOutage(simtime.Time(1500*simtime.Millisecond), simtime.Time(4*simtime.Second), s0)
	}
	tl2.Apply(sim2, simtime.Never)
	mustRun(sim2, simtime.Time(3*simtime.Second))
	if topo2.Link(direct2).Up {
		t.Error("flowsim: link recovery revived a link on a still-crashed switch")
	}
}

// TestReattachResyncsPortStatus: a link failure during a controller
// outage must reach the controller on reattach (current-state PortStatus
// resync), so PortStatus-driven policies reconverge on topology changes
// they never saw happen.
func TestReattachResyncsPortStatus(t *testing.T) {
	topo := netgraph.Ring(4, netgraph.Gig, netgraph.TenGig)
	h := func(n string) netgraph.NodeID { return topo.MustLookup(n) }
	s0, s1 := h("s0"), h("s1")
	direct := topo.LinkAt(s0, topo.PortToward(s0, s1)).ID

	sim := flowsim.New(flowsim.Config{
		Topology: topo, Controller: outageController(), Miss: dataplane.MissController,
		ControlLatency: simtime.Millisecond,
	})
	// The link dies at 1s — inside the 0.5s–2s controller outage — and
	// never recovers; only the reattach resync can tell the controller.
	New().
		ControllerOutage(simtime.Time(500*simtime.Millisecond), simtime.Time(2*simtime.Second)).
		LinkDown(simtime.Time(simtime.Second), direct).
		Apply(sim, simtime.Never)
	sim.Load(traffic.Trace{cbr(h("h0"), h("h1"), 0, 2e8, 5e7, 34000)}) // 4s transfer
	col := mustRun(sim, simtime.Time(simtime.Minute))

	r := col.Flows()[0]
	if !r.Completed {
		t.Fatalf("flow outcome = %s: controller never learned of the failure", r.Outcome)
	}
	if r.End < simtime.Time(2*simtime.Second) {
		t.Errorf("flow finished at %v, before the reattach that unblocked it", r.End)
	}
	if col.PathChanges == 0 {
		t.Error("flow never rerouted despite the resync")
	}
}

// TestDetachCatchesInFlightPortStatus: a PortStatus still in flight when
// the controller detaches is lost at delivery, but the link change it
// announced must still resync on reattach — otherwise the controller's
// half-executed reaction (reconvergence FlowMods dropped by the send
// gate) would leave stale rules forever.
func TestDetachCatchesInFlightPortStatus(t *testing.T) {
	topo := netgraph.Ring(4, netgraph.Gig, netgraph.TenGig)
	h := func(n string) netgraph.NodeID { return topo.MustLookup(n) }
	s0, s1 := h("s0"), h("s1")
	direct := topo.LinkAt(s0, topo.PortToward(s0, s1)).ID

	sim := flowsim.New(flowsim.Config{
		Topology: topo, Controller: outageController(), Miss: dataplane.MissController,
		ControlLatency: simtime.Millisecond,
	})
	// LinkDown at 1s emits PortStatus for delivery at 1.001s; the detach
	// at 1.0005s catches it mid-flight. The link never recovers, so only
	// the reattach resync can trigger the reroute.
	New().
		LinkDown(simtime.Time(simtime.Second), direct).
		ControllerOutage(simtime.Time(simtime.Second+500*simtime.Microsecond), simtime.Time(2*simtime.Second)).
		Apply(sim, simtime.Never)
	sim.Load(traffic.Trace{cbr(h("h0"), h("h1"), 0, 2e8, 5e7, 35000)}) // 4s transfer
	col := mustRun(sim, simtime.Time(simtime.Minute))

	r := col.Flows()[0]
	if !r.Completed {
		t.Fatalf("flow outcome = %s: the in-flight PortStatus was swallowed without a resync", r.Outcome)
	}
	if r.End < simtime.Time(2*simtime.Second) {
		t.Errorf("flow finished at %v, before the reattach that unblocked it", r.End)
	}
}

// TestSurgeInjectsShiftedDemands: a surge's demands arrive shifted to the
// surge instant, through the same Load path as the base workload.
func TestSurgeInjectsShiftedDemands(t *testing.T) {
	topo := netgraph.LeafSpine(2, 1, 2, netgraph.Gig, netgraph.TenGig)
	h0, h3 := topo.MustLookup("h0"), topo.MustLookup("h3")
	sim := flowsim.New(flowsim.Config{
		Topology: topo, Controller: outageController(), Miss: dataplane.MissController,
	})
	New().Surge(simtime.Time(simtime.Second), traffic.Trace{
		cbr(h0, h3, 0, 1e6, 1e7, 33000),
		cbr(h0, h3, simtime.Time(100*simtime.Millisecond), 1e6, 1e7, 33001),
	}).Apply(sim, simtime.Never)
	col := mustRun(sim, simtime.Time(simtime.Minute))
	recs := col.Flows()
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	wants := []simtime.Time{simtime.Time(simtime.Second), simtime.Time(simtime.Second + 100*simtime.Millisecond)}
	for i, r := range recs {
		if r.Arrival != wants[i] {
			t.Errorf("surge flow %d arrived at %v, want %v", r.ID, r.Arrival, wants[i])
		}
		if !r.Completed {
			t.Errorf("surge flow %d: %s", r.ID, r.Outcome)
		}
	}
}

// TestTimelineValidate pins the validation satellite: negative event
// times, unknown link/switch subjects, host nodes posing as switches, and
// events beyond the run horizon all fail with a typed *EventError, and a
// clean timeline passes at any horizon.
func TestTimelineValidate(t *testing.T) {
	topo := netgraph.LeafSpine(2, 2, 2, netgraph.Gig, netgraph.TenGig)
	host := topo.Hosts()[0]
	spine := topo.MustLookup("spine0")
	link := topo.Links()[0].ID
	horizon := simtime.Time(10 * simtime.Second)

	cases := []struct {
		name   string
		tl     *Timeline
		reason string
	}{
		{"negative time", New().LinkDown(-1, link), "negative"},
		{"unknown link", New().LinkDown(simtime.Time(simtime.Second), netgraph.LinkID(9999)), "unknown link"},
		{"unknown switch", New().SwitchFail(simtime.Time(simtime.Second), netgraph.NodeID(9999)), "unknown switch"},
		{"host as switch", New().SwitchFail(simtime.Time(simtime.Second), host), "not a switch"},
		{"beyond horizon", New().LinkDown(horizon+1, link), "after the run horizon"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.tl.Validate(topo, horizon)
			if err == nil {
				t.Fatal("Validate accepted an invalid timeline")
			}
			var ee *EventError
			if !errors.As(err, &ee) {
				t.Fatalf("error %T, want *EventError", err)
			}
			if !strings.Contains(err.Error(), tc.reason) {
				t.Errorf("error %q does not mention %q", err, tc.reason)
			}
		})
	}

	good := New().
		LinkOutage(simtime.Time(simtime.Second), simtime.Time(2*simtime.Second), link).
		SwitchOutage(simtime.Time(3*simtime.Second), simtime.Time(4*simtime.Second), spine).
		ControllerOutage(simtime.Time(5*simtime.Second), simtime.Time(6*simtime.Second))
	if err := good.Validate(topo, horizon); err != nil {
		t.Fatalf("valid timeline rejected: %v", err)
	}
	// Never disables the horizon check but nothing else.
	if err := New().LinkDown(horizon+1, link).Validate(topo, simtime.Never); err != nil {
		t.Fatalf("horizon check not disabled at Never: %v", err)
	}
}

// TestApplyRejectsInvalidAndSchedulesNothing: a bad timeline fails Apply
// before any event reaches the engine.
func TestApplyRejectsInvalidAndSchedulesNothing(t *testing.T) {
	topo := netgraph.LeafSpine(2, 2, 2, netgraph.Gig, netgraph.TenGig)
	sim := flowsim.New(flowsim.Config{Topology: topo})
	before := sim.Kernel().Len()
	bad := New().
		LinkDown(simtime.Time(simtime.Second), topo.Links()[0].ID).
		SwitchFail(simtime.Time(2*simtime.Second), netgraph.NodeID(9999))
	if err := bad.Apply(sim, simtime.Never); err == nil {
		t.Fatal("Apply accepted an unknown switch")
	}
	if sim.Kernel().Len() != before {
		t.Errorf("Apply scheduled %d events despite the validation error", sim.Kernel().Len()-before)
	}
	// The horizon passed to Apply gates late events too.
	late := New().LinkDown(simtime.Time(5*simtime.Second), topo.Links()[0].ID)
	if err := late.Apply(sim, simtime.Time(simtime.Second)); err == nil {
		t.Fatal("Apply accepted an event beyond the run horizon")
	}
}
