package controller

import (
	"math"
	"testing"

	"horse/internal/addr"
	"horse/internal/dataplane"
	"horse/internal/flowsim"
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

func cbr(src, dst netgraph.NodeID, start simtime.Time, sizeBits, rateBps float64) traffic.Demand {
	return traffic.Demand{
		Key: addr.FlowKeyBetween(src, dst, header.ProtoUDP, 40000, 80),
		Src: src, Dst: dst, Start: start,
		SizeBits: sizeBits, RateBps: rateBps,
	}
}

func httpFlow(src, dst netgraph.NodeID, sizeBits float64) traffic.Demand {
	d := cbr(src, dst, 0, sizeBits, 1e8)
	d.Key.Proto = header.ProtoTCP
	d.Key.DstPort = header.PortHTTP
	return d
}

func runSim(t *testing.T, topo *netgraph.Topology, ctrl flowsim.Controller, tr traffic.Trace) *stats.Collector {
	t.Helper()
	sim := flowsim.New(flowsim.Config{Topology: topo, Controller: ctrl, Miss: dataplane.MissController})
	sim.Load(tr)
	return mustRun(sim, simtime.Time(5*simtime.Minute))
}

func TestProactiveMACDelivers(t *testing.T) {
	topo := netgraph.LeafSpine(3, 2, 2, netgraph.Gig, netgraph.TenGig)
	h0, h5 := topo.MustLookup("h0"), topo.MustLookup("h5")
	col := runSim(t, topo, NewChain(&ProactiveMAC{}), traffic.Trace{
		cbr(h0, h5, simtime.Time(10*simtime.Millisecond), 1e6, 1e8),
	})
	f := col.Flows()[0]
	if !f.Completed {
		t.Fatalf("outcome = %s", f.Outcome)
	}
	if f.Punts != 0 {
		t.Errorf("proactive forwarding should never punt, got %d", f.Punts)
	}
}

func TestReactiveMACDelivers(t *testing.T) {
	topo := netgraph.LeafSpine(3, 2, 2, netgraph.Gig, netgraph.TenGig)
	h0, h5 := topo.MustLookup("h0"), topo.MustLookup("h5")
	col := runSim(t, topo, NewChain(&ReactiveMAC{}), traffic.Trace{cbr(h0, h5, 0, 1e6, 1e8)})
	f := col.Flows()[0]
	if !f.Completed {
		t.Fatalf("outcome = %s", f.Outcome)
	}
	if f.Punts == 0 {
		t.Error("reactive forwarding should punt the first packet")
	}
	// A second flow to the same destination arriving later reuses the
	// installed rules (no further punts).
	sim := flowsim.New(flowsim.Config{Topology: topo, Controller: NewChain(&ReactiveMAC{}), Miss: dataplane.MissController})
	first := cbr(h0, h5, 0, 1e6, 1e8)
	second := cbr(h0, h5, simtime.Time(simtime.Second), 1e6, 1e8)
	second.Key.SrcPort = 41000
	sim.Load(traffic.Trace{first, second})
	col = mustRun(sim, simtime.Time(simtime.Minute))
	if col.Flows()[1].Punts != 0 {
		t.Errorf("second flow punted %d times; rules should be cached", col.Flows()[1].Punts)
	}
}

func TestReactiveIdleTimeoutCausesRepunt(t *testing.T) {
	topo := netgraph.LeafSpine(2, 1, 2, netgraph.Gig, netgraph.TenGig)
	h0, h3 := topo.MustLookup("h0"), topo.MustLookup("h3")
	ctrl := NewChain(&ReactiveMAC{IdleTimeout: 100 * simtime.Millisecond})
	sim := flowsim.New(flowsim.Config{Topology: topo, Controller: ctrl, Miss: dataplane.MissController})
	first := cbr(h0, h3, 0, 1e6, 1e8)
	// Arrives long after the rules idled out.
	late := cbr(h0, h3, simtime.Time(10*simtime.Second), 1e6, 1e8)
	late.Key.SrcPort = 42000
	sim.Load(traffic.Trace{first, late})
	col := mustRun(sim, simtime.Time(simtime.Minute))
	if col.Flows()[1].Punts == 0 {
		t.Error("late flow should re-punt after idle eviction")
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	topo := netgraph.LeafSpine(2, 4, 4, netgraph.Gig, netgraph.TenGig)
	var tr traffic.Trace
	// Many flows from leaf0 hosts to leaf1 hosts.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			src := topo.MustLookup("h" + string(rune('0'+i)))
			dst := topo.MustLookup("h" + string(rune('0'+4+j)))
			d := cbr(src, dst, 0, 1e7, 1e7)
			d.Key.SrcPort = uint16(20000 + i*16 + j)
			tr = append(tr, d)
		}
	}
	sim := flowsim.New(flowsim.Config{
		Topology: topo, Controller: NewChain(&ECMPLoadBalancer{}),
		Miss: dataplane.MissController, StatsEvery: 100 * simtime.Millisecond,
	})
	sim.Load(tr)
	col := mustRun(sim, simtime.Time(simtime.Minute))
	for _, f := range col.Flows() {
		if !f.Completed {
			t.Fatalf("flow %d: %s", f.ID, f.Outcome)
		}
	}
	// Count distinct spine uplinks carrying traffic.
	busy := 0
	for d, u := range col.PeakLinkUtilization() {
		link := topo.Link(d.Link)
		aSw := topo.Node(link.A).Kind == netgraph.KindSwitch
		bSw := topo.Node(link.B).Kind == netgraph.KindSwitch
		if aSw && bSw && u > 1e-4 {
			busy++
		}
	}
	if busy < 3 {
		t.Errorf("only %d trunk directions carried traffic; ECMP not spreading", busy)
	}
}

func TestMisconfiguredLBConcentratesTraffic(t *testing.T) {
	mkTrace := func(topo *netgraph.Topology) traffic.Trace {
		var tr traffic.Trace
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				src := topo.MustLookup("h" + string(rune('0'+i)))
				dst := topo.MustLookup("h" + string(rune('0'+4+j)))
				d := cbr(src, dst, 0, 1e8, 1e8)
				d.Key.SrcPort = uint16(20000 + i*16 + j)
				tr = append(tr, d)
			}
		}
		return tr
	}
	peak := func(ctrl flowsim.Controller) float64 {
		topo := netgraph.LeafSpine(2, 4, 4, netgraph.Gig, netgraph.Gig)
		sim := flowsim.New(flowsim.Config{
			Topology: topo, Controller: ctrl,
			Miss: dataplane.MissController, StatsEvery: 100 * simtime.Millisecond,
		})
		sim.Load(mkTrace(topo))
		col := mustRun(sim, simtime.Time(simtime.Minute))
		max := 0.0
		for d, u := range col.PeakLinkUtilization() {
			link := topo.Link(d.Link)
			if topo.Node(link.A).Kind == netgraph.KindSwitch && topo.Node(link.B).Kind == netgraph.KindSwitch && u > max {
				max = u
			}
		}
		return max
	}
	good := peak(NewChain(&ECMPLoadBalancer{}))
	bad := peak(NewChain(&MisconfiguredLoadBalancer{}))
	if bad <= good {
		t.Errorf("misconfigured LB peak %.2f should exceed balanced %.2f", bad, good)
	}
	if bad < 0.95 {
		t.Errorf("misconfigured LB should saturate a core link, peak = %.2f", bad)
	}
}

func TestBlackholeDrops(t *testing.T) {
	topo := netgraph.LeafSpine(2, 2, 2, netgraph.Gig, netgraph.TenGig)
	h0, h3 := topo.MustLookup("h0"), topo.MustLookup("h3")
	bh := &Blackhole{Matches: []header.Match{
		header.Match{}.WithEthDst(addr.HostMAC(h3)),
	}}
	col := runSim(t, topo, NewChain(&ProactiveMAC{}, bh), traffic.Trace{
		cbr(h0, h3, simtime.Time(10*simtime.Millisecond), 1e6, 1e8),
	})
	f := col.Flows()[0]
	if f.Completed || f.Outcome != "dropped" {
		t.Errorf("outcome = %s, want dropped", f.Outcome)
	}
	// Unrelated traffic flows normally.
	h1, h2 := topo.MustLookup("h1"), topo.MustLookup("h2")
	col = runSim(t, topo, NewChain(&ProactiveMAC{}, bh), traffic.Trace{
		cbr(h1, h2, simtime.Time(10*simtime.Millisecond), 1e6, 1e8),
	})
	if !col.Flows()[0].Completed {
		t.Error("unrelated flow should complete")
	}
}

func TestRateLimiterSlowsTransfer(t *testing.T) {
	topo := netgraph.LeafSpine(2, 2, 2, netgraph.Gig, netgraph.TenGig)
	h0, h3 := topo.MustLookup("h0"), topo.MustLookup("h3")
	sw, _ := topo.AttachedSwitch(h0)
	rl := &RateLimiter{Rules: []RateLimitRule{{
		Match:   header.Match{}.WithEthDst(addr.HostMAC(h3)),
		RateBps: 1e7, // 10 Mbps
		At:      sw,
	}}}
	col := runSim(t, topo, NewChain(&ProactiveMAC{}, rl), traffic.Trace{
		cbr(h0, h3, simtime.Time(10*simtime.Millisecond), 1e7, 1e8),
	})
	f := col.Flows()[0]
	if !f.Completed {
		t.Fatalf("outcome = %s", f.Outcome)
	}
	// 1e7 bits at 1e7 bps = 1s, vs 0.1s unmetered.
	if fct := f.FCT().Seconds(); fct < 0.95 || fct > 1.15 {
		t.Errorf("rate-limited FCT = %g, want ~1s", fct)
	}
}

func TestRateLimitUnderminesTCP(t *testing.T) {
	// The paper's example: a policer degrades TCP beyond the pure rate
	// cap, because loss caps throughput via the Mathis bound.
	topo := netgraph.LeafSpine(2, 2, 2, netgraph.Gig, netgraph.TenGig)
	h0, h3 := topo.MustLookup("h0"), topo.MustLookup("h3")
	sw, _ := topo.AttachedSwitch(h0)

	run := func(ctrl flowsim.Controller) float64 {
		d := httpFlow(h0, h3, 2e8)
		d.TCP = true
		d.RateBps = math.Inf(1)
		d.Start = simtime.Time(10 * simtime.Millisecond)
		col := runSim(t, topo, ctrl, traffic.Trace{d})
		f := col.Flows()[0]
		if !f.Completed {
			t.Fatalf("outcome = %s", f.Outcome)
		}
		return f.FCT().Seconds()
	}
	plain := run(NewChain(&ProactiveMAC{}))
	limited := run(NewChain(&ProactiveMAC{}, &RateLimiter{Rules: []RateLimitRule{{
		Match:   header.Match{}.WithEthDst(addr.HostMAC(h3)),
		RateBps: 5e7,
		At:      sw,
	}}}))
	if limited <= plain*1.5 {
		t.Errorf("rate-limited TCP FCT %.3fs should far exceed plain %.3fs", limited, plain)
	}
}

func TestAppPeeringSteersHTTP(t *testing.T) {
	// Ring of 5 switches: default forwarding h0→h2 is s0→s1→s2 (3 switch
	// hops); the peering policy steers HTTP via the s4/s3 side (4 hops).
	topo := netgraph.Ring(5, netgraph.Gig, netgraph.TenGig)
	h0, h2 := topo.MustLookup("h0"), topo.MustLookup("h2")
	s0, s3 := topo.MustLookup("s0"), topo.MustLookup("s3")
	peer := &AppPeering{Rules: []PeeringRule{{
		Ingress:  s0,
		Egress:   s3,
		AppMatch: header.Match{}.WithProto(header.ProtoTCP).WithDstPort(header.PortHTTP),
	}}}
	d := httpFlow(h0, h2, 1e6)
	d.Start = simtime.Time(10 * simtime.Millisecond)
	col := runSim(t, topo, NewChain(&ProactiveMAC{}, peer), traffic.Trace{d})
	f := col.Flows()[0]
	if !f.Completed {
		t.Fatalf("outcome = %s", f.Outcome)
	}
	// Steered path: s0→s4→s3→s2 = 4 switch hops; unsteered is 3.
	if f.PathLen != 4 {
		t.Errorf("path length = %d, want 4 (via s4/s3)", f.PathLen)
	}
	// Non-HTTP traffic keeps the short path.
	d2 := cbr(h0, h2, simtime.Time(10*simtime.Millisecond), 1e6, 1e8)
	col = runSim(t, topo, NewChain(&ProactiveMAC{}, peer), traffic.Trace{d2})
	if got := col.Flows()[0].PathLen; got != 3 {
		t.Errorf("non-HTTP path length = %d, want 3", got)
	}
}

func TestSourceRoutingPinsPath(t *testing.T) {
	topo := netgraph.Ring(5, netgraph.Gig, netgraph.TenGig)
	h0, h1 := topo.MustLookup("h0"), topo.MustLookup("h1")
	// Pin the long way round: s0→s4→s3→s2→s1.
	longPath := []netgraph.NodeID{
		topo.MustLookup("s0"), topo.MustLookup("s4"), topo.MustLookup("s3"),
		topo.MustLookup("s2"), topo.MustLookup("s1"),
	}
	sr := &SourceRouting{Routes: []SourceRoute{{Src: h0, Dst: h1, Path: longPath}}}
	d := cbr(h0, h1, simtime.Time(10*simtime.Millisecond), 1e6, 1e8)
	col := runSim(t, topo, NewChain(&ProactiveMAC{}, sr), traffic.Trace{d})
	f := col.Flows()[0]
	if !f.Completed {
		t.Fatalf("outcome = %s", f.Outcome)
	}
	if f.PathLen != 5 {
		t.Errorf("source-routed path length = %d, want 5 (inefficient by design)", f.PathLen)
	}
}

func TestMonitorObservesCongestion(t *testing.T) {
	topo := netgraph.Dumbbell(2, 2, netgraph.Gig, netgraph.LinkSpec{BandwidthBps: 1e8, Delay: simtime.Millisecond})
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	var congested []PortObservation
	mon := &Monitor{
		Every:     200 * simtime.Millisecond,
		Threshold: 0.9,
		OnCongestion: func(_ *flowsim.Context, obs PortObservation) {
			congested = append(congested, obs)
		},
	}
	d := cbr(h0, r0, simtime.Time(10*simtime.Millisecond), 5e8, 5e8) // saturates the 1e8 bottleneck
	col := runSim(t, topo, NewChain(&ProactiveMAC{}, mon), traffic.Trace{d})
	if !col.Flows()[0].Completed {
		t.Fatalf("outcome = %s", col.Flows()[0].Outcome)
	}
	if mon.Polls() == 0 {
		t.Fatal("monitor never polled")
	}
	if len(congested) == 0 {
		t.Fatal("congestion never reported despite a saturated bottleneck")
	}
	if congested[0].Utilized < 0.9 {
		t.Errorf("congestion callback fired at %g utilization", congested[0].Utilized)
	}
	if len(mon.Observations()) == 0 {
		t.Error("no observations retained")
	}
}

func TestChainComposesApps(t *testing.T) {
	// Everything together on a leaf-spine: ECMP + blackhole + rate limit
	// + peering; sanity check they coexist.
	topo := netgraph.LeafSpine(2, 2, 3, netgraph.Gig, netgraph.TenGig)
	h0 := topo.MustLookup("h0")
	h3, h4, h5 := topo.MustLookup("h3"), topo.MustLookup("h4"), topo.MustLookup("h5")
	sw0, _ := topo.AttachedSwitch(h0)
	chain := NewChain(
		&ECMPLoadBalancer{},
		&Blackhole{Matches: []header.Match{header.Match{}.WithEthDst(addr.HostMAC(h5))}},
		&RateLimiter{Rules: []RateLimitRule{{
			Match: header.Match{}.WithEthDst(addr.HostMAC(h4)), RateBps: 1e7, At: sw0,
		}}},
		&Monitor{Every: simtime.Second},
	)
	start := simtime.Time(20 * simtime.Millisecond)
	tr := traffic.Trace{
		cbr(h0, h3, start, 1e6, 1e8), // normal
		cbr(h0, h4, start, 1e7, 1e8), // rate limited
		cbr(h0, h5, start, 1e6, 1e8), // blackholed
	}
	tr[1].Key.SrcPort = 41001
	tr[2].Key.SrcPort = 41002
	col := runSim(t, topo, chain, tr)
	// Records are finalize-ordered; flow IDs follow arrival (trace) order.
	byID := map[int64]stats.FlowRecord{}
	for _, f := range col.Flows() {
		byID[f.ID] = f
	}
	if f := byID[1]; !f.Completed {
		t.Errorf("normal flow: %s", f.Outcome)
	}
	if f := byID[2]; !f.Completed || f.FCT().Seconds() < 0.9 {
		t.Errorf("limited flow: %s in %v", f.Outcome, f.FCT())
	}
	if f := byID[3]; f.Completed || f.Outcome != "dropped" {
		t.Errorf("blackholed flow: %s", f.Outcome)
	}
}

func TestProactiveMACReactsToLinkFailure(t *testing.T) {
	topo := netgraph.Ring(4, netgraph.Gig, netgraph.TenGig)
	h0, h1 := topo.MustLookup("h0"), topo.MustLookup("h1")
	s0, s1 := topo.MustLookup("s0"), topo.MustLookup("s1")
	direct := topo.LinkAt(s0, topo.PortToward(s0, s1)).ID
	sim := flowsim.New(flowsim.Config{Topology: topo, Controller: NewChain(&ProactiveMAC{}), Miss: dataplane.MissController})
	// Long flow; the direct link dies mid-transfer; the controller must
	// reroute the long way and the flow still completes.
	sim.Load(traffic.Trace{cbr(h0, h1, 0, 5e8, 1e8)}) // 5s transfer
	sim.ScheduleLinkChange(simtime.Time(2*simtime.Second), direct, false)
	col := mustRun(sim, simtime.Time(simtime.Minute))
	f := col.Flows()[0]
	if !f.Completed {
		t.Fatalf("outcome = %s; controller failed to reroute", f.Outcome)
	}
	if col.PathChanges == 0 {
		t.Error("no path change recorded despite reroute")
	}
}
