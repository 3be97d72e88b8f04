package flowsim

import (
	"math"
	"reflect"
	"testing"
	"time"

	"horse/internal/addr"
	"horse/internal/dataplane"
	"horse/internal/eventq"
	"horse/internal/eventq/eventqtest"
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simcore"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

// mkWorkload builds a deterministic mixed workload on a leaf-spine fabric.
func mkWorkload(seed int64) (*netgraph.Topology, traffic.Trace) {
	topo := netgraph.LeafSpine(4, 2, 4, netgraph.Gig, netgraph.TenGig)
	g := traffic.NewGenerator(seed)
	tr := g.PoissonArrivals(traffic.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 300, Horizon: 2 * simtime.Second,
		Sizes: traffic.Pareto{XMin: 2e5, Alpha: 1.4}, TCPFraction: 0.5, CBRRateBps: 2e7,
	})
	return topo, tr
}

func runVariant(t *testing.T, full bool) *stats.Collector {
	t.Helper()
	topo, tr := mkWorkload(123)
	sim := New(Config{
		Topology: topo, Controller: proactiveMAC{}, Miss: dataplane.MissController,
		FullRecompute: full,
	})
	sim.Load(tr)
	return mustRun(sim, simtime.Time(simtime.Minute))
}

// TestRecomputeStrategiesAgree verifies the central E6 correctness claim:
// full and incremental fair-share solving produce identical simulations.
func TestRecomputeStrategiesAgree(t *testing.T) {
	a := runVariant(t, false)
	b := runVariant(t, true)
	compareRuns(t, a, b, "incremental", "full-recompute")
}

// TestQueueImplementationsAgree holds the flow engine to the heap oracle:
// on a heap kernel it reproduces the default run's records exactly and
// dispatches as many events. A spine link fails and recovers at one
// instant, so the outcome hangs on the FIFO order of tied events. The
// negative control is a heap with that tie-break reversed: it must part
// from the default run, and first at the flap instant, or the oracle
// could pass without seeing tie order at all.
func TestQueueImplementationsAgree(t *testing.T) {
	at := simtime.Time(500 * simtime.Millisecond)
	run := func(q eventq.Canceler) (*stats.Collector, []string) {
		log := dispatchLog(q)
		topo, tr := mkWorkload(123)
		var sim *Simulator
		OnKernel(simcore.New(simcore.Config{Queue: log}), func() {
			sim = New(Config{Topology: topo, Controller: proactiveMAC{}, Miss: dataplane.MissController})
		})
		leaf, spine := topo.MustLookup("leaf0"), topo.MustLookup("spine0")
		l := topo.LinkAt(leaf, topo.PortToward(leaf, spine)).ID
		sim.ScheduleLinkChange(at, l, false)
		sim.ScheduleLinkChange(at, l, true)
		sim.Load(tr)
		return mustRun(sim, simtime.Time(simtime.Minute)), log.Lines
	}
	want, wantLog := run(eventq.NewWheel())
	heap, _ := run(eventq.NewHeap())
	if !reflect.DeepEqual(heap.Flows(), want.Flows()) || heap.EventsRun != want.EventsRun {
		t.Fatalf("heap kernel diverged: %d records, %d events; default %d records, %d events",
			len(heap.Flows()), heap.EventsRun, len(want.Flows()), want.EventsRun)
	}
	lifo, lifoLog := run(eventqtest.NewLIFOTies())
	if reflect.DeepEqual(lifo.Flows(), want.Flows()) {
		t.Fatal("reversed tie-break reproduced the default run's records")
	}
	if got := eventqtest.FirstDivergence(wantLog, lifoLog); got != at {
		t.Fatalf("reversed tie-break first parts from the default run at %v, want the flap instant %v", got, at)
	}
}

func compareRuns(t *testing.T, a, b *stats.Collector, an, bn string) {
	t.Helper()
	fa, fb := a.Flows(), b.Flows()
	if len(fa) != len(fb) {
		t.Fatalf("%s has %d records, %s has %d", an, len(fa), bn, len(fb))
	}
	byID := make(map[int64]stats.FlowRecord, len(fb))
	for _, f := range fb {
		byID[f.ID] = f
	}
	for _, f := range fa {
		g, ok := byID[f.ID]
		if !ok {
			t.Fatalf("flow %d missing from %s", f.ID, bn)
		}
		if f.Outcome != g.Outcome {
			t.Fatalf("flow %d outcome %q vs %q", f.ID, f.Outcome, g.Outcome)
		}
		if math.Abs(f.SentBits-g.SentBits) > 1+f.SentBits*1e-9 {
			t.Fatalf("flow %d sent %g vs %g", f.ID, f.SentBits, g.SentBits)
		}
		if d := f.FCT() - g.FCT(); d > simtime.Microsecond || d < -simtime.Microsecond {
			t.Fatalf("flow %d FCT %v vs %v", f.ID, f.FCT(), g.FCT())
		}
	}
}

// TestSlotsStayConsistent churns flow slots on the mixed leaf-spine
// workload — half TCP, every first packet punted to a reactive
// controller, a metered rule at one leaf, a spine link that fails and
// recovers, and the leaf's rules deleted during the outage so that the
// flows stuck there punt again and take the other spine — and checks every 5 ms that the slot table and the per-switch
// lists agree (CheckSlots), that every stored path is current, and the
// allocator invariants. Flows park and reactivate, change paths, cross
// the meter, and recycle slots of longer or shorter paths.
func TestSlotsStayConsistent(t *testing.T) {
	topo, tr := mkWorkload(7)
	sim := New(Config{Topology: topo, Controller: reactivePath{}, Miss: dataplane.MissController})
	k, plane := sim.Kernel(), sim.Plane()
	leaf, spine := topo.MustLookup("leaf0"), topo.MustLookup("spine0")
	up := topo.LinkAt(leaf, topo.PortToward(leaf, spine)).ID
	plane.ScheduleLinkChange(simtime.Time(500*simtime.Millisecond), up, false)
	plane.ScheduleLinkChange(simtime.Time(600*simtime.Millisecond), up, true)
	plane.SendToSwitch(&openflow.MeterMod{Switch: leaf, Op: openflow.MeterAdd, MeterID: 1, RateBps: 5e7})
	plane.SendToSwitch(&openflow.FlowMod{
		Switch: leaf, Op: openflow.FlowAdd, Priority: 20,
		Match: header.Match{}.WithEthDst(addr.HostMAC(topo.Hosts()[len(topo.Hosts())-1])),
		Instr: openflow.Apply(openflow.Output(topo.PortToward(leaf, spine))).WithMeter(1),
	})
	sim.Load(tr)
	plane.Start()
	sim.Begin()
	metered := false
	for at := simtime.Time(0); at <= simtime.Time(3*simtime.Second); at += simtime.Time(5 * simtime.Millisecond) {
		k.Run(at)
		if at == simtime.Time(550*simtime.Millisecond) {
			plane.SendToSwitch(&openflow.FlowMod{Switch: leaf, Op: openflow.FlowDelete, Match: header.MatchAll})
		}
		for _, check := range []func() error{sim.CheckSlots, sim.StalePath, sim.checkInvariants} {
			if err := check(); err != nil {
				t.Fatalf("at %v: %v", at, err)
			}
		}
		for _, f := range sim.flows {
			metered = metered || f.state == StateActive && len(f.meters()) > 0
		}
	}
	sim.Finish()
	col := sim.Collector()
	t.Logf("%d PacketIns, %d path changes, %d slots for %d flows", col.PacketIns, col.PathChanges, sim.Slots(), len(tr))
	if !metered || col.PacketIns == 0 || col.PathChanges == 0 || sim.Slots() >= len(tr)/4 {
		t.Errorf("metered %v, %d PacketIns, %d path changes, %d slots for %d flows: the run does not churn the layout",
			metered, col.PacketIns, col.PathChanges, sim.Slots(), len(tr))
	}
}

// TestThroughputConservation: total bits delivered can never exceed what
// the flows' access links could carry in the elapsed time, and completed
// flows transfer exactly their size.
func TestThroughputConservation(t *testing.T) {
	topo, tr := mkWorkload(9)
	sim := New(Config{Topology: topo, Controller: proactiveMAC{}, Miss: dataplane.MissController})
	sim.Load(tr)
	col := mustRun(sim, simtime.Time(simtime.Minute))
	var horizon simtime.Time
	for _, f := range col.Flows() {
		if f.End > horizon {
			horizon = f.End
		}
		if f.Completed && !math.IsInf(f.SizeBits, 1) {
			if math.Abs(f.SentBits-f.SizeBits) > 1 {
				t.Errorf("flow %d completed with %g of %g bits", f.ID, f.SentBits, f.SizeBits)
			}
		}
		if f.SentBits < 0 {
			t.Errorf("flow %d negative sent", f.ID)
		}
	}
	var total float64
	for _, f := range col.Flows() {
		total += f.SentBits
	}
	// 16 hosts × 1 Gbps is the absolute ingress ceiling.
	ceiling := 16 * 1e9 * horizon.Seconds()
	if total > ceiling {
		t.Errorf("delivered %g bits > physical ceiling %g", total, ceiling)
	}
	if total == 0 {
		t.Error("nothing delivered")
	}
}

// TestAIMDUnderPolicerSteadyState: a backlogged TCP flow through a policer
// settles into the AIMD sawtooth below the policed rate — the quantified
// version of the paper's "undermines the quality of a TCP transmission".
func TestAIMDUnderPolicerSteadyState(t *testing.T) {
	topo := netgraph.Dumbbell(1, 1, netgraph.Gig, netgraph.TenGig)
	sim := New(Config{Topology: topo, Controller: proactiveMAC{}, Miss: dataplane.MissController})
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	sl, sr := topo.MustLookup("sL"), topo.MustLookup("sR")
	const policed = 2e8 // 200 Mbps
	sw := sim.Network().Switches[sl]
	sw.Apply(&openflow.MeterMod{Op: openflow.MeterAdd, MeterID: 1, RateBps: policed}, 0)
	sim.Allocator().SetCapacity(sim.meterResource(sl, 1), policed)
	sw.Apply(&openflow.FlowMod{
		Op: openflow.FlowAdd, Priority: 100,
		Match: header.Match{}.WithEthDst(addr.HostMAC(r0)),
		Instr: openflow.Apply(openflow.Output(topo.PortToward(sl, sr))).WithMeter(1),
	}, 0)
	d := traffic.Demand{
		Key: addr.FlowKeyBetween(h0, r0, header.ProtoTCP, 40000, 80),
		Src: h0, Dst: r0,
		Start:    simtime.Time(10 * simtime.Millisecond),
		SizeBits: 5e8, RateBps: math.Inf(1), TCP: true,
	}
	sim.Load(traffic.Trace{d})
	col := mustRun(sim, simtime.Time(simtime.Minute))
	f := col.Flows()[0]
	if !f.Completed {
		t.Fatalf("outcome = %s", f.Outcome)
	}
	mean := f.SentBits / f.FCT().Seconds()
	// AIMD through a policer achieves meaningfully less than the policed
	// rate but not catastrophically less: between 30% and 100% of it.
	if mean > policed*1.01 {
		t.Errorf("mean throughput %g exceeds the policer %g", mean, policed)
	}
	if mean < policed*0.3 {
		t.Errorf("mean throughput %g collapsed below 30%% of the policer", mean)
	}
	if mean > policed*0.97 {
		t.Errorf("mean throughput %g shows no AIMD penalty at all", mean)
	}
}

// TestWaitingFlowExpiresAtDeadline: a punted flow with a deadline and no
// controller help ends as expired-waiting, not completed.
func TestWaitingFlowExpiresAtDeadline(t *testing.T) {
	topo := netgraph.Dumbbell(1, 1, netgraph.Gig, netgraph.TenGig)
	sim := New(Config{Topology: topo, Miss: dataplane.MissController})
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	d := traffic.Demand{
		Key: addr.FlowKeyBetween(h0, r0, header.ProtoUDP, 40000, 80),
		Src: h0, Dst: r0,
		SizeBits: math.Inf(1), RateBps: 1e7, Duration: simtime.Second,
	}
	sim.Load(traffic.Trace{d})
	col := mustRun(sim, simtime.Time(simtime.Minute))
	f := col.Flows()[0]
	if f.Completed || f.Outcome != "expired-waiting" {
		t.Errorf("outcome = %q, want expired-waiting", f.Outcome)
	}
	if f.SentBits != 0 {
		t.Errorf("waiting flow sent %g bits", f.SentBits)
	}
	// The completion counter agrees with the records: an expired flow did
	// not complete.
	completed := uint64(0)
	for _, r := range col.Flows() {
		if r.Completed {
			completed++
		}
	}
	if col.FlowsCompleted != completed {
		t.Errorf("FlowsCompleted = %d, want %d (the records with Completed set)", col.FlowsCompleted, completed)
	}
}

// TestRunNeverTerminatesWithStats: an open-ended Run must still terminate
// once traffic drains even with periodic sampling enabled.
func TestRunNeverTerminatesWithStats(t *testing.T) {
	topo := netgraph.Dumbbell(1, 1, netgraph.Gig, netgraph.TenGig)
	sim := New(Config{
		Topology: topo, Controller: proactiveMAC{}, Miss: dataplane.MissController,
		StatsEvery: 10 * simtime.Millisecond,
	})
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	sim.Load(traffic.Trace{{
		Key: addr.FlowKeyBetween(h0, r0, header.ProtoUDP, 40000, 80),
		Src: h0, Dst: r0, SizeBits: 1e7, RateBps: 1e8,
	}})
	done := make(chan struct{})
	go func() {
		mustRun(sim, simtime.Never)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run(Never) did not terminate after traffic drained")
	}
}
