package hybrid

import (
	"runtime"
	"testing"

	"horse/internal/controller"
	"horse/internal/dataplane"
	"horse/internal/netgraph"
	"horse/internal/simtime"
	"horse/internal/traffic"
)

// raceEnabled is set under -race (race_test.go). The race detector and
// coverage both instrument allocation, so the byte ceiling skips there.
var raceEnabled bool

// TestReactiveRunBytesPerFlow bounds what a reactive hybrid run allocates
// per flow on the hybrid.leafspine-q shape: a quarter of the flows
// packet-level, every first packet punted to ReactiveMAC, one FlowMod per
// switch on its path. The plane sends recycled copies of FlowMods and
// PacketOuts and TCP receivers make no out-of-order buffer until a gap,
// so Run allocates 910 bytes per flow here; with a fresh message per
// install and a map per packet-level flow it took 1,276. The bound leaves
// 10 % headroom.
func TestReactiveRunBytesPerFlow(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("allocation counts are instrumented under -race and -cover")
	}
	sim, tr := reactiveLeafSpine()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	col := mustRun(sim, simtime.Time(30*simtime.Second))
	runtime.ReadMemStats(&after)
	if len(col.Flows()) != len(tr) || col.FlowMods == 0 {
		t.Fatalf("%d records for %d flows, %d FlowMods", len(col.Flows()), len(tr), col.FlowMods)
	}
	perFlow := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(tr))
	t.Logf("%d flows, %d FlowMods: %.0f bytes/flow", len(tr), col.FlowMods, perFlow)
	if perFlow > 1001 {
		t.Errorf("Run allocates %.0f bytes/flow, want at most 1001", perFlow)
	}
}

// reactiveLeafSpine is the hybrid.leafspine-q shape, loaded: 0.5 s of
// Poisson arrivals at 4,000 flows/s on an 8×4 leaf-spine, a quarter of them
// packet-level, half TCP, every first packet punted to ReactiveMAC.
func reactiveLeafSpine() (*Simulator, traffic.Trace) {
	topo := netgraph.LeafSpine(8, 4, 8, netgraph.Gig, netgraph.TenGig)
	tr := traffic.NewGenerator(1).PoissonArrivals(traffic.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 4000, Horizon: 500 * simtime.Millisecond,
		Sizes: traffic.FixedSize(5e5), TCPFraction: 0.5, CBRRateBps: 2e7,
	})
	sim := New(Config{
		Topology: topo, Controller: controller.NewChain(&controller.ReactiveMAC{}),
		Miss: dataplane.MissController, PacketLevel: Fraction(0.25),
	})
	sim.Load(tr)
	return sim, tr
}

// TestReactiveRecomputesTakeSlackPath guards the allocator's slack path on
// the reactive leaf-spine shape, where no link saturates: nearly every
// recompute moves flows whose whole route keeps headroom, and must settle
// without a component solve. Records are identical either way, so nothing
// else would notice the path switched off.
func TestReactiveRecomputesTakeSlackPath(t *testing.T) {
	sim, _ := reactiveLeafSpine()
	mustRun(sim, simtime.Time(30*simtime.Second))
	a := sim.flow.Allocator()
	total := a.SlackRecomputes + a.ComponentSolves
	share := float64(a.SlackRecomputes) / float64(total)
	t.Logf("%d recomputes, %d on the slack path (%.1f%%)", total, a.SlackRecomputes, 100*share)
	if total == 0 || share < 0.9 {
		t.Fatalf("slack path settled %.1f%% of %d recomputes, want at least 90%%", 100*share, total)
	}
}
