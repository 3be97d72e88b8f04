package packetsim

import (
	"runtime"
	"testing"

	"horse/internal/dataplane"
	"horse/internal/netgraph"
)

// raceEnabled is set under -race (race_test.go). The race detector and
// coverage both instrument allocation, so the ceilings below skip there.
var raceEnabled bool

func skipIfInstrumented(t *testing.T) {
	t.Helper()
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("allocation counts are instrumented under -race and -cover")
	}
}

// TestRunAllocsPerHop is the packet path's allocation ceiling: pooled
// packets and the memo leave the run with 0.041 allocations per hop on
// the golden k=4 fixture (13,360 hops), against 0.233 with one heap packet
// per frame. The bound leaves 50 % headroom.
func TestRunAllocsPerHop(t *testing.T) {
	skipIfInstrumented(t)
	sim := hopFixture(false)
	mallocs := runMallocs(sim)
	perHop := float64(mallocs) / float64(sim.PacketsForwarded())
	t.Logf("%d allocations for %d hops = %.3f/hop", mallocs, sim.PacketsForwarded(), perHop)
	if perHop > 0.062 {
		t.Errorf("%.3f allocations per hop, want at most 0.062", perHop)
	}
}

// TestRouteInstallAllocs is route installation's ceiling: one path
// scratch reused across destinations allocates nothing per query once
// grown, and InstallMACRoutes on FatTree(8) (10,240 rules) then costs
// only the rules themselves — 3.4 MiB, against 6.6 MiB with a fresh
// Dijkstra, next-hop table and FlowMod per destination. The bound leaves
// 50 % headroom.
func TestRouteInstallAllocs(t *testing.T) {
	skipIfInstrumented(t)
	topo := netgraph.FatTree(8, netgraph.Gig)
	topo.Link(0).Up = false
	var sc netgraph.PathScratch
	hosts := topo.Hosts()
	topo.ECMPNextHopsInto(&sc, hosts[0], netgraph.HopCost)
	if n := testing.AllocsPerRun(10, func() {
		for _, h := range hosts {
			topo.ECMPNextHopsInto(&sc, h, netgraph.HopCost)
		}
	}); n != 0 {
		t.Errorf("ECMPNextHopsInto on a grown scratch: %.0f allocations per pass, want 0", n)
	}

	net := dataplane.NewNetwork(netgraph.FatTree(8, netgraph.Gig), dataplane.MissDrop)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dataplane.InstallMACRoutes(net)
	runtime.ReadMemStats(&after)
	mib := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("InstallMACRoutes on FatTree(8): %.2f MiB, %d allocations", mib, after.Mallocs-before.Mallocs)
	if mib > 5.2 {
		t.Errorf("InstallMACRoutes allocated %.2f MiB, want at most 5.2", mib)
	}
}
