package packetsim

import (
	"runtime"
	"testing"

	"horse/internal/dataplane"
	"horse/internal/simtime"
)

// runHopFixture runs the golden k=4 fat-tree (pre-installed routes, mixed
// TCP/CBR, no controller, no sampling) serially and returns the hops it
// simulated and the kernel events that took. zeroDelay strips the
// propagation delay from one link first.
func runHopFixture(zeroDelay bool) (hops, events uint64) {
	topo, tr := goldenFatTree()
	if zeroDelay {
		topo.Link(0).Delay = 0
	}
	sim := New(Config{Topology: topo, Miss: dataplane.MissDrop})
	installMACRoutes(sim.Network())
	sim.Load(tr)
	mustRun(sim, simtime.Time(2*simtime.Second))
	return sim.PacketsForwarded(), sim.EventsDispatched()
}

// TestEventsPerHop pins the transmitter fusion: with arrivals scheduled at
// start of service, a hop costs its arrival event plus an evTxDone only
// under contention. The two-event transmitter spent 2.5 events per hop on
// this fixture; if the ratio creeps back toward that, fusion stopped
// firing. It also pins the stated exception: one zero-delay link anywhere
// puts the whole topology back on the two-event transmitter (startTx), so
// such a run gets none of the gain.
func TestEventsPerHop(t *testing.T) {
	hops, events := runHopFixture(false)
	if hops == 0 {
		t.Fatal("fixture forwarded nothing")
	}
	if perHop := float64(events) / float64(hops); perHop >= 1.8 {
		t.Errorf("%d events for %d hops = %.2f events/hop, want < 1.8", events, hops, perHop)
	}
	hops, events = runHopFixture(true)
	if hops == 0 {
		t.Fatal("zero-delay fixture forwarded nothing")
	}
	if perHop := float64(events) / float64(hops); perHop < 2 {
		t.Errorf("zero-delay link: %.2f events/hop, want the two-event transmitter's >= 2", perHop)
	}
}

// BenchmarkPacketHop is the per-hop cost of the packet fast path: the
// regression signal for the transmitter and the forward-decision memo
// without running the full benchmark.
func BenchmarkPacketHop(b *testing.B) {
	var hops, events uint64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, e := runHopFixture(false)
		hops += h
		events += e
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
	b.ReportMetric(float64(events)/float64(hops), "events/hop")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(hops), "allocs/hop")
}
