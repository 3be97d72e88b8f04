package packetsim

import (
	"runtime"
	"testing"
	"unsafe"

	"horse/internal/dataplane"
	"horse/internal/simtime"
)

// hopFixture builds the golden k=4 fat-tree (pre-installed routes, mixed
// TCP/CBR, no controller, no sampling), loaded and ready to run to
// hopHorizon. zeroDelay strips the propagation delay from one link first.
func hopFixture(zeroDelay bool) *Simulator {
	topo, tr := goldenFatTree()
	if zeroDelay {
		topo.Link(0).Delay = 0
	}
	sim := New(Config{Topology: topo, Miss: dataplane.MissDrop})
	dataplane.InstallMACRoutes(sim.Network())
	sim.Load(tr)
	return sim
}

const hopHorizon = simtime.Time(2 * simtime.Second)

// runMallocs runs sim to hopHorizon and returns the heap allocations the
// run made — the fixture's setup is not counted.
func runMallocs(sim *Simulator) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustRun(sim, hopHorizon)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestEventsPerHop pins the transmitter without events of its own: a hop
// costs its arrival event and nothing else, so what remains above one
// event per hop is the senders' own (evSend, evRTO). The two-event
// transmitter spent 2.5 events per hop on this fixture. A zero-delay link
// runs with 1 ns of propagation and keeps the same cost.
func TestEventsPerHop(t *testing.T) {
	for _, zeroDelay := range []bool{false, true} {
		sim := hopFixture(zeroDelay)
		mustRun(sim, hopHorizon)
		hops, events := sim.PacketsForwarded(), sim.EventsDispatched()
		if hops == 0 {
			t.Fatalf("zeroDelay=%v: fixture forwarded nothing", zeroDelay)
		}
		if perHop := float64(events) / float64(hops); perHop >= 1.35 {
			t.Errorf("zeroDelay=%v: %d events for %d hops = %.2f events/hop, want < 1.35",
				zeroDelay, events, hops, perHop)
		}
	}
}

// TestEventSize pins the slim envelope: every schedule copies one and
// every release clears one. Control-plane events are the control plane's.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 48 {
		t.Errorf("event is %d bytes, want <= 48", n)
	}
}

// BenchmarkPacketHop is the per-hop cost of the packet fast path: the
// regression signal for the transmitter, the packet pool and the
// forward-decision memo without running the full benchmark. ns/hop
// includes building the fixture; allocs/hop counts the run alone.
func BenchmarkPacketHop(b *testing.B) {
	var hops, events, mallocs uint64
	var before, after runtime.MemStats
	for i := 0; i < b.N; i++ {
		sim := hopFixture(false)
		b.StopTimer()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		mustRun(sim, hopHorizon)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.StartTimer()
		mallocs += after.Mallocs - before.Mallocs
		hops += sim.PacketsForwarded()
		events += sim.EventsDispatched()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
	b.ReportMetric(float64(events)/float64(hops), "events/hop")
	b.ReportMetric(float64(mallocs)/float64(hops), "allocs/hop")
}
