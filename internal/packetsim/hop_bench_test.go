package packetsim

import (
	"runtime"
	"testing"
	"unsafe"

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

// TestEventsPerHop pins the transmitter without events of its own: a hop
// costs its arrival event and nothing else, so what remains above one
// event per hop is the senders' own (evSend, evRTO). The two-event
// transmitter spent 2.5 events per hop on this fixture. A zero-delay link
// runs with 1 ns of propagation and keeps the same cost.
func TestEventsPerHop(t *testing.T) {
	for _, zeroDelay := range []bool{false, true} {
		hops, events := runHopFixture(zeroDelay)
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
