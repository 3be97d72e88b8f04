package flowsim

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"horse/internal/addr"
	"horse/internal/dataplane"
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

// raceEnabled is set under -race (race_test.go). The race detector and
// coverage both instrument allocation, so the byte ceiling skips there.
var raceEnabled bool

// TestEventSize pins the slim envelope: every schedule copies one and
// every release clears one. Control-plane events are the ControlPlane's.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 48 {
		t.Errorf("event is %d bytes, want <= 48", n)
	}
}

// TestFlowAllocsPerFlow pins the allocation cost of the streamed path
// end to end — CSV scan, arrival, walk, solve, completion, record sink —
// on tiny CBR flows over a star (the flow.stream-250k shape). The bound is
// half of what the engine allocated before its flow state went dense
// (12.1 allocs/flow), so a per-flow allocation creeping back in fails here
// before it shows in a benchmark.
func TestFlowAllocsPerFlow(t *testing.T) {
	const flows = 5000
	topo := netgraph.Star(4, netgraph.Gig)
	var csv bytes.Buffer
	if err := starCBR(topo, flows).WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	records := 0
	allocs := testing.AllocsPerRun(2, func() {
		r, err := traffic.NewCSVReader(bytes.NewReader(csv.Bytes()), 0)
		if err != nil {
			t.Fatal(err)
		}
		sim := New(Config{Topology: topo, Controller: proactiveMAC{}, Miss: dataplane.MissController})
		records = 0
		sim.SetRecordSink(func(stats.FlowRecord) { records++ })
		sim.SetTraceReader(r)
		mustRun(sim, simtime.Never)
	})
	if records != flows {
		t.Fatalf("%d records for %d flows", records, flows)
	}
	perFlow := allocs / flows
	t.Logf("%.2f allocs/flow", perFlow)
	if perFlow > 6.05 {
		t.Fatalf("%.2f allocs/flow, want at most 6.05", perFlow)
	}
}

// starCBR is the flow.stream-250k trace at small scale: tiny line-rate
// CBR flows between random host pairs of topo, one every 10 µs from 10 ms.
func starCBR(topo *netgraph.Topology, flows int) traffic.Trace {
	hosts := topo.Hosts()
	rng := rand.New(rand.NewSource(1))
	tr := make(traffic.Trace, flows)
	for i := range tr {
		s := rng.Intn(len(hosts))
		d := (s + 1 + rng.Intn(len(hosts)-1)) % len(hosts)
		tr[i] = traffic.Demand{
			Key: addr.FlowKeyBetween(hosts[s], hosts[d], header.ProtoUDP, uint16(30000+rng.Intn(1000)), 80),
			Src: hosts[s], Dst: hosts[d],
			Start:    simtime.Time(10*simtime.Millisecond) + simtime.Time(i)*simtime.Time(10*simtime.Microsecond),
			SizeBits: 1e4, RateBps: 1e9,
		}
	}
	return tr
}

// TestLoneRouteSkipsSolve: line-rate flows leave no headroom, so only the
// lone-route case keeps a recompute off the solve, and on the
// flow.stream-250k shape most flows run alone. 57.8 % of recomputes take
// the slack path here; the floor is 5 points under that.
func TestLoneRouteSkipsSolve(t *testing.T) {
	topo := netgraph.Star(4, netgraph.Gig)
	sim := New(Config{Topology: topo, Controller: proactiveMAC{}, Miss: dataplane.MissController})
	sim.SetRecordSink(func(stats.FlowRecord) {})
	sim.Load(starCBR(topo, 5000))
	mustRun(sim, simtime.Never)
	a := sim.Allocator()
	total := a.SlackRecomputes + a.ComponentSolves
	share := float64(a.SlackRecomputes) / float64(total)
	t.Logf("%d recomputes, %d on the slack path (%.1f%%)", total, a.SlackRecomputes, 100*share)
	if total == 0 || share < 0.528 {
		t.Fatalf("slack path settled %.1f%% of %d recomputes, want at least 52.8%%", 100*share, total)
	}
}

// TestReplayAllocsPerFlow is the flow-level path's ceiling on the shape of
// an IXP replay: epochs of open-ended flows that all start at the epoch's
// first instant and share one fabric, so the solver's slot and edge
// tables, the per-switch flow lists, the wheel's ready run and the link
// series all grow to a high-water mark. Grown without copying what they
// hold, Run allocates 1,498 bytes per admitted flow here; with append's
// regrowth it took 1,939. The bound leaves 10 % headroom.
func TestReplayAllocsPerFlow(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("allocation counts are instrumented under -race and -cover")
	}
	const (
		epochs   = 2
		perEpoch = 2000
		epoch    = simtime.Duration(simtime.Second)
	)
	topo := netgraph.LeafSpine(4, 2, 8, netgraph.Gig, netgraph.LinkSpec{BandwidthBps: 10e9})
	hosts := topo.Hosts()
	rng := rand.New(rand.NewSource(1))
	tr := make(traffic.Trace, 0, epochs*perEpoch)
	for e := range epochs {
		for range perEpoch {
			s := rng.Intn(len(hosts))
			d := (s + 1 + rng.Intn(len(hosts)-1)) % len(hosts)
			tr = append(tr, traffic.Demand{
				Key: addr.FlowKeyBetween(hosts[s], hosts[d], header.ProtoTCP, uint16(1024+len(tr)), 80),
				Src: hosts[s], Dst: hosts[d],
				Start:    simtime.Time(e) * simtime.Time(epoch),
				SizeBits: math.Inf(1), RateBps: float64(1+rng.Intn(100)) * 1e6,
				Duration: epoch,
			})
		}
	}
	sim := New(Config{Topology: topo, Controller: proactiveMAC{}, Miss: dataplane.MissController, StatsEvery: epoch / 10})
	sim.SetRecordSink(func(stats.FlowRecord) {})
	sim.Load(tr)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	col := mustRun(sim, simtime.Time(epochs+1)*simtime.Time(epoch))
	runtime.ReadMemStats(&after)
	if col.FlowsStarted != epochs*perEpoch {
		t.Fatalf("%d flows admitted, want %d", col.FlowsStarted, epochs*perEpoch)
	}
	perFlow := float64(after.TotalAlloc-before.TotalAlloc) / float64(col.FlowsStarted)
	t.Logf("%.0f bytes allocated in Run per admitted flow", perFlow)
	if perFlow > 1650 {
		t.Errorf("%.0f bytes allocated in Run per admitted flow, want at most 1,650", perFlow)
	}
}
