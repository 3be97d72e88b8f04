package flowsim

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"horse/internal/dataplane"
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

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
	hosts := topo.Hosts()
	rng := rand.New(rand.NewSource(1))
	tr := make(traffic.Trace, flows)
	for i := range tr {
		s := rng.Intn(len(hosts))
		d := (s + 1 + rng.Intn(len(hosts)-1)) % len(hosts)
		tr[i] = traffic.Demand{
			Src: hosts[s], Dst: hosts[d],
			Start:    simtime.Time(10*simtime.Millisecond) + simtime.Time(i)*simtime.Time(10*simtime.Microsecond),
			SizeBits: 1e4, RateBps: 1e9,
		}
		tr[i].Key.Proto = header.ProtoUDP
		tr[i].Key.SrcPort = uint16(30000 + rng.Intn(1000))
		tr[i].Key.DstPort = 80
	}
	var csv bytes.Buffer
	if err := tr.WriteCSV(&csv); err != nil {
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
