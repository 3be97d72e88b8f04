package flowsim_test

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"horse/internal/addr"
	"horse/internal/controller"
	"horse/internal/dataplane"
	"horse/internal/flowsim"
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/simtime"
	"horse/internal/traffic"
)

// TestLiveFlowBytes pins what one live flow costs the heap: 8,000
// open-ended CBR flows between hosts on different leaves of an ECMP
// leaf-spine (three switch hops each) are all active at once, and the live
// heap after a GC grows by their flow slots, paths, per-switch list
// entries, allocator slots and completion timers. The flows arrive after
// the controller's installs and are measured from just before the first
// arrival. The compact slot layout reads 711 bytes per live flow here; the
// layout before it, a 400-byte Flow with seven slices, resources kept in
// the Flow and the allocator both, 16-byte per-switch refs and a pooled
// envelope per queued completion, read 1,193. The bound leaves 10 %
// headroom, and is 66 % of 1,193.
func TestLiveFlowBytes(t *testing.T) {
	if n := unsafe.Sizeof(flowsim.Flow{}); n > 224 {
		t.Errorf("a Flow is %d bytes, want at most 224", n)
	}
	if flowsim.RaceEnabled() || testing.CoverMode() != "" {
		t.Skip("allocation counts are instrumented under -race and -cover")
	}
	const flows = 8000
	topo := netgraph.LeafSpine(8, 4, 8, netgraph.Gig, netgraph.TenGig)
	hosts := topo.Hosts()
	perLeaf := len(hosts) / 8
	start := simtime.Time(10 * simtime.Millisecond)
	tr := make(traffic.Trace, flows)
	for i := range tr {
		s := hosts[i%len(hosts)]
		d := hosts[(i+perLeaf*(1+i/len(hosts)%7))%len(hosts)]
		tr[i] = traffic.Demand{
			Key: addr.FlowKeyBetween(s, d, header.ProtoUDP, uint16(1024+i), 80),
			Src: s, Dst: d, Start: start,
			SizeBits: math.Inf(1), RateBps: 1e5, Duration: simtime.Duration(simtime.Minute),
		}
	}
	fs := flowsim.New(flowsim.Config{Topology: topo, Miss: dataplane.MissController,
		Controller: controller.NewChain(&controller.ECMPLoadBalancer{})})
	k := fs.Kernel()
	fs.Load(tr)
	fs.Plane().Start()
	fs.Begin()
	k.Run(start - 1)
	before := liveHeap()
	k.Run(start + simtime.Time(simtime.Millisecond))
	after := liveHeap()

	col := fs.Collector()
	if col.FlowsStarted != flows || col.PacketIns != 0 || col.FlowsCompleted != 0 {
		t.Fatalf("%d of %d flows started, %d punted, %d completed: want all active", col.FlowsStarted, flows, col.PacketIns, col.FlowsCompleted)
	}
	if err := fs.StalePath(); err != nil {
		t.Fatal(err)
	}
	if err := fs.CheckSlots(); err != nil {
		t.Fatal(err)
	}
	perFlow := float64(after-before) / flows
	t.Logf("%.0f bytes of live heap per live flow", perFlow)
	if perFlow > 782 {
		t.Errorf("%.0f bytes of live heap per live flow, want at most 782", perFlow)
	}
	runtime.KeepAlive(tr)
	fs.Finish()
}

// liveHeap returns the bytes of heap objects live after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
