package packetsim_test

import (
	"context"
	"testing"

	"horse"
	"horse/internal/packetsim"
	"horse/internal/simtime"
)

// TestCollectorRunCounters pins that every fidelity fills the run counters
// one way: EventsRun is the kernel's dispatch count and FlowsCompleted
// tallies the completed records.
func TestCollectorRunCounters(t *testing.T) {
	for _, fid := range []horse.Fidelity{horse.Flow, horse.Packet, horse.Hybrid} {
		t.Run(fid.String(), func(t *testing.T) {
			topo, tr := packetsim.GoldenFatTree()
			opts := []horse.Option{horse.WithFidelity(fid), horse.WithMiss(horse.MissDrop)}
			if fid == horse.Hybrid {
				opts = append(opts, horse.WithPacketFraction(0.5))
			}
			eng, err := horse.New(topo, opts...)
			if err != nil {
				t.Fatal(err)
			}
			horse.InstallMACRoutes(eng.Network())
			eng.Load(tr)
			col, err := eng.Run(context.Background(), simtime.Time(2*simtime.Second))
			if err != nil {
				t.Fatal(err)
			}
			if n := eng.Kernel().Dispatched(); col.EventsRun == 0 || col.EventsRun != n {
				t.Errorf("EventsRun = %d, want the kernel's %d dispatches", col.EventsRun, n)
			}
			var completed uint64
			for _, r := range col.Flows() {
				if r.Completed {
					completed++
				}
			}
			if completed == 0 || col.FlowsCompleted != completed {
				t.Errorf("FlowsCompleted = %d, want %d completed records", col.FlowsCompleted, completed)
			}
			if sim, ok := eng.(*packetsim.Simulator); ok && sim.ShardLoads() != nil {
				t.Errorf("ShardLoads() = %v, want nil", sim.ShardLoads())
			}
		})
	}
}
