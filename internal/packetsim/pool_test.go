package packetsim

import (
	"testing"

	"horse/internal/controller"
	"horse/internal/dataplane"
	"horse/internal/linkmodel"
	"horse/internal/simtime"
	"horse/internal/stats"
)

// requireDrained checks the pool after a run that quiesced: every packet
// the engine allocated has reached its one free and is back on the list.
func requireDrained(t *testing.T, sim *Simulator) {
	t.Helper()
	if sim.packets.allocated == 0 {
		t.Fatal("the run allocated no packets: the test exercises nothing")
	}
	if held := sim.PacketsHeld(); held != 0 {
		t.Errorf("%d of %d packets never freed after the run quiesced", held, sim.packets.allocated)
	}
}

// TestPacketOwnership runs scenarios to quiescence through every way a
// packet leaves its owner — delivery, a dead link mid-propagation, a flush
// at failure, corruption, a punt buffer's release or overflow, a crashed
// switch's parked punts — and checks that each packet was freed.
func TestPacketOwnership(t *testing.T) {
	cases := map[string]func(t *testing.T) (*Simulator, *stats.Collector){
		// Two core links fail and recover, and an aggregation switch
		// restarts, which the controller reprograms.
		"link failure": func(t *testing.T) (*Simulator, *stats.Collector) {
			topo, tr := goldenFatTree()
			sim := New(Config{
				Topology: topo, Miss: dataplane.MissController,
				Controller:     controller.NewChain(&controller.ProactiveMAC{}),
				ControlLatency: simtime.Millisecond,
			})
			sim.Load(tr)
			scriptFailures(sim, topo)
			col := mustRun(sim, simtime.Never)
			if col.PacketsLost == 0 {
				t.Fatal("no packet lost to the failures")
			}
			return sim, col
		},
		"link-model corruption": func(t *testing.T) (*Simulator, *stats.Collector) {
			topo, tr := goldenFatTree()
			links := linkmodel.NewSet(3, topo.NumLinks())
			links.SetDefault(linkmodel.BernoulliLoss{P: 0.05})
			sim := New(Config{Topology: topo, Miss: dataplane.MissDrop, Links: links})
			dataplane.InstallMACRoutes(sim.Network())
			sim.Load(tr)
			col := mustRun(sim, simtime.Never)
			if col.PacketsCorrupted == 0 {
				t.Fatal("no packet corrupted")
			}
			return sim, col
		},
		// A 2 ms control loop parks about eight packets per new flow at
		// its first switch, so a punt buffer of four also overflows.
		"punt and PacketOut": func(t *testing.T) (*Simulator, *stats.Collector) {
			topo, tr := goldenFatTree()
			sim := New(Config{
				Topology: topo, Miss: dataplane.MissController, QueuePackets: 4,
				Controller:     controller.NewChain(&controller.ReactiveMAC{}),
				ControlLatency: 2 * simtime.Millisecond,
			})
			sim.Load(tr)
			col := mustRun(sim, simtime.Never)
			if col.PacketIns == 0 {
				t.Fatal("no punts")
			}
			return sim, col
		},
		// The first flow's edge switch crashes while packets wait there
		// for the controller, and the controller detaches and reattaches
		// with packets parked elsewhere.
		"switch crash": func(t *testing.T) (*Simulator, *stats.Collector) {
			topo, tr := goldenFatTree()
			sim := New(Config{
				Topology: topo, Miss: dataplane.MissController,
				Controller:     controller.NewChain(&controller.ReactiveMAC{}),
				ControlLatency: 5 * simtime.Millisecond,
			})
			sim.Load(tr)
			edge, _ := topo.AttachedSwitch(tr[0].Src)
			crash := simtime.Time(3 * simtime.Millisecond)
			parked := 0
			sim.timerAt(crash-1, func() { parked = len(sim.punted[edge]) })
			sim.ScheduleSwitchChange(crash, edge, false)
			sim.ScheduleSwitchChange(crash+simtime.Time(20*simtime.Millisecond), edge, true)
			sim.ScheduleControllerChange(simtime.Time(8*simtime.Millisecond), false)
			sim.ScheduleControllerChange(simtime.Time(12*simtime.Millisecond), true)
			col := mustRun(sim, simtime.Never)
			if parked == 0 {
				t.Fatal("no packet parked at the switch when it crashed")
			}
			return sim, col
		},
	}
	for name, run := range cases {
		run := run
		t.Run(name, func(t *testing.T) {
			sim, col := run(t)
			requireDrained(t, sim)
			for _, r := range col.Flows() {
				if r.Outcome == "running" {
					t.Fatalf("flow %d still running: the run did not quiesce", r.ID)
				}
			}
		})
	}
}

// TestPacketDoubleFreePanics: a freed packet is zeroed, so freeing it again
// is caught instead of handing one packet to two owners.
func TestPacketDoubleFreePanics(t *testing.T) {
	var pool packetPool
	p := pool.get()
	p.flow = &pktFlow{}
	pool.put(p)
	defer func() {
		if recover() == nil {
			t.Fatal("a second free of one packet did not panic")
		}
	}()
	pool.put(p)
}
