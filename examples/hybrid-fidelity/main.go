// Hybrid fidelity: the mode the simulator is named for. One reactive
// scenario runs three times — pure flow-level, 50/50 hybrid, and pure
// packet-level — under the same reactive MAC controller. Foreground flows
// flagged for packet-level simulation see queues, slow start, and losses;
// background flows stay fluid; the coupler subtracts the background's
// fair-share rate from the link capacity the packet transmitters see.
// Watch accuracy (FCT drift vs the full-packet run) trade against events
// simulated.
//
//	go run ./examples/hybrid-fidelity
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"horse"
)

func main() {
	// The 100% run is the fidelity reference; the sweep reuses it for its
	// own 100% row (runs are deterministic) rather than paying for the
	// most expensive arm twice.
	ref, refEvents := run(1.0)
	fmt.Printf("%-12s %9s %9s %11s %11s\n", "packet-share", "completed", "events", "mean-FCT-s", "FCT-drift")
	for _, p := range []float64{0, 0.5, 1.0} {
		recs, events := ref, refEvents
		if p < 1 {
			recs, events = run(p)
		}
		var fctSum float64
		var drift float64
		var n int
		for id, fct := range recs {
			fctSum += fct
			if rf, ok := ref[id]; ok && rf > 0 {
				drift += math.Abs(fct-rf) / rf
				n++
			}
		}
		fmt.Printf("%11.0f%% %9d %9d %11.4f %10.1f%%\n",
			p*100, len(recs), events, fctSum/float64(len(recs)), drift/float64(n)*100)
	}
}

// run executes the scenario with fraction p of flows at packet level and
// returns completed-flow FCTs by demand index plus the kernel event count.
func run(p float64) (map[int64]float64, uint64) {
	topo := horse.Dumbbell(3, 3, horse.Gig, horse.LinkSpec{
		BandwidthBps: 2e8, Delay: horse.Millisecond,
	})
	eng, err := horse.New(topo,
		horse.WithFidelity(horse.Hybrid),
		horse.WithController(horse.NewChain(&horse.ReactiveMAC{})),
		horse.WithMiss(horse.MissController),
		horse.WithControlLatency(horse.Millisecond),
		horse.WithTCP(horse.TCPParams{RTT: 2200 * horse.Microsecond, MSS: 1500, InitialWindow: 10}),
		horse.WithPacketFraction(p),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Twelve staggered 2 Mbit transfers, half TCP, crossing the 200 Mbps
	// bottleneck.
	gen := horse.NewGenerator(7)
	eng.Load(gen.PoissonArrivals(horse.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 30, Horizon: 400 * horse.Millisecond,
		Sizes: horse.FixedSize(2e6), TCPFraction: 0.5, CBRRateBps: 2e7,
	}))
	col, err := eng.Run(context.Background(), horse.Time(30*horse.Second))
	if err != nil {
		log.Fatal(err)
	}

	// Records are numbered in load order at every fidelity, so IDs
	// compare across arms.
	out := make(map[int64]float64)
	for _, r := range col.Flows() {
		if r.Completed {
			out[r.ID] = r.FCT().Seconds()
		}
	}
	return out, eng.Kernel().Dispatched()
}
