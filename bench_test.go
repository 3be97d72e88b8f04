// Package horse_test holds the benchmark harness: one bench per experiment
// in DESIGN.md's index (the tables of EXPERIMENTS.md). The harness in
// internal/experiments produces the full report (`go run ./cmd/horsebench`);
// these testing.B benches time the underlying simulation kernels so
// `go test -bench=. -benchmem` tracks regressions per experiment.
package horse_test

import (
	"context"
	"testing"

	"horse"
	"horse/internal/experiments"
)

// BenchmarkE1PolicyCoexistence times the Figure-1 all-policies scenario.
func BenchmarkE1PolicyCoexistence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E1PolicyCoexistence()
	}
}

// BenchmarkE2ScaleSwitches times one fabric-size point of the scalability
// sweep (32 hosts, ~1000 flows).
func BenchmarkE2ScaleSwitches(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E2Scale([]int{8}, nil)
	}
}

// BenchmarkE2ScaleFlows times one flow-count point of the scalability
// sweep (λ=2000 on the fixed 8-leaf fabric).
func BenchmarkE2ScaleFlows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E2Scale(nil, []float64{2000})
	}
}

// BenchmarkE3FlowLevel times the flow-level side of the accuracy scenarios.
func BenchmarkE3FlowLevel(b *testing.B) {
	topo := horse.LeafSpine(3, 2, 3, horse.Gig, horse.TenGig)
	gen := horse.NewGenerator(21)
	tr := gen.PoissonArrivals(horse.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 30, Horizon: horse.Second,
		Sizes: horse.FixedSize(4e6), TCPFraction: 0.5, CBRRateBps: 2e7,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t2 := horse.LeafSpine(3, 2, 3, horse.Gig, horse.TenGig)
		eng, err := horse.New(t2,
			horse.WithController(horse.NewChain(&horse.ProactiveMAC{})),
			horse.WithMiss(horse.MissController),
		)
		if err != nil {
			b.Fatal(err)
		}
		eng.Load(retarget(tr))
		b.StartTimer()
		if _, err := eng.Run(context.Background(), horse.Time(2*horse.Second)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3PacketLevel times the packet-level side of the same scenario.
func BenchmarkE3PacketLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		topo := horse.LeafSpine(3, 2, 3, horse.Gig, horse.TenGig)
		gen := horse.NewGenerator(21)
		tr := gen.PoissonArrivals(horse.PoissonConfig{
			Hosts: topo.Hosts(), Lambda: 30, Horizon: horse.Second,
			Sizes: horse.FixedSize(4e6), TCPFraction: 0.5, CBRRateBps: 2e7,
		})
		eng, err := horse.New(topo, horse.WithFidelity(horse.Packet), horse.WithMiss(horse.MissDrop))
		if err != nil {
			b.Fatal(err)
		}
		horse.InstallMACRoutes(eng.Network())
		eng.Load(tr)
		b.StartTimer()
		if _, err := eng.Run(context.Background(), horse.Time(2*horse.Second)); err != nil {
			b.Fatal(err)
		}
	}
}

// retarget deep-copies a trace (flows carry no per-run state, but reusing
// the identical slice keeps the benches honest about per-run setup).
func retarget(tr horse.Trace) horse.Trace {
	out := make(horse.Trace, len(tr))
	copy(out, tr)
	return out
}

// BenchmarkE4IXPReplay times a 6-hour replay on a 100-member fabric.
func BenchmarkE4IXPReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E4IXPReplay([]int{100}, 6)
	}
}

// BenchmarkE5ConfigSweep times the full policy-configuration sweep.
func BenchmarkE5ConfigSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E5ConfigSweep()
	}
}

// BenchmarkE6EventQueue and BenchmarkE6FairShare time the ablation suite
// (both axes are produced by the same harness).
func BenchmarkE6EventQueue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E6Ablations()
	}
}

// BenchmarkE7FidelitySweep times the full hybrid fidelity sweep (reference
// packet run plus the 0/50/100% arms).
func BenchmarkE7FidelitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E7HybridFidelity([]float64{0, 0.5, 1})
	}
}

// BenchmarkE7HybridHalf times a single 50%-fidelity hybrid run — the
// steady-state cost of the coupled engines, without the sweep harness.
func BenchmarkE7HybridHalf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E7HybridFidelity([]float64{0.5})
	}
}

// BenchmarkE8Resilience times one resilience arm (both policies under a
// 500ms-MTBF failure process plus their failure-free baselines).
func BenchmarkE8Resilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E8Resilience(
			[]horse.Duration{500 * horse.Millisecond},
			[]horse.Duration{200 * horse.Millisecond},
		)
	}
}

// BenchmarkMillionFlowRecordSink times the bounded-memory streaming path
// at the paper's headline scale — one million flows through the flow
// engine with a record sink — once per event-queue backend. The wheel's
// O(1) schedule/cancel targets exactly this profile: every arrival
// re-arms completion timers, and cancellation keeps the queue population
// at live flows instead of accumulating gen-stamped corpses.
func BenchmarkMillionFlowRecordSink(b *testing.B) {
	for _, q := range []horse.EventQueue{horse.EventQueueWheel, horse.EventQueueHeap} {
		q := q
		b.Run(q.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				const n = 1_000_000
				topo := horse.Star(4, horse.Gig)
				hosts := topo.Hosts()
				streamed := 0
				eng, err := horse.New(topo,
					horse.WithController(horse.NewChain(&horse.ProactiveMAC{})),
					horse.WithMiss(horse.MissController),
					horse.WithEventQueue(q),
					horse.WithRecordSink(func(r horse.FlowRecord) { streamed++ }),
				)
				if err != nil {
					b.Fatal(err)
				}
				tr := make(horse.Trace, n)
				for j := range tr {
					src, dst := hosts[j%len(hosts)], hosts[(j+1)%len(hosts)]
					tr[j] = horse.Demand{
						Key: udpKey(src, dst, uint16(30000+j%1000)),
						Src: src, Dst: dst,
						Start:    horse.Time(j) * horse.Time(10*horse.Microsecond),
						SizeBits: 1e4, RateBps: 1e9,
					}
				}
				eng.Load(tr)
				b.StartTimer()
				if _, err := eng.Run(context.Background(), horse.Never); err != nil {
					b.Fatal(err)
				}
				if streamed != n {
					b.Fatalf("streamed %d records, want %d", streamed, n)
				}
			}
		})
	}
}
