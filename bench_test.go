// Package horse_test holds the façade-level benchmarks: both sides of the
// E3 accuracy scenario and the million-flow streamed record path. Per
// experiment timings are BenchmarkQuick in internal/experiments.
package horse_test

import (
	"context"
	"testing"

	"horse"
)

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

// BenchmarkMillionFlowRecordSink times the bounded-memory streaming path
// at the paper's headline scale — one million flows through the flow
// engine with a record sink. The wheel's O(1) schedule/cancel targets
// exactly this profile: every arrival re-arms completion timers, and
// cancellation keeps the queue population at live flows instead of
// accumulating gen-stamped corpses.
func BenchmarkMillionFlowRecordSink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		const n = 1_000_000
		topo := horse.Star(4, horse.Gig)
		hosts := topo.Hosts()
		streamed := 0
		eng, err := horse.New(topo,
			horse.WithController(horse.NewChain(&horse.ProactiveMAC{})),
			horse.WithMiss(horse.MissController),
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
}
