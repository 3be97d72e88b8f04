package horse_test

import (
	"context"
	"testing"

	"horse"
)

// goldenDegradedRun executes the golden degraded fat-tree through the
// facade: a k=4 fat-tree, a seeded mixed CBR/TCP Poisson workload, a
// Gilbert–Elliott default model on every link, and one adaptive-rate
// override — at the given fidelity.
func goldenDegradedRun(t *testing.T, fid horse.Fidelity, degraded bool) *horse.Collector {
	t.Helper()
	topo := horse.FatTree(4, horse.Gig)
	opts := []horse.Option{
		horse.WithFidelity(fid),
		horse.WithMiss(horse.MissDrop),
		horse.WithController(horse.NewChain(&horse.ProactiveMAC{})),
		horse.WithControlLatency(horse.Microsecond),
	}
	if fid != horse.Packet {
		opts = append(opts, horse.WithTCP(horse.TCPParams{RTT: 500 * horse.Microsecond, MSS: 1500, InitialWindow: 10}))
	}
	if degraded {
		radio := topo.Links()[0].ID
		opts = append(opts,
			horse.WithLinkModel(horse.GilbertElliott{PGoodBad: 0.02, PBadGood: 0.25, LossGood: 0.001, LossBad: 0.4}),
			horse.WithLinkModelFor(radio, horse.AdaptiveRate{Levels: 4, Floor: 0.25, Every: 10 * horse.Millisecond}),
			horse.WithLinkModelSeed(7),
		)
	}
	eng, err := horse.New(topo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	gen := horse.NewGenerator(107)
	eng.Load(gen.PoissonArrivals(horse.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 300, Horizon: 200 * horse.Millisecond,
		Sizes: horse.FixedSize(1e6), TCPFraction: 0.5, CBRRateBps: 2e7,
	}))
	col, err := eng.Run(context.Background(), horse.Time(2*horse.Second))
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// TestGoldenDegradedFatTree is the cross-engine golden of the link-model
// subsystem: the identical degraded fat-tree scenario runs at flow and
// packet fidelity, and each engine must express the degradation in its
// own vocabulary — per-frame corruption drops and retransmits at packet
// level, loss-capped (slower, but uncorrupted) fluid flows at flow
// level — while repeat runs stay byte-identical.
func TestGoldenDegradedFatTree(t *testing.T) {
	for _, fid := range []horse.Fidelity{horse.Flow, horse.Packet} {
		fid := fid
		t.Run(fid.String(), func(t *testing.T) {
			clean := goldenDegradedRun(t, fid, false)
			col := goldenDegradedRun(t, fid, true)

			if fid == horse.Packet {
				if col.PacketsCorrupted == 0 {
					t.Error("packet engine corrupted no frames on a lossy fabric")
				}
				if col.Retransmits == 0 {
					t.Error("packet engine never retransmitted through loss")
				}
				if clean.PacketsCorrupted != 0 {
					t.Errorf("pristine run corrupted %d frames", clean.PacketsCorrupted)
				}
			} else {
				if col.PacketsCorrupted != 0 {
					t.Errorf("flow engine counted %d corrupted frames; it has no frames", col.PacketsCorrupted)
				}
				// Loss shows up as Mathis-capped TCP throughput: the
				// degraded run must finish real work strictly slower.
				var cleanDone, lossyDone int
				var cleanFCT, lossyFCT float64
				for _, r := range clean.Flows() {
					if r.Completed {
						cleanDone++
						cleanFCT += r.FCT().Seconds()
					}
				}
				for _, r := range col.Flows() {
					if r.Completed {
						lossyDone++
						lossyFCT += r.FCT().Seconds()
					}
				}
				if cleanDone == 0 || lossyDone == 0 {
					t.Fatalf("golden scenario completed %d clean / %d lossy flows", cleanDone, lossyDone)
				}
				if lossyFCT/float64(lossyDone) <= cleanFCT/float64(cleanDone) {
					t.Errorf("degraded flow run not slower: mean FCT %.6fs vs clean %.6fs",
						lossyFCT/float64(lossyDone), cleanFCT/float64(cleanDone))
				}
			}

			// Determinism: a repeat run reproduces the records exactly.
			a, b := col.Flows(), goldenDegradedRun(t, fid, true).Flows()
			if len(a) != len(b) {
				t.Fatalf("repeat: %d records vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("repeat: record %d diverged:\n%+v\nvs\n%+v", i, a[i], b[i])
				}
			}
		})
	}
}
