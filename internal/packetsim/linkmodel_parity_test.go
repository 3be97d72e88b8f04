package packetsim

import (
	"testing"

	"horse/internal/dataplane"
	"horse/internal/eventq"
	"horse/internal/linkmodel"
	"horse/internal/simcore"
	"horse/internal/simtime"
)

// runGoldenDegraded runs the golden fat-tree with a link-degradation
// model installed on every link, on a kernel over the given queue.
func runGoldenDegraded(m linkmodel.Model, seed uint64, q eventq.Backend) runResult {
	topo, tr := goldenFatTree()
	links := linkmodel.NewSet(seed, topo.NumLinks())
	links.SetDefault(m)
	sim := newOwn(simcore.New(simcore.Config{Backend: q}), Config{
		Topology: topo, Miss: dataplane.MissDrop,
		StatsEvery: 20 * simtime.Millisecond,
		Links:      links,
	})
	dataplane.InstallMACRoutes(sim.Network())
	sim.Load(tr)
	col := mustRun(sim, simtime.Time(2*simtime.Second))
	return snapshot(sim, col)
}

// TestLinkModelSeedSensitivity: changing the corruption seed must change
// the drop pattern (same everything else) — the seed is live, not inert.
func TestLinkModelSeedSensitivity(t *testing.T) {
	m := linkmodel.BernoulliLoss{P: 0.03}
	a := runGoldenDegraded(m, 7, eventq.BackendWheel)
	b := runGoldenDegraded(m, 8, eventq.BackendWheel)
	if a.lost == b.lost && len(a.records) == len(b.records) {
		same := true
		for i := range a.records {
			if a.records[i] != b.records[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("seeds 7 and 8 produced identical degraded runs; the corruption seed is dead")
		}
	}
}

// FuzzLinkModelParity is the pinned invariant of the link-model streams:
// for ANY model parameters and corruption seed, a degraded run on the
// wheel is byte-identical to the heap run of the same model and seed.
func FuzzLinkModelParity(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(0), uint64(7))
	f.Add(uint8(1), uint8(5), uint8(30), uint64(1))
	f.Add(uint8(2), uint8(4), uint8(25), uint64(99))
	f.Add(uint8(1), uint8(100), uint8(100), uint64(7))
	f.Fuzz(func(t *testing.T, kind, p1, p2 uint8, seed uint64) {
		var m linkmodel.Model
		switch kind % 3 {
		case 0:
			// p ∈ [0, 0.99]
			m = linkmodel.BernoulliLoss{P: float64(p1%100) / 101}
		case 1:
			m = linkmodel.GilbertElliott{
				PGoodBad: float64(p1%100)/101 + 0.001,
				PBadGood: float64(p2%100)/101 + 0.001,
				LossGood: 0.001,
				LossBad:  0.5,
			}
		case 2:
			m = linkmodel.AdaptiveRate{
				Levels: 2 + int(p1%6),
				Floor:  0.2 + float64(p2%8)/10,
				Every:  simtime.Duration(1+p2%20) * simtime.Millisecond,
			}
		}
		if err := linkmodel.Validate(m); err != nil {
			t.Skip(err)
		}
		if seed == 0 {
			seed = 1
		}
		ref := runGoldenDegraded(m, seed, eventq.BackendHeap)
		diffRuns(t, "fuzz-linkmodel", ref, runGoldenDegraded(m, seed, eventq.BackendWheel))
	})
}
