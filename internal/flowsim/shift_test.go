package flowsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"horse/internal/fairshare"
)

// TestResourceSetMatchesSortDedup: the epoch-marked set reports exactly
// what sorting the raw list and dropping repeats does — the slice
// OnRateShift received before the set existed — across reused drains,
// meter resources (the IDs past the links'), and an epoch wrap.
func TestResourceSetMatchesSortDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var rs resourceSet
	for round := 0; round < 200; round++ {
		if round == 100 {
			rs.epoch = math.MaxUint32 // the next reset wraps
		}
		var raw []fairshare.ResourceID
		for i, n := 0, rng.Intn(80); i < n; i++ {
			r := fairshare.ResourceID(rng.Intn(48))
			if rng.Intn(8) == 0 {
				r = 48 + fairshare.ResourceID(rng.Intn(4))
			}
			raw = append(raw, r)
		}
		rs.reset()
		for _, r := range raw {
			rs.add(r)
		}
		want := slices.Clone(raw)
		slices.Sort(want)
		want = slices.Compact(want)
		if got := rs.sorted(); !slices.Equal(got, want) {
			t.Fatalf("round %d: got %v, want %v", round, got, want)
		}
	}
}
