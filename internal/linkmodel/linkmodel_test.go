package linkmodel

import (
	"math"
	"testing"

	"horse/internal/netgraph"
	"horse/internal/simtime"
)

// TestStateDeterminism pins the seed-reproducibility contract: the same
// (seed, dir) replays the identical draw stream, different dirs diverge,
// and a copied State replays exactly from the copy point.
func TestStateDeterminism(t *testing.T) {
	a := NewState(7, 4)
	b := NewState(7, 4)
	for i := 0; i < 1000; i++ {
		if va, vb := a.NextFloat(), b.NextFloat(); va != vb {
			t.Fatalf("draw %d diverged: %g vs %g", i, va, vb)
		}
	}
	c := NewState(7, 5)
	same := 0
	d := NewState(7, 4)
	for i := 0; i < 100; i++ {
		if c.NextFloat() == d.NextFloat() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("distinct dirs produced %d/100 equal draws", same)
	}
	mid := a // copy mid-stream
	for i := 0; i < 100; i++ {
		if va, vb := a.NextFloat(), mid.NextFloat(); va != vb {
			t.Fatalf("copied state diverged at draw %d", i)
		}
	}
}

// TestBernoulliShape checks the empirical corruption rate against P at a
// fixed seed.
func TestBernoulliShape(t *testing.T) {
	m := BernoulliLoss{P: 0.03}
	st := NewState(11, 0)
	const n = 200000
	lost := 0
	for i := 0; i < n; i++ {
		if m.Corrupt(&st) {
			lost++
		}
	}
	got := float64(lost) / n
	if math.Abs(got-0.03) > 0.003 {
		t.Fatalf("empirical loss %g, want 0.03 ± 0.003", got)
	}
	if m.LossRate() != 0.03 {
		t.Fatalf("LossRate=%g, want 0.03", m.LossRate())
	}
}

// TestGilbertElliottShape pins the burst model's statistical shape at a
// fixed seed: empirical loss rate within tolerance of the stationary
// closed form πB·LossBad + (1−πB)·LossGood, and mean loss-burst length
// within tolerance of 1/PBadGood (the geometric sojourn mean, exact for
// LossBad=1, LossGood=0).
func TestGilbertElliottShape(t *testing.T) {
	m := GilbertElliott{PGoodBad: 0.002, PBadGood: 0.2, LossGood: 0, LossBad: 1}
	wantRate := m.PGoodBad / (m.PGoodBad + m.PBadGood) // ≈ 0.0099
	if got := m.LossRate(); math.Abs(got-wantRate) > 1e-12 {
		t.Fatalf("LossRate=%g, want %g", got, wantRate)
	}
	st := NewState(23, 2)
	const n = 500000
	lost, bursts, run := 0, 0, 0
	var burstSum int
	for i := 0; i < n; i++ {
		if m.Corrupt(&st) {
			lost++
			run++
		} else if run > 0 {
			bursts++
			burstSum += run
			run = 0
		}
	}
	if run > 0 {
		bursts++
		burstSum += run
	}
	gotRate := float64(lost) / n
	if math.Abs(gotRate-wantRate)/wantRate > 0.15 {
		t.Fatalf("empirical loss %g, want %g ± 15%%", gotRate, wantRate)
	}
	wantBurst := 1 / m.PBadGood // 5 frames
	gotBurst := float64(burstSum) / float64(bursts)
	if math.Abs(gotBurst-wantBurst)/wantBurst > 0.15 {
		t.Fatalf("mean burst length %g, want %g ± 15%%", gotBurst, wantBurst)
	}
	// The burst structure must be real: far fewer bursts than lost
	// frames (a Bernoulli channel at the same rate has burst length ~1).
	if gotBurst < 2 {
		t.Fatalf("mean burst length %g: no burst structure", gotBurst)
	}
}

// TestAdaptiveRateShape checks the block-fading scale: bounded by
// [Floor, 1], constant within a coherence window, pure under repeated
// evaluation, and actually stepping across windows.
func TestAdaptiveRateShape(t *testing.T) {
	m := AdaptiveRate{Levels: 4, Floor: 0.25, Every: 10 * simtime.Millisecond}
	st := NewState(31, 6)
	levels := map[float64]bool{}
	for w := 0; w < 200; w++ {
		at := simtime.Time(w) * simtime.Time(m.Every)
		s1 := m.RateScale(&st, at)
		s2 := m.RateScale(&st, at.Add(m.Every/2))
		if s1 != s2 {
			t.Fatalf("window %d: scale changed inside a coherence window (%g vs %g)", w, s1, s2)
		}
		if s1 < m.Floor || s1 > 1 {
			t.Fatalf("window %d: scale %g outside [%g, 1]", w, s1, m.Floor)
		}
		levels[s1] = true
	}
	if len(levels) != m.Levels {
		t.Fatalf("saw %d distinct levels over 200 windows, want %d", len(levels), m.Levels)
	}
	// Purity: evaluating must not perturb the corruption stream.
	before := st
	_ = m.RateScale(&st, simtime.Time(simtime.Second))
	if st != before {
		t.Fatal("RateScale mutated the state")
	}
}

// TestSetLifecycle covers install/degrade/restore bookkeeping and the
// reseed-on-reinstall contract.
func TestSetLifecycle(t *testing.T) {
	s := NewSet(5, 3)
	if !s.Empty() {
		t.Fatal("fresh set not empty")
	}
	if s.Links() != 3 {
		t.Fatalf("Links()=%d, want 3", s.Links())
	}
	m := BernoulliLoss{P: 0.5}
	s.SetLink(1, m)
	if s.Empty() {
		t.Fatal("set empty after SetLink")
	}
	if s.Model(1, true) != Model(m) || s.Model(1, false) != Model(m) {
		t.Fatal("SetLink did not cover both directions")
	}
	if s.Model(0, true) != nil {
		t.Fatal("SetLink leaked onto another link")
	}
	if got := s.LossRate(1, true); got != 0.5 {
		t.Fatalf("LossRate=%g, want 0.5", got)
	}
	// Record a prefix of the corruption stream, restore, degrade again:
	// the stream must replay from the start (reseeded).
	var first [32]bool
	for i := range first {
		first[i] = s.Corrupt(1, true)
	}
	s.Restore(1)
	if !s.Empty() {
		t.Fatal("set not empty after Restore")
	}
	if s.Corrupt(1, true) {
		t.Fatal("restored link corrupted a frame")
	}
	s.Degrade(1, m)
	for i := range first {
		if got := s.Corrupt(1, true); got != first[i] {
			t.Fatalf("reinstalled stream diverged at frame %d", i)
		}
	}
	// A nil set (engine without models) is empty and harmless.
	var nilSet *Set
	if !nilSet.Empty() {
		t.Fatal("nil set not empty")
	}
}

// TestSetDefault installs on every link.
func TestSetDefault(t *testing.T) {
	s := NewSet(1, 4)
	s.SetDefault(GilbertElliott{PGoodBad: 0.01, PBadGood: 0.5, LossBad: 1})
	for l := 0; l < 4; l++ {
		for _, fwd := range []bool{true, false} {
			if s.Model(netgraph.LinkID(l), fwd) == nil {
				t.Fatalf("link %d fwd=%v has no model", l, fwd)
			}
		}
	}
	s.SetDefault(nil)
	if !s.Empty() {
		t.Fatal("SetDefault(nil) did not clear")
	}
}

// TestValidate covers the parameter guards.
func TestValidate(t *testing.T) {
	ok := []Model{
		BernoulliLoss{P: 0},
		BernoulliLoss{P: 0.999},
		GilbertElliott{PGoodBad: 0.01, PBadGood: 0.2, LossBad: 1},
		AdaptiveRate{Levels: 2, Floor: 0.5, Every: simtime.Millisecond},
	}
	for _, m := range ok {
		if err := Validate(m); err != nil {
			t.Fatalf("Validate(%v): unexpected error %v", m, err)
		}
	}
	bad := []Model{
		nil,
		BernoulliLoss{P: 1},
		BernoulliLoss{P: -0.1},
		GilbertElliott{},
		GilbertElliott{PGoodBad: 1.5, PBadGood: 0.5},
		GilbertElliott{PGoodBad: 0.01, PBadGood: 0, LossBad: 1},
		AdaptiveRate{Levels: 1, Floor: 0.5, Every: simtime.Millisecond},
		AdaptiveRate{Levels: 4, Floor: 0, Every: simtime.Millisecond},
		AdaptiveRate{Levels: 4, Floor: 0.5},
	}
	for _, m := range bad {
		if err := Validate(m); err == nil {
			t.Fatalf("Validate(%#v): expected error", m)
		}
	}
}
