// Package linkmodel models link degradation: per-link-direction frame
// corruption and rate adaptation, deterministic and seed-reproducible.
// It is the "degraded but alive" half of the dynamic-network story —
// dataplane.FailureState decides whether a link is up at all, and a
// Model decides how well an up link carries traffic. The two compose:
// a dead link stays dead whatever its model says, and a degraded link
// keeps corrupting frames right up to the instant a scripted outage
// kills it.
//
// Every engine consults one Set, a per-link-direction registry of
// (Model, State) pairs. The packet engine asks Corrupt per transmitted
// frame and scales transmitter rates by RateScale; the flow engine folds
// LossRate into the TCP throughput model (tcpmodel.MathisCap) and
// applies RateScale as a time-varying fair-share capacity; a hybrid run
// hands the same Set to both engines so they see one channel. State is
// keyed by link direction, so the per-direction draw sequence is a pure
// function of the seed and the frames that direction carried.
package linkmodel

import (
	"fmt"

	"horse/internal/netgraph"
	"horse/internal/simtime"
)

// Model is one link-degradation model. Implementations must be
// deterministic: every random decision draws from the passed State, and
// RateScale must be a pure function of (State seed, at) — it may be
// evaluated any number of times at any instant without perturbing the
// corruption stream.
type Model interface {
	// Name identifies the model ("bernoulli", "gilbert-elliott", ...).
	Name() string
	// LossRate is the long-run average frame-loss probability — the
	// fluid view the flow engine feeds to the TCP throughput model.
	LossRate() float64
	// Corrupt advances the per-direction state by one transmitted frame
	// and reports whether that frame was corrupted. Only the packet
	// engine calls it, once per frame.
	Corrupt(st *State) bool
	// RateScale returns the capacity multiplier in (0, 1] in effect at
	// the given instant. Pure in (st.Seed(), at): it must not mutate st.
	RateScale(st *State, at simtime.Time) float64
	// StepEvery is the period at which RateScale can change (0 for
	// models with a constant scale). The flow engine re-applies the
	// fair-share capacity once per period; the packet engine evaluates
	// RateScale lazily per transmission, so it needs no stepping.
	StepEvery() simtime.Duration
}

// State is the mutable per-link-direction model state: the corruption
// RNG stream and the burst-model channel state. It belongs to exactly
// one link direction.
type State struct {
	seed uint64 // immutable per-direction identity
	rng  uint64 // frame-level draw stream position
	bad  bool   // Gilbert–Elliott channel state
}

// Seed returns the immutable per-direction seed RateScale derives from.
func (st *State) Seed() uint64 { return st.seed }

// NextFloat draws the next frame-level variate in [0, 1) and advances
// the stream.
func (st *State) NextFloat() float64 {
	st.rng = splitmix64(st.rng)
	return float64(st.rng>>11) / (1 << 53)
}

// splitmix64 is the SplitMix64 mixing function — a tiny, allocation-free
// generator whose every output is a pure function of its input, so state
// copies and replays stay exact.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hash2 mixes a seed with a stream discriminator.
func hash2(seed, k uint64) uint64 { return splitmix64(seed ^ splitmix64(k)) }

// NewState seeds the state of one link direction from a set-level seed.
func NewState(seed uint64, dir int) State {
	s := hash2(seed, uint64(dir)+0x51ed)
	return State{seed: s, rng: s}
}

// BernoulliLoss corrupts each frame independently with probability P —
// the memoryless random-corruption model (LinkGuardian's "random loss"
// arm).
type BernoulliLoss struct {
	// P is the per-frame corruption probability in [0, 1).
	P float64
}

// Name implements Model.
func (m BernoulliLoss) Name() string { return "bernoulli" }

// LossRate implements Model.
func (m BernoulliLoss) LossRate() float64 { return m.P }

// Corrupt implements Model.
func (m BernoulliLoss) Corrupt(st *State) bool { return st.NextFloat() < m.P }

// RateScale implements Model: Bernoulli loss leaves capacity untouched.
func (BernoulliLoss) RateScale(*State, simtime.Time) float64 { return 1 }

// StepEvery implements Model.
func (BernoulliLoss) StepEvery() simtime.Duration { return 0 }

// GilbertElliott is the two-state burst-loss channel: a Markov chain
// alternating between a good and a bad state with per-frame transition
// probabilities, corrupting frames at LossGood / LossBad in each. With
// LossBad=1 and LossGood=0 the mean loss-burst length is 1/PBadGood
// frames and the stationary loss rate is PGoodBad/(PGoodBad+PBadGood) —
// the closed forms the statistical-shape tests pin.
type GilbertElliott struct {
	// PGoodBad is the per-frame good→bad transition probability.
	PGoodBad float64
	// PBadGood is the per-frame bad→good transition probability.
	PBadGood float64
	// LossGood is the corruption probability while good (usually 0).
	LossGood float64
	// LossBad is the corruption probability while bad (usually 1).
	LossBad float64
}

// Name implements Model.
func (m GilbertElliott) Name() string { return "gilbert-elliott" }

// LossRate implements Model: the stationary corruption probability.
func (m GilbertElliott) LossRate() float64 {
	denom := m.PGoodBad + m.PBadGood
	if denom <= 0 {
		return m.LossGood
	}
	piBad := m.PGoodBad / denom
	return (1-piBad)*m.LossGood + piBad*m.LossBad
}

// Corrupt implements Model: one per-frame chain step (transition, then
// emit in the new state).
func (m GilbertElliott) Corrupt(st *State) bool {
	if st.bad {
		if st.NextFloat() < m.PBadGood {
			st.bad = false
		}
	} else {
		if st.NextFloat() < m.PGoodBad {
			st.bad = true
		}
	}
	p := m.LossGood
	if st.bad {
		p = m.LossBad
	}
	return st.NextFloat() < p
}

// RateScale implements Model: burst loss leaves capacity untouched.
func (GilbertElliott) RateScale(*State, simtime.Time) float64 { return 1 }

// StepEvery implements Model.
func (GilbertElliott) StepEvery() simtime.Duration { return 0 }

// AdaptiveRate models an SNR-driven rate-adaptive (wireless-style) link
// under block fading: time divides into coherence windows of length
// Every, each window draws a channel quality that picks one of Levels
// discrete rate steps, and the transmit rate scales between Floor (worst
// step) and 1.0 (best step). The draw is a pure hash of (direction seed,
// window index), so every engine computes the same scale for the same
// instant without sharing mutable state, and the flow
// engine's fair-share allocator sees the step sequence as a time-varying
// capacity (the utility max-min framing).
type AdaptiveRate struct {
	// Levels is the number of discrete rate steps (>= 2).
	Levels int
	// Floor is the scale of the lowest step, in (0, 1].
	Floor float64
	// Every is the coherence window (how often the rate can step).
	Every simtime.Duration
}

// Name implements Model.
func (m AdaptiveRate) Name() string { return "adaptive-rate" }

// LossRate implements Model: rate adaptation trades rate, not frames.
func (AdaptiveRate) LossRate() float64 { return 0 }

// Corrupt implements Model.
func (AdaptiveRate) Corrupt(*State) bool { return false }

// RateScale implements Model: the scale of the coherence window covering
// `at`.
func (m AdaptiveRate) RateScale(st *State, at simtime.Time) float64 {
	levels := m.Levels
	if levels < 2 {
		levels = 2
	}
	every := m.Every
	if every <= 0 {
		every = simtime.Second
	}
	win := uint64(at) / uint64(every)
	level := hash2(st.Seed(), win) % uint64(levels)
	floor := m.Floor
	if floor <= 0 || floor > 1 {
		floor = 0.25
	}
	return floor + (1-floor)*float64(level)/float64(levels-1)
}

// StepEvery implements Model.
func (m AdaptiveRate) StepEvery() simtime.Duration {
	if m.Every <= 0 {
		return simtime.Second
	}
	return m.Every
}

// Set is the per-link-direction model registry one engine run consults
// (a hybrid run shares one Set between both engines). Directions index
// as link*2 for A→B and link*2+1 for B→A. The zero Set is not usable;
// build with NewSet. Engines mutate it only at simulation instants.
type Set struct {
	seed   uint64
	models []Model
	states []State
	active int
}

// NewSet builds an empty registry for a topology with the given link
// count, seeded for reproducible corruption streams.
func NewSet(seed uint64, links int) *Set {
	if seed == 0 {
		seed = 1
	}
	s := &Set{
		seed:   seed,
		models: make([]Model, 2*links),
		states: make([]State, 2*links),
	}
	for d := range s.states {
		s.states[d] = NewState(seed, d)
	}
	return s
}

// dirIndex maps a (link, forward) pair to its direction slot.
func dirIndex(l netgraph.LinkID, forward bool) int {
	d := int(l) * 2
	if !forward {
		d++
	}
	return d
}

// SetDefault installs m on every link direction (nil clears all).
func (s *Set) SetDefault(m Model) {
	for l := 0; l*2 < len(s.models); l++ {
		s.SetLink(netgraph.LinkID(l), m)
	}
}

// SetLink installs m on both directions of one link (nil clears it),
// reseeding the directions' states so a reinstalled model replays the
// same stream a fresh run would see.
func (s *Set) SetLink(l netgraph.LinkID, m Model) {
	for _, fwd := range []bool{true, false} {
		d := dirIndex(l, fwd)
		if s.models[d] != nil {
			s.active--
		}
		if m != nil {
			s.active++
		}
		s.models[d] = m
		s.states[d] = NewState(s.seed, d)
	}
}

// Model returns the model on one direction (nil when pristine).
func (s *Set) Model(l netgraph.LinkID, forward bool) Model {
	return s.models[dirIndex(l, forward)]
}

// Empty reports whether no direction has a model — the engines' fast
// path: an empty Set costs one branch per frame.
func (s *Set) Empty() bool { return s == nil || s.active == 0 }

// Corrupt advances one direction's state by one transmitted frame and
// reports whether the frame was corrupted. Call only from the
// direction's owning handler (the packet engine's transmitter
// completion).
func (s *Set) Corrupt(l netgraph.LinkID, forward bool) bool {
	d := dirIndex(l, forward)
	m := s.models[d]
	if m == nil {
		return false
	}
	return m.Corrupt(&s.states[d])
}

// RateScale returns the capacity multiplier on one direction at the
// given instant (1 when pristine). Pure: safe to evaluate repeatedly.
func (s *Set) RateScale(l netgraph.LinkID, forward bool, at simtime.Time) float64 {
	if s.Empty() {
		return 1
	}
	d := dirIndex(l, forward)
	m := s.models[d]
	if m == nil {
		return 1
	}
	return m.RateScale(&s.states[d], at)
}

// LossRate returns one direction's long-run frame-loss probability.
func (s *Set) LossRate(l netgraph.LinkID, forward bool) float64 {
	if s.Empty() {
		return 0
	}
	m := s.models[dirIndex(l, forward)]
	if m == nil {
		return 0
	}
	return m.LossRate()
}

// StepEvery returns the rate re-evaluation period of one direction's
// model (0 when pristine or constant-rate).
func (s *Set) StepEvery(l netgraph.LinkID, forward bool) simtime.Duration {
	m := s.models[dirIndex(l, forward)]
	if m == nil {
		return 0
	}
	return m.StepEvery()
}

// Degrade installs m on both directions of l at runtime — the handler
// behind scenario LinkDegrade events. Passing nil restores the link.
func (s *Set) Degrade(l netgraph.LinkID, m Model) { s.SetLink(l, m) }

// Restore clears both directions of l — the handler behind scenario
// LinkRestore events.
func (s *Set) Restore(l netgraph.LinkID) { s.SetLink(l, nil) }

// Links returns the number of links the Set covers.
func (s *Set) Links() int { return len(s.models) / 2 }

// Validate reports whether m's parameters are usable, with a reason.
func Validate(m Model) error {
	switch v := m.(type) {
	case nil:
		return fmt.Errorf("linkmodel: nil model")
	case BernoulliLoss:
		if v.P < 0 || v.P >= 1 {
			return fmt.Errorf("linkmodel: BernoulliLoss.P=%g outside [0, 1)", v.P)
		}
	case GilbertElliott:
		for _, p := range []struct {
			name string
			v    float64
		}{
			{"PGoodBad", v.PGoodBad}, {"PBadGood", v.PBadGood},
			{"LossGood", v.LossGood}, {"LossBad", v.LossBad},
		} {
			if p.v < 0 || p.v > 1 {
				return fmt.Errorf("linkmodel: GilbertElliott.%s=%g outside [0, 1]", p.name, p.v)
			}
		}
		if v.PGoodBad+v.PBadGood <= 0 {
			return fmt.Errorf("linkmodel: GilbertElliott needs PGoodBad+PBadGood > 0")
		}
		if v.LossBad >= 1 && v.PBadGood <= 0 {
			return fmt.Errorf("linkmodel: GilbertElliott with LossBad=1 needs PBadGood > 0")
		}
	case AdaptiveRate:
		if v.Levels < 2 {
			return fmt.Errorf("linkmodel: AdaptiveRate.Levels=%d, need >= 2", v.Levels)
		}
		if v.Floor <= 0 || v.Floor > 1 {
			return fmt.Errorf("linkmodel: AdaptiveRate.Floor=%g outside (0, 1]", v.Floor)
		}
		if v.Every <= 0 {
			return fmt.Errorf("linkmodel: AdaptiveRate.Every=%v, need > 0", v.Every)
		}
	}
	return nil
}
