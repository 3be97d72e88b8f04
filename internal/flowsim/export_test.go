package flowsim

import (
	"fmt"
	"slices"

	"horse/internal/dataplane"
)

// Walks returns how many path walks the simulator has made.
func (s *Simulator) Walks() int { return s.walks }

// StalePath returns an error naming the first active flow whose stored
// path — hops, entries, meters and exit key — differs from a fresh walk
// of the network, or nil when every one is current.
func (s *Simulator) StalePath() error {
	for _, f := range s.flows {
		if f.state != StateActive {
			continue
		}
		res := s.net.Walk(f.Key, f.Src, f.Dst)
		if res.Terminal != dataplane.Delivered || res.ExitKey != f.Key || !slices.Equal(res.Hops, f.hops) ||
			!slices.Equal(res.Entries, f.entries) || !slices.Equal(res.Meters, f.meterRefs) {
			return fmt.Errorf("flow %d at %v: stored path %v entries %v meters %v key %v, a fresh walk gives %v over %v entries %v meters %v key %v",
				f.ID, s.k.Now(), f.hops, f.entries, f.meterRefs, f.Key, res.Terminal, res.Hops, res.Entries, res.Meters, res.ExitKey)
		}
	}
	return nil
}
