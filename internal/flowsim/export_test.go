package flowsim

import (
	"fmt"
	"slices"

	"horse/internal/dataplane"
	"horse/internal/netgraph"
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
		if res.Terminal != dataplane.Delivered || res.ExitKey != f.Key || !s.onPath(f, &res) {
			return fmt.Errorf("flow %d at %v: stored path %v entries %v key %v, a fresh walk gives %v over %v entries %v meters %v key %v",
				f.ID, s.k.Now(), f.path, f.entries, f.Key, res.Terminal, res.Hops, res.Entries, res.Meters, res.ExitKey)
		}
	}
	return nil
}

// RaceEnabled reports whether the tests run under -race.
func RaceEnabled() bool { return raceEnabled }

// Slots returns the size of the flow slot table: the most flows live at
// once so far.
func (s *Simulator) Slots() int { return len(s.flows) }

// CheckSlots returns an error naming the first place where the slot table
// and the per-switch lists disagree, or nil. Every active flow's hops are
// listed once per switch, where their positions say, and flowsAt lists
// nothing else; every waiting entry points at a park that records its
// position; its meters are those of its registered path, and it
// holds its allocator slot; a flow not active holds no allocator slot and
// no meters; the exts flows hold are counted, with no more spares; a slot
// on the free list holds a finished flow, as does every
// slot a finished flow has left unless it waits for the pending batch.
func (s *Simulator) CheckSlots() error {
	listed := 0
	for _, list := range s.flowsAt {
		listed += len(list)
	}
	for sw, list := range s.waiting {
		for pos, r := range list {
			f := s.flows[r.slot]
			if f.ext == nil || int(r.i) >= len(f.ext.parks) || f.ext.parks[r.i] != (parkPos{netgraph.NodeID(sw), int32(pos)}) {
				return fmt.Errorf("waiting[%d][%d] = %+v: flow %d does not list it among its parks", sw, pos, r, f.ID)
			}
		}
	}
	exts := 0
	free := make([]bool, len(s.flows))
	for _, slot := range s.free {
		free[slot] = true
	}
	for slot, f := range s.flows {
		switch {
		case f.slot != int32(slot):
			return fmt.Errorf("slot %d holds flow %d, which names slot %d", slot, f.ID, f.slot)
		case free[slot] && f.state != StateDone:
			return fmt.Errorf("free slot %d holds flow %d in state %d", slot, f.ID, f.state)
		case f.state == StateDone && !free[slot] && !f.dirty && !s.finished:
			return fmt.Errorf("finished flow %d was not released from slot %d", f.ID, slot)
		case int(f.nHops) > len(f.path):
			return fmt.Errorf("flow %d has %d hops in a path of %d elements", f.ID, f.nHops, len(f.path))
		}
		if x := f.ext; x != nil {
			exts++
			for i, p := range x.parks {
				if l := s.waiting[p.sw]; int(p.pos) >= len(l) || l[p.pos] != (flowRef{int32(slot), int32(i)}) {
					return fmt.Errorf("flow %d park %+v is not listed there", f.ID, p)
				}
			}
		}
		if f.state != StateActive {
			if f.allocSlot != -1 || len(f.meters()) != 0 || len(f.entries) != 0 {
				return fmt.Errorf("flow %d in state %d keeps allocator slot %d, %d meters, %d entries", f.ID, f.state, f.allocSlot, len(f.meters()), len(f.entries))
			}
			continue
		}
		if f.allocSlot < 0 || s.byAlloc[f.allocSlot] != f {
			return fmt.Errorf("active flow %d does not hold allocator slot %d", f.ID, f.allocSlot)
		}
		var sws []netgraph.NodeID
		for i, h := range f.path[:f.nHops] {
			sw := s.hopSwitch(h)
			seen := slices.Contains(sws, sw)
			sws = append(sws, sw)
			switch l := s.flowsAt[sw]; {
			case seen != (h.at < 0):
				return fmt.Errorf("flow %d hop %d at switch %d has position %d", f.ID, i, sw, h.at)
			case !seen && (int(h.at) >= len(l) || l[h.at] != (flowRef{int32(slot), int32(i)})):
				return fmt.Errorf("flow %d hop %d is not listed at switch %d", f.ID, i, sw)
			case !seen:
				listed--
			}
		}
	}
	if listed != 0 {
		return fmt.Errorf("%d flowsAt entries list no hop", listed)
	}
	if exts != s.extInUse || len(s.spareExt) > exts {
		return fmt.Errorf("%d flows hold an ext, %d counted in use, %d spares", exts, s.extInUse, len(s.spareExt))
	}
	return nil
}
