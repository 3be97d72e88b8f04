// Failure semantics of the packet engine, as its reactions to the network
// dynamics the control plane applies: link failures drop queued and
// in-flight packets and idle the transmitters, switch crashes lose parked
// punts, and a controller reattach re-announces them. ClassTopoChange
// makes the dynamics fire first at an instant, so an outage is in effect
// before that instant's traffic.
package packetsim

import (
	"horse/internal/netgraph"
	"horse/internal/openflow"
)

// LinkFlipped implements flowsim.Attachment. On failure, every frame still
// queued or serializing on either direction is lost and its scheduled
// arrival neutralised, and packets mid-propagation are invalidated via
// the link epoch. Recovery needs no action: the queues drained at failure
// time and transmitters restart with the next packet.
func (s *Simulator) LinkFlipped(l *netgraph.Link) {
	if l.Up {
		return
	}
	for _, dir := range []int32{int32(l.ID) << 1, int32(l.ID)<<1 | 1} {
		s.linkEpoch[dir]++
		op := s.ports[dir]
		if op == nil {
			continue
		}
		// A frame whose serialization ended before now is on the wire
		// (the epoch bump loses it at arrival); the rest — including one
		// ending exactly now, since topology changes order first in an
		// instant — are lost here.
		s.settle(dir, op)
		for op.n > 0 {
			f := op.pop()
			f.p.dead = true
			s.losePacket(f.p)
		}
	}
}

// BeforeLinkModel implements flowsim.Attachment: the frames that have left
// either direction of the link retire, drawing their corruption verdicts
// under the model they crossed.
func (s *Simulator) BeforeLinkModel(id netgraph.LinkID) {
	for _, dir := range []int32{int32(id) << 1, int32(id)<<1 | 1} {
		if op := s.ports[dir]; op != nil {
			s.settle(dir, op)
		}
	}
}

// AfterLinkModel implements flowsim.Attachment: the new model's RateScale
// may differ from the old one's, so the frames queued behind the one in
// service are re-timed. Corruption needs nothing — each frame draws its
// verdict from whatever model its direction has when it leaves.
func (s *Simulator) AfterLinkModel(id netgraph.LinkID) {
	s.retime(int32(id) << 1)
	s.retime(int32(id)<<1 | 1)
}

// SwitchCrashed implements flowsim.Attachment: the switch's parked punts
// are lost and its meter buckets reset.
func (s *Simulator) SwitchCrashed(sw netgraph.NodeID) {
	for _, bp := range s.punted[sw] {
		s.losePacket(bp.pkt)
	}
	s.punted[sw] = nil
	s.meters[sw] = nil
}

// ControllerReattached implements flowsim.Attachment: every parked packet
// re-announces itself with a fresh PacketIn (its original may have been
// lost while detached) — modeling a switch re-punting buffered packets on
// reconnect. Switches announce in ID order for determinism.
func (s *Simulator) ControllerReattached() {
	for sw, buf := range s.punted {
		for _, bp := range buf {
			s.col.PacketIns++
			reason := openflow.ReasonAction
			if bp.miss {
				reason = openflow.ReasonNoMatch
			}
			s.plane.SendToController(&openflow.PacketIn{
				Switch: netgraph.NodeID(sw), InPort: bp.in, Key: s.keyOf(bp.pkt), Reason: reason,
			})
		}
	}
}
