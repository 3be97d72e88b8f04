// Failure semantics of the packet engine: link failures drop queued and
// in-flight packets and idle the transmitters, switch crashes wipe
// OpenFlow state and lose parked punts, and controller detach severs the
// control channel — the packet-granular half of the scenario engine's
// dynamic-network contract. The Notify* entry points carry only the
// data-plane consequences, so the hybrid coupler can propagate a change
// the flow engine already applied (topology flip, table wipe, PortStatus)
// without doubling it. ClassTopoChange makes these fire first at an
// instant, so an outage is in effect before that instant's traffic.
package packetsim

import (
	"sort"

	"horse/internal/linkmodel"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simevent"
)

// handleLinkChange applies a scheduled link state change: topology flip,
// data-plane flush, and PortStatus punts from both endpoint switches. The
// scripted link state composes with switch liveness through linkDesired,
// so a link "recovering" under a crashed endpoint stays down until the
// switch restarts.
func (s *Simulator) handleLinkChange(id netgraph.LinkID, up bool) {
	s.fstate.SetLink(id, up)
	s.applyLinkState(id, s.fstate.LinkDesired(id), -1)
}

// handleLinkDegrade applies a scheduled link-model change: m installs a
// degradation model on both directions of the link (nil restores it).
// It is orthogonal to the operational state — FailureState still decides
// up/down, and the model only shapes traffic while the link is up — so
// no queue flush or PortStatus is involved.
func (s *Simulator) handleLinkDegrade(id netgraph.LinkID, m linkmodel.Model) {
	s.SettleLink(id)
	s.links.SetLink(id, m)
	s.NotifyLinkDegrade(id, m)
	s.observers.Notify(simevent.Observation{
		At: s.k.Now(), Kind: simevent.LinkDegrade, Link: id, Up: m == nil,
	})
}

// applyLinkState moves a link to the given operational state (no-op when
// already there): topology flip, data-plane flush, PortStatus.
func (s *Simulator) applyLinkState(id netgraph.LinkID, up bool, silent netgraph.NodeID) {
	l := s.topo.Link(id)
	if l.Up == up {
		return
	}
	s.topo.SetLinkUp(id, up)
	s.NotifyLinkChange(id, up)
	s.portStatus(l, up, silent)
	s.observers.Notify(simevent.Observation{
		At: s.k.Now(), Kind: simevent.LinkChange, Link: id, Up: up,
	})
}

// NotifyLinkChange applies the data-plane consequences of a link state
// change without touching the topology or the control plane — the entry
// point the hybrid coupler drives after the flow engine flipped the shared
// state. On failure, every frame still queued or serializing on either
// direction is lost and its scheduled arrival neutralised, and packets
// mid-propagation are invalidated via the link epoch. Recovery needs no
// action: the queues drained at failure time and transmitters restart
// with the next packet.
// Either way the endpoint switches' memoized decisions are invalidated:
// group bucket selection watches port liveness.
func (s *Simulator) NotifyLinkChange(id netgraph.LinkID, up bool) {
	l := s.topo.Link(id)
	for _, end := range []netgraph.NodeID{l.A, l.B} {
		if sw := s.switches[end]; sw != nil {
			sw.Invalidate()
		}
	}
	if up {
		return
	}
	for _, dir := range []int32{int32(id) << 1, int32(id)<<1 | 1} {
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

// SettleLink retires the frames that have left either direction of a
// link, drawing their corruption verdicts under the model they crossed.
// Call it before the link's model changes; the hybrid coupler has the
// flow engine, which applies model changes to the shared registry, call
// it first (flowsim.Config.BeforeLinkDegrade).
func (s *Simulator) SettleLink(id netgraph.LinkID) {
	for _, dir := range []int32{int32(id) << 1, int32(id)<<1 | 1} {
		if op := s.ports[dir]; op != nil {
			s.settle(dir, op)
		}
	}
}

// NotifyLinkDegrade reacts to a link-model change on the registry (in
// hybrid runs the flow engine applied it): the model's RateScale may
// differ from the old one's, so the frames queued behind the one in
// service are re-timed. Corruption needs nothing — each frame draws its
// verdict from whatever model its direction has when it leaves.
func (s *Simulator) NotifyLinkDegrade(id netgraph.LinkID, _ linkmodel.Model) {
	s.retime(int32(id) << 1)
	s.retime(int32(id)<<1 | 1)
}

// handleSwitchChange applies a scheduled switch crash or restart.
func (s *Simulator) handleSwitchChange(sw netgraph.NodeID, up bool) {
	swState := s.net.Switches[sw]
	if swState == nil || !s.fstate.SetSwitch(sw, up) {
		return
	}
	silent := netgraph.NodeID(-1)
	if !up {
		swState.Reset()
		s.NotifySwitchChange(sw, false)
		silent = sw
	}
	for _, p := range s.topo.Node(sw).Ports() {
		l := s.topo.LinkAt(sw, p)
		if l == nil {
			continue
		}
		// LinkDesired keeps a restart from reviving a link still inside
		// its own scripted outage (and a crash from "double-failing" one).
		s.applyLinkState(l.ID, s.fstate.LinkDesired(l.ID), silent)
	}
	s.observers.Notify(simevent.Observation{
		At: s.k.Now(), Kind: simevent.SwitchChange, Switch: sw, Up: up,
	})
}

// NotifySwitchChange applies the packet-engine-local consequences of a
// switch crash the flow engine already executed against the shared state:
// parked punts are lost and the switch's meter buckets reset. Link-level
// flushes arrive separately through NotifyLinkChange.
func (s *Simulator) NotifySwitchChange(sw netgraph.NodeID, up bool) {
	if up {
		return
	}
	for _, bp := range s.punted[sw] {
		s.losePacket(bp.pkt)
	}
	s.punted[sw] = nil
	s.meters[sw] = nil
}

// handleCtrlChange applies a controller detach or reattach. Outages nest
// by counting (FailureState.SetController; only the reattach matching the
// first detach restores the channel). On reattach, links that changed
// while detached announce their CURRENT state first (from every live
// endpoint), so PortStatus-driven controllers reconverge on the truth
// before any re-announced PacketIns arrive.
func (s *Simulator) handleCtrlChange(attached bool) {
	if !s.fstate.SetController(attached) {
		return
	}
	if attached {
		s.fstate.ResyncPortStatus(s.net, s.sendToController)
		s.NotifyControllerChange(true)
	}
	s.observers.Notify(simevent.Observation{
		At: s.k.Now(), Kind: simevent.ControllerChange, Up: attached,
	})
}

// NotifyControllerChange re-announces every parked packet with a fresh
// PacketIn once the control channel returns (their originals may have been
// lost while detached) — modeling a switch re-punting buffered packets on
// reconnect. Switches announce in ID order for determinism.
func (s *Simulator) NotifyControllerChange(attached bool) {
	if !attached {
		return
	}
	var sws []netgraph.NodeID
	for sw, buf := range s.punted {
		if len(buf) > 0 {
			sws = append(sws, netgraph.NodeID(sw))
		}
	}
	sort.Slice(sws, func(i, j int) bool { return sws[i] < sws[j] })
	for _, sw := range sws {
		for _, bp := range s.punted[sw] {
			s.col.PacketIns++
			reason := openflow.ReasonAction
			if bp.miss {
				reason = openflow.ReasonNoMatch
			}
			s.sendToController(&openflow.PacketIn{
				Switch: sw, InPort: bp.in, Key: s.keyOf(bp.pkt), Reason: reason,
			})
		}
	}
}

// portStatus punts a link state change to the controller from both
// endpoint switches, except a crashed (silent) one, which cannot speak.
// While detached, sendToController pends the link for the reattach resync
// instead.
func (s *Simulator) portStatus(l *netgraph.Link, up bool, silent netgraph.NodeID) {
	for _, end := range []netgraph.NodeID{l.A, l.B} {
		if end != silent && s.net.Switches[end] != nil {
			s.sendToController(&openflow.PortStatus{Switch: end, Port: l.PortAt(end), Up: up})
		}
	}
}
