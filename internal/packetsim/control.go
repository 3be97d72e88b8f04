// The packet engine's side of the control plane (flowsim.ControlPlane,
// which delivers messages, applies them and runs expiry): punts with
// buffered packets, their release when rules install or a PacketOut names
// them, per-port stats counters, and token-bucket meters.
package packetsim

import (
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simtime"
)

// controlActive reports whether switch-originated messages have somewhere
// to go: the plane has a controller.
func (s *Simulator) controlActive() bool { return s.plane.Controller() != nil }

// puntPacket parks a packet at a switch pending control-plane action and
// emits the PacketIn. The punt buffer is bounded by QueuePackets per
// switch; on overflow the packet is lost (the PacketIn still goes out,
// like a real switch punting an un-buffered truncated packet).
func (s *Simulator) puntPacket(p *packet, sw netgraph.NodeID, in netgraph.PortNum, miss bool) {
	s.col.PacketIns++
	reason := openflow.ReasonAction
	if miss {
		reason = openflow.ReasonNoMatch
	}
	s.plane.SendToController(&openflow.PacketIn{
		Switch: sw, InPort: in, Key: s.keyOf(p), Reason: reason,
	})
	if buf := s.punted[sw]; len(buf) < s.cfg.QueuePackets {
		s.punted[sw] = append(buf, puntedPkt{pkt: p, in: in, miss: miss})
	} else {
		s.dropPacket(p)
	}
}

// retryPunted re-runs every packet parked at a switch through the
// pipeline. Packets that still punt stay parked without a duplicate
// PacketIn; the rest forward or drop per the new rules.
func (s *Simulator) retryPunted(sw netgraph.NodeID) {
	buf := s.punted[sw]
	if len(buf) == 0 {
		return
	}
	keep := buf[:0]
	for _, bp := range buf {
		if !s.forward(bp.pkt, sw, bp.in, true) {
			keep = append(keep, bp)
		}
	}
	clear(buf[len(keep):])
	s.punted[sw] = keep
}

// Applied implements flowsim.Attachment: parked punts retry the pipeline
// after a rule install, a MeterMod also resets the meter's bucket, and a
// PacketOut releases the packets it names.
func (s *Simulator) Applied(msg openflow.Message) {
	dp := msg.Datapath()
	switch m := msg.(type) {
	case *openflow.FlowMod, *openflow.GroupMod:
		s.retryPunted(dp)
	case *openflow.MeterMod:
		if mm := s.meters[dp]; mm != nil {
			delete(mm, m.MeterID)
		}
		s.retryPunted(dp)
	case *openflow.PacketOut:
		s.handlePacketOut(m)
	}
}

// handlePacketOut releases parked packets matching the key. An explicit
// Output action forwards them there; with no action list the packet
// re-enters the pipeline (OFPP_TABLE semantics, matching the flow engine's
// "retry resolution" reading), staying parked if it still punts.
func (s *Simulator) handlePacketOut(m *openflow.PacketOut) {
	buf := s.punted[m.Switch]
	if len(buf) == 0 {
		return
	}
	out := netgraph.NoPort
	for _, a := range m.Actions {
		if a.Type == openflow.ActionOutput && a.Port != openflow.PortController &&
			a.Port != openflow.PortFlood && a.Port != openflow.PortDrop {
			out = a.Port
		}
	}
	keep := buf[:0]
	for _, bp := range buf {
		switch {
		case s.keyOf(bp.pkt) != m.Key:
			keep = append(keep, bp)
		case out != netgraph.NoPort:
			s.enqueue(bp.pkt, s.dirFrom(m.Switch, out))
		default:
			if !s.forward(bp.pkt, m.Switch, bp.in, true) {
				keep = append(keep, bp)
			}
		}
	}
	clear(buf[len(keep):])
	s.punted[m.Switch] = keep
}

// BeforeExpiry implements flowsim.Attachment: idle timers already see
// the per-packet LastUsed updates from forward.
func (s *Simulator) BeforeExpiry(netgraph.NodeID) {}

// AfterExpiry implements flowsim.Attachment: traffic hitting an evicted
// rule simply misses and punts again — the packet-granular re-resolution.
func (s *Simulator) AfterExpiry(netgraph.NodeID) {}

// AddPortStats implements flowsim.Attachment from the transmit and receive
// counters of the switch's own directions. Rates are averaged since the
// previous request for the same port (first request reports the average
// since the epoch) — the polling-delta a real controller computes anyway.
// Receive counters are the bits observed arriving on the switch's side of
// each link.
func (s *Simulator) AddPortStats(reply *openflow.PortStatsReply) {
	now := s.k.Now()
	for i := range reply.Stats {
		ps := &reply.Stats[i]
		txDir := s.dirFrom(reply.Switch, ps.Port)
		rxDir := txDir ^ 1 // the opposite direction of the same link
		if op := s.ports[txDir]; op != nil {
			s.settle(txDir, op)
		}
		ps.TxBits += s.txBits[txDir]
		ps.RxBits += s.rxBits[rxDir]
		// Baselines are keyed by the replying port only, so polling one
		// switch never disturbs a neighbor's next delta.
		if last := s.statsReqAt[txDir]; now > last {
			window := now.Sub(last).Seconds()
			ps.TxRateBps += (s.txBits[txDir] - s.statsReqTxBits[txDir]) / window
			ps.RxRateBps += (s.rxBits[rxDir] - s.statsReqRxBits[txDir]) / window
		}
		s.statsReqAt[txDir] = now
		s.statsReqTxBits[txDir] = s.txBits[txDir]
		s.statsReqRxBits[txDir] = s.rxBits[rxDir]
	}
}

// meterBucket is the token-bucket state enforcing one meter at packet
// granularity.
type meterBucket struct {
	tokens float64
	last   simtime.Time
}

// meterBurst is the bucket depth in seconds of line rate: enough to absorb
// ~50ms bursts, the common switch default order of magnitude.
const meterBurst = 0.05

// meterAdmit refills the token bucket for (sw, id) and admits the packet
// if tokens cover it; otherwise the meter drops the packet.
func (s *Simulator) meterAdmit(sw netgraph.NodeID, id openflow.MeterID, bits float64) bool {
	if id == 0 {
		return true // "no meter" on a memoized entry
	}
	m := s.switches[sw].Meters.Get(id)
	if m == nil || m.RateBps <= 0 {
		return true
	}
	burst := m.RateBps * meterBurst
	if burst < 2*DataPacketBits {
		burst = 2 * DataPacketBits
	}
	mm := s.meters[sw]
	if mm == nil {
		mm = make(map[openflow.MeterID]*meterBucket)
		s.meters[sw] = mm
	}
	b := mm[id]
	if b == nil {
		b = &meterBucket{tokens: burst, last: s.k.Now()}
		mm[id] = b
	}
	if now := s.k.Now(); now > b.last {
		b.tokens += m.RateBps * now.Sub(b.last).Seconds()
		if b.tokens > burst {
			b.tokens = burst
		}
		b.last = now
	}
	if b.tokens >= bits {
		b.tokens -= bits
		return true
	}
	return false
}
