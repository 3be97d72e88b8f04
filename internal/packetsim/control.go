// Control-plane attachment of the packet engine: punts with buffered
// packets, latency-modeled message delivery, rule installation, timeout
// expiry, and stats replies — the packet-granular mirror of
// flowsim/control.go, speaking the same flowsim.Controller interface.
package packetsim

import (
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simcore"
	"horse/internal/simtime"
)

// controlActive reports whether switch-originated messages have somewhere
// to go: a local controller, or the hybrid coupler's punt sink.
func (s *Simulator) controlActive() bool {
	return s.ctrl != nil || s.cfg.PuntSink != nil
}

// SendToSwitch implements flowsim.Engine: the message applies at its
// datapath after the control latency. While the controller is detached the
// message is lost (the control channel is the thing that failed).
func (s *Simulator) SendToSwitch(msg openflow.Message) {
	if s.fstate.ControllerDetached() {
		return
	}
	s.schedCold(event{at: s.k.Now().Add(s.cfg.ControlLatency), kind: evToSwitch, dir: int32(msg.Datapath())}, coldPayload{msg: msg})
}

// After implements flowsim.Engine: fn runs on the controller after d.
func (s *Simulator) After(d simtime.Duration, fn func()) {
	s.schedCold(event{at: s.k.Now().Add(d), kind: evTimer}, coldPayload{fn: fn})
}

// sendToController delivers a switch-originated message: to the punt sink
// immediately (the hybrid's flow engine models the latency on its side),
// or to the local controller after the control latency. A detached
// controller never sees it; the dispatch side likewise drops (and pends,
// for PortStatus) messages caught in flight when the channel breaks.
func (s *Simulator) sendToController(msg openflow.Message) {
	if s.fstate.ControllerDetached() {
		s.fstate.NotePendingStatus(msg)
		return
	}
	if s.cfg.PuntSink != nil {
		s.cfg.PuntSink(msg)
		return
	}
	if s.ctrl == nil {
		return
	}
	s.schedCold(event{at: s.k.Now().Add(s.cfg.ControlLatency), kind: evToController, dir: int32(msg.Datapath())}, coldPayload{msg: msg})
}

// puntPacket parks a packet at a switch pending control-plane action and
// emits the PacketIn. The punt buffer is bounded by QueuePackets per
// switch; on overflow the packet is lost (the PacketIn still goes out,
// like a real switch punting an un-buffered truncated packet).
func (s *Simulator) puntPacket(p *packet, sw netgraph.NodeID, in netgraph.PortNum, miss bool) {
	s.col.PacketIns++
	if buf := s.punted[sw]; len(buf) < s.cfg.QueuePackets {
		s.punted[sw] = append(buf, &puntedPkt{pkt: p, in: in, miss: miss})
	} else {
		s.dropPacket(p)
	}
	reason := openflow.ReasonAction
	if miss {
		reason = openflow.ReasonNoMatch
	}
	s.sendToController(&openflow.PacketIn{
		Switch: sw, InPort: in, Key: s.keyOf(p), Reason: reason,
	})
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
	for i := len(keep); i < len(buf); i++ {
		buf[i] = nil
	}
	s.punted[sw] = keep
}

// handleToSwitch applies a controller message at its datapath — the
// standalone-engine path. In hybrid runs the flow engine owns application
// and echoes the result through NotifyApplied instead.
func (s *Simulator) handleToSwitch(msg openflow.Message) {
	dp := msg.Datapath()
	sw := s.net.Switches[dp]
	if sw == nil {
		return // message to a non-switch: controller bug, dropped
	}
	if s.fstate.SwitchIsDown(dp) {
		// A crashed switch cannot apply anything; the message is lost,
		// so the restart genuinely comes back with empty tables.
		return
	}
	switch m := msg.(type) {
	case *openflow.FlowMod, *openflow.GroupMod:
		if err := sw.Apply(msg, s.k.Now()); err != nil {
			return
		}
		s.col.FlowMods++
		s.scheduleExpiry(dp)
		s.retryPunted(dp)
	case *openflow.MeterMod:
		if err := sw.Apply(msg, s.k.Now()); err != nil {
			return
		}
		s.col.FlowMods++
		if mm := s.meters[dp]; mm != nil {
			delete(mm, m.MeterID) // reset the bucket
		}
		s.retryPunted(dp)
	case *openflow.PacketOut:
		s.handlePacketOut(m)
	case *openflow.PortStatsRequest:
		s.sendToController(s.portStats(dp, m.Port))
	case *openflow.FlowStatsRequest:
		s.sendToController(sw.FlowStats(m, s.k.Now()))
	case *openflow.BarrierRequest:
		s.sendToController(&openflow.BarrierReply{Switch: dp, Xid: m.Xid})
	}
}

// NotifyApplied reacts to a controller message another engine applied to
// the shared network (hybrid runs): buffered punts retry, meter buckets
// reset, PacketOuts release. Expiry stays with the applying engine.
func (s *Simulator) NotifyApplied(msg openflow.Message) {
	dp := msg.Datapath()
	if s.net.Switches[dp] == nil {
		return
	}
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
	for i := len(keep); i < len(buf); i++ {
		buf[i] = nil
	}
	s.punted[m.Switch] = keep
}

// scheduleExpiry arms a timeout check for a switch at its earliest entry
// expiry, avoiding duplicate events for the same instant.
func (s *Simulator) scheduleExpiry(dp netgraph.NodeID) {
	next := s.net.Switches[dp].NextExpiry()
	if next == simtime.Never {
		return
	}
	if cur := s.expiryAt[dp]; cur != simtime.Never && cur <= next && cur >= s.k.Now() {
		return // an earlier (or equal) check is already scheduled
	}
	// The outstanding check (if any) is later than next: replace it
	// instead of stacking a second event beside it.
	s.k.Cancel(s.expiryTimer[dp])
	s.expiryAt[dp] = next
	s.expiryTimer[dp] = s.schedTimer(event{at: next, kind: evExpiry, dir: int32(dp)})
}

// handleExpiry evicts expired entries (idle timers see the per-packet
// LastUsed updates from forward), notifies the controller with
// FlowRemoved, and re-arms the timer. Traffic hitting an evicted rule
// simply misses and punts again — the packet-granular re-resolution.
func (s *Simulator) handleExpiry(dp netgraph.NodeID) {
	s.expiryAt[dp] = simtime.Never
	s.expiryTimer[dp] = simcore.Timer{}
	sw := s.net.Switches[dp]
	if sw == nil {
		return
	}
	for _, fr := range sw.ExpireEntries(s.k.Now()) {
		s.sendToController(fr)
	}
	s.scheduleExpiry(dp)
}

// portStats builds a PortStatsReply from the transmit and receive
// counters of the switch's own directions. Rates are averaged since the
// previous request for the same port (first request reports the average
// since the epoch) — the polling-delta a real controller computes anyway.
// Receive counters are the bits observed arriving on the switch's side of
// each link.
func (s *Simulator) portStats(dp netgraph.NodeID, port netgraph.PortNum) *openflow.PortStatsReply {
	reply := &openflow.PortStatsReply{Switch: dp, At: s.k.Now()}
	for _, p := range s.topo.Node(dp).Ports() {
		if port != netgraph.NoPort && p != port {
			continue
		}
		l := s.topo.LinkAt(dp, p)
		if l == nil {
			continue
		}
		txDir := s.dirFrom(dp, p)
		rxDir := txDir ^ 1 // the opposite direction of the same link
		if op := s.ports[txDir]; op != nil {
			s.settle(txDir, op)
		}
		ps := openflow.PortStats{
			Port: p, LinkBps: l.BandwidthBps, Up: l.Up,
			TxBits: s.txBits[txDir], RxBits: s.rxBits[rxDir],
		}
		// Baselines are keyed by the replying port only, so polling one
		// switch never disturbs a neighbor's next delta.
		if last := s.statsReqAt[txDir]; s.k.Now() > last {
			window := s.k.Now().Sub(last).Seconds()
			ps.TxRateBps = (s.txBits[txDir] - s.statsReqTxBits[txDir]) / window
			ps.RxRateBps = (s.rxBits[rxDir] - s.statsReqRxBits[txDir]) / window
		}
		s.statsReqAt[txDir] = s.k.Now()
		s.statsReqTxBits[txDir] = s.txBits[txDir]
		s.statsReqRxBits[txDir] = s.rxBits[rxDir]
		reply.Stats = append(reply.Stats, ps)
	}
	return reply
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
