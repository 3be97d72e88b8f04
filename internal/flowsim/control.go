package flowsim

import (
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simcore"
	"horse/internal/simtime"
	"horse/internal/stats"
)

// Engine is the simulator-side surface behind a Context. Both the
// flow-level engine and the packet-level engine implement it, so one
// Controller implementation drives either fidelity (and, through the
// hybrid coupler, both at once).
type Engine interface {
	// Now returns the current virtual time.
	Now() simtime.Time
	// Topology returns the simulated topology.
	Topology() *netgraph.Topology
	// Collector returns the engine's statistics collector.
	Collector() *stats.Collector
	// SendToSwitch delivers a controller→switch message to its datapath
	// after the engine's control latency.
	SendToSwitch(msg openflow.Message)
	// After schedules fn on the controller after d.
	After(d simtime.Duration, fn func())
}

// Context is the API a Controller uses to interact with the simulation. It
// deliberately exposes no data-plane internals beyond what a real
// controller could learn: the topology (assumed discovered), virtual time,
// message sending, and timers.
type Context struct {
	eng Engine
}

// NewContext wraps an engine for controller use. Engines call it
// internally; it is exported for engines living outside this package (the
// packet-level simulator).
func NewContext(eng Engine) *Context { return &Context{eng: eng} }

// Now returns the current virtual time.
func (c *Context) Now() simtime.Time { return c.eng.Now() }

// Topology returns the network topology. Controllers treat it as
// discovered state (LLDP equivalent); link Up flags reflect what
// PortStatus messages have announced.
func (c *Context) Topology() *netgraph.Topology { return c.eng.Topology() }

// Send delivers a control message to its datapath after the configured
// control latency.
func (c *Context) Send(msg openflow.Message) { c.eng.SendToSwitch(msg) }

// After schedules fn to run on the controller after d.
func (c *Context) After(d simtime.Duration, fn func()) { c.eng.After(d, fn) }

// Collector exposes simulation statistics (read-only use) so monitoring
// apps can export what they observe alongside ground truth.
func (c *Context) Collector() *stats.Collector { return c.eng.Collector() }

// SendToSwitch implements Engine: the message applies at its datapath
// after the control latency. While the controller is detached the message
// is lost (the control channel is the thing that failed); messages
// already emitted before the break are in the network and still arrive.
func (s *Simulator) SendToSwitch(msg openflow.Message) {
	if s.fstate.ControllerDetached() {
		return
	}
	s.sched(event{
		at:   s.k.Now().Add(s.cfg.ControlLatency),
		kind: evToSwitch,
		msg:  msg,
	})
}

// After implements Engine: fn runs on the controller after d.
func (s *Simulator) After(d simtime.Duration, fn func()) {
	s.sched(event{at: s.k.Now().Add(d), kind: evTimer, fn: fn})
}

// SendToController delivers a switch-originated message to the controller
// after the control latency. It is exported so a co-resident packet
// engine (hybrid runs) can punt into the same control plane.
func (s *Simulator) SendToController(msg openflow.Message) { s.sendToController(msg) }

// sendToController delivers a switch-originated message after the control
// latency; a detached controller never sees it. The dispatch side drops
// (and pends, for PortStatus) messages caught in flight when the channel
// breaks — see evToController in dispatch.
func (s *Simulator) sendToController(msg openflow.Message) {
	if s.fstate.ControllerDetached() {
		s.fstate.NotePendingStatus(msg)
		return
	}
	s.sched(event{
		at:   s.k.Now().Add(s.cfg.ControlLatency),
		kind: evToController,
		msg:  msg,
	})
}

// handleToSwitch applies a controller message at its datapath.
func (s *Simulator) handleToSwitch(msg openflow.Message) {
	dp := msg.Datapath()
	sw := s.net.Switch(dp)
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
		s.markSwitchDirty(dp)
		s.notifyApply(msg)
	case *openflow.MeterMod:
		if err := sw.Apply(msg, s.k.Now()); err != nil {
			return
		}
		s.col.FlowMods++
		// Update allocator capacity for the meter resource.
		r := meterResource(dp, m.MeterID)
		switch m.Op {
		case openflow.MeterAdd, openflow.MeterModify:
			s.alloc.SetCapacity(r, m.RateBps)
		case openflow.MeterDelete:
			// Flows re-resolve and drop the resource; in the interim the
			// meter no longer polices.
			s.alloc.SetCapacity(r, 1e18)
		}
		s.recomputeAndApply()
		s.markSwitchDirty(dp)
		s.notifyApply(msg)
	case *openflow.PacketOut:
		// The buffered first packet is released; the waiting flow retries
		// resolution (rules installed alongside typically complete it).
		for _, r := range s.waiting[dp] {
			if r.f.Key == m.Key {
				s.markDirty(r.f)
			}
		}
		s.notifyApply(msg)
	case *openflow.PortStatsRequest:
		s.sendToController(s.portStats(dp, m.Port))
	case *openflow.FlowStatsRequest:
		s.sendToController(sw.FlowStats(m, s.k.Now()))
	case *openflow.BarrierRequest:
		s.sendToController(&openflow.BarrierReply{Switch: dp, Xid: m.Xid})
	}
}

// notifyApply reports an applied controller message to the co-resident
// engine hook (hybrid runs).
func (s *Simulator) notifyApply(msg openflow.Message) {
	if s.cfg.OnApply != nil {
		s.cfg.OnApply(msg)
	}
}

// portStats builds a PortStatsReply from the resource ledgers.
func (s *Simulator) portStats(dp netgraph.NodeID, port netgraph.PortNum) *openflow.PortStatsReply {
	s.drainAlloc()
	reply := &openflow.PortStatsReply{Switch: dp, At: s.k.Now()}
	node := s.topo.Node(dp)
	ports := node.Ports()
	for _, p := range ports {
		if port != netgraph.NoPort && p != port {
			continue
		}
		l := s.topo.LinkAt(dp, p)
		if l == nil {
			continue
		}
		// Tx direction: from dp outward.
		txRes := linkResource(l.ID, l.A == dp)
		rxRes := linkResource(l.ID, l.B == dp)
		txL, rxL := &s.ledgers[txRes], &s.ledgers[rxRes]
		txL.settle(s.k.Now())
		rxL.settle(s.k.Now())
		ps := openflow.PortStats{
			Port: p, LinkBps: l.BandwidthBps, Up: l.Up,
			TxBits: txL.bits, TxRateBps: txL.rate,
			RxBits: rxL.bits, RxRateBps: rxL.rate,
		}
		reply.Stats = append(reply.Stats, ps)
	}
	return reply
}

// scheduleExpiry arms a timeout check for a switch at its earliest entry
// expiry, avoiding duplicate events for the same instant.
func (s *Simulator) scheduleExpiry(dp netgraph.NodeID) {
	next := s.net.Switch(dp).NextExpiry()
	if next == simtime.Never {
		return
	}
	if cur := s.expiryAt[dp]; cur <= next && cur >= s.k.Now() {
		return // an earlier (or equal) check is already scheduled
	}
	// The outstanding check (if any) is later than next: replace it
	// instead of stacking a second event beside it.
	s.k.Cancel(s.expiryTimer[dp])
	s.expiryAt[dp] = next
	s.expiryTimer[dp] = s.schedTimer(event{at: next, kind: evExpiry, sw: dp})
}

// handleExpiry evicts expired entries on a switch, notifies the controller
// with FlowRemoved, re-resolves affected flows, and re-arms the timer.
func (s *Simulator) handleExpiry(dp netgraph.NodeID) {
	s.expiryAt[dp] = simtime.Never
	s.expiryTimer[dp] = simcore.Timer{}
	sw := s.net.Switch(dp)
	if sw == nil {
		return
	}
	// Idle timers must see current usage: at flow granularity an entry's
	// LastUsed only advances when a flow settles, so settle every active
	// flow traversing this switch before judging expiry. (A real switch
	// updates the timestamp per packet; this is the flow-level analogue.)
	s.drainAlloc()
	for _, r := range s.flowsAt[dp] {
		if f := r.f; f.state == StateActive && f.rate > 0 {
			s.settleFlow(f)
		}
	}
	removed := sw.ExpireEntries(s.k.Now())
	for _, fr := range removed {
		s.sendToController(fr)
	}
	if len(removed) > 0 {
		s.markSwitchDirty(dp)
	}
	s.scheduleExpiry(dp)
}
