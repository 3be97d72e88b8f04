package flowsim

import (
	"horse/internal/dataplane"
	"horse/internal/linkmodel"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simcore"
	"horse/internal/simevent"
	"horse/internal/simtime"
	"horse/internal/stats"
)

// Context is the API a Controller uses to interact with the simulation. It
// deliberately exposes no data-plane internals beyond what a real
// controller could learn: the topology (assumed discovered), virtual time,
// message sending, and timers.
type Context struct {
	p *ControlPlane
}

// Now returns the current virtual time.
func (c *Context) Now() simtime.Time { return c.p.k.Now() }

// Topology returns the network topology. Controllers treat it as
// discovered state (LLDP equivalent); link Up flags reflect what
// PortStatus messages have announced.
func (c *Context) Topology() *netgraph.Topology { return c.p.topo }

// Send delivers a control message to its datapath after the configured
// control latency.
func (c *Context) Send(msg openflow.Message) { c.p.SendToSwitch(msg) }

// SendFlowMod is Send(&fm) without the allocation: fm travels as a copy
// the plane recycles once it is delivered, so a controller that installs
// rules on every PacketIn allocates no message.
func (c *Context) SendFlowMod(fm openflow.FlowMod) {
	m := c.p.flowMods.Get()
	*m = fm
	c.p.toSwitch(m, true)
}

// SendPacketOut is Send(&po) without the allocation, like SendFlowMod.
func (c *Context) SendPacketOut(po openflow.PacketOut) {
	m := c.p.packetOuts.Get()
	*m = po
	c.p.toSwitch(m, true)
}

// After schedules fn to run on the controller after d.
func (c *Context) After(d simtime.Duration, fn func()) { c.p.After(d, fn) }

// Collector exposes simulation statistics (read-only use) so monitoring
// apps can export what they observe alongside ground truth.
func (c *Context) Collector() *stats.Collector { return c.p.col }

// Attachment is an engine attached to a ControlPlane: its part in the
// run, and its reactions to control-plane actions that depend on how it
// models traffic. The plane and its Driver call every attached engine, in
// attach order, at the point named.
type Attachment interface {
	// Begin arms the engine's own events as the run starts, after the
	// controller's Start; Finish settles and records what the run left
	// unfinished once the kernel has stopped.
	Begin()
	Finish()
	// Applied follows a FlowMod, GroupMod, MeterMod or PacketOut the plane
	// applied at the message's datapath.
	Applied(msg openflow.Message)
	// AddPortStats adds the engine's counters to every entry of reply.
	AddPortStats(reply *openflow.PortStatsReply)
	// BeforeExpiry brings what the idle timers of switch sw read up to
	// now; AfterExpiry follows the eviction of at least one of its entries.
	BeforeExpiry(sw netgraph.NodeID)
	AfterExpiry(sw netgraph.NodeID)
	// LinkFlipped follows a link's state flip, before its ends announce it.
	LinkFlipped(l *netgraph.Link)
	// BeforeLinkModel and AfterLinkModel bracket a change of the link's
	// model in the shared registry.
	BeforeLinkModel(link netgraph.LinkID)
	AfterLinkModel(link netgraph.LinkID)
	// SwitchCrashed follows the table wipe of switch sw, before its links
	// go down.
	SwitchCrashed(sw netgraph.NodeID)
	// ControllerReattached follows the reattach resync of the controller.
	ControllerReattached()
	// AfterPlaneEvent ends every event of the plane, so work an engine's
	// reactions leave for the end of a dispatch runs before the next event.
	AfterPlaneEvent()
}

// ControlPlane is the one control plane of a run, whatever its fidelity:
// the controller's Context, latency-modeled message delivery in both
// directions, message application to the shared network, per-switch rule
// expiry, and scripted network dynamics (link, switch and controller
// failures, link-model changes). The engines attached to it share its
// kernel, network and link registry, and react through Attachment.
type ControlPlane struct {
	k       *simcore.Kernel
	topo    *netgraph.Topology
	net     *dataplane.Network
	links   *linkmodel.Set
	col     *stats.Collector
	ctrl    Controller
	ctx     Context
	latency simtime.Duration
	pool    simcore.Pool[ctlEvent]
	// The copies SendFlowMod and SendPacketOut deliver.
	flowMods   simcore.Pool[openflow.FlowMod]
	packetOuts simcore.Pool[openflow.PacketOut]
	engines    []Attachment

	// fstate composes overlapping scripted outages (links, switches, and
	// controller detach all nest by counting) and records the link
	// changes a detached controller missed, so reattach can
	// resynchronize its topology view with current-state PortStatus.
	fstate *dataplane.FailureState

	// Per-switch scheduled expiry instants (simtime.Never when none), to
	// avoid duplicate events; expiryTimer holds the outstanding check so a
	// reschedule cancels it instead of stacking a second event beside it.
	expiryAt    []simtime.Time
	expiryTimer []simcore.Timer

	// observers receive applied network-dynamics events (the public
	// Observe hook).
	observers simevent.Observers
}

// init builds, in place, the control plane of a run on kernel k over
// network net. links is the link-model registry the attached engines read
// (nil builds a pristine one); the plane counts applied FlowMods into col,
// which is also what Context.Collector returns. ctrl is the controller;
// with none (nil), switch-to-controller messages are dropped at the
// switch. latency delays every message in both directions (0 means 1 ms).
func (p *ControlPlane) init(k *simcore.Kernel, net *dataplane.Network, links *linkmodel.Set, col *stats.Collector, ctrl Controller, latency simtime.Duration) {
	topo := net.Topo
	if links == nil {
		links = linkmodel.NewSet(1, topo.NumLinks())
	}
	if latency == 0 {
		latency = simtime.Millisecond
	}
	*p = ControlPlane{
		k: k, topo: topo, net: net, links: links, col: col, ctrl: ctrl, latency: latency,
		fstate:      dataplane.NewFailureState(topo),
		expiryAt:    make([]simtime.Time, topo.NumNodes()),
		expiryTimer: make([]simcore.Timer, topo.NumNodes()),
	}
	for n := range p.expiryAt {
		p.expiryAt[n] = simtime.Never
	}
	p.ctx = Context{p: p}
}

// Attach adds an engine's reactions, which run after those of every
// engine attached before it.
func (p *ControlPlane) Attach(a Attachment) { p.engines = append(p.engines, a) }

// Kernel returns the kernel the plane schedules on.
func (p *ControlPlane) Kernel() *simcore.Kernel { return p.k }

// Network returns the data-plane state messages apply to.
func (p *ControlPlane) Network() *dataplane.Network { return p.net }

// Collector returns the plane's collector, which every attached engine
// counts into.
func (p *ControlPlane) Collector() *stats.Collector { return p.col }

// Links returns the link-model registry.
func (p *ControlPlane) Links() *linkmodel.Set { return p.links }

// Controller returns the controller, or nil when the run has none.
func (p *ControlPlane) Controller() Controller { return p.ctrl }

// Start starts the controller, which Run does before the engines begin.
func (p *ControlPlane) Start() {
	if p.ctrl != nil {
		p.ctrl.Start(&p.ctx)
	}
}

// Observe registers an observer of applied network dynamics (link and
// switch state flips, controller detach/reattach, link-model changes).
// Register before Run; observers run synchronously at the instant a change
// takes effect.
func (p *ControlPlane) Observe(fn simevent.Observer) { p.observers.Add(fn) }

// SendToSwitch delivers a controller→switch message to its datapath after
// the control latency. While the controller is detached the message is
// lost (the control channel is the thing that failed); messages already
// emitted before the break are in the network and still arrive.
func (p *ControlPlane) SendToSwitch(msg openflow.Message) { p.toSwitch(msg, false) }

// toSwitch schedules msg's delivery; recycled marks a copy from the
// plane's pools, which the delivery returns when it is released.
func (p *ControlPlane) toSwitch(msg openflow.Message, recycled bool) {
	if p.fstate.ControllerDetached() {
		return
	}
	p.sched(ctlEvent{at: p.k.Now().Add(p.latency), kind: ctlToSwitch, id: int32(msg.Datapath()), msg: msg, recycled: recycled})
}

// After schedules fn as a controller timer d from now.
func (p *ControlPlane) After(d simtime.Duration, fn func()) {
	p.sched(ctlEvent{at: p.k.Now().Add(d), kind: ctlTimer, fn: fn})
}

// SendToController delivers a switch-originated message to the controller
// after the control latency. With no controller it is dropped; a detached
// controller never sees it, and the delivery side likewise drops (and
// pends, for PortStatus) messages caught in flight when the channel
// breaks.
func (p *ControlPlane) SendToController(msg openflow.Message) {
	if p.ctrl == nil {
		return
	}
	if p.fstate.ControllerDetached() {
		p.fstate.NotePendingStatus(msg)
		return
	}
	p.sched(ctlEvent{at: p.k.Now().Add(p.latency), kind: ctlToController, id: int32(msg.Datapath()), msg: msg})
}

// ScheduleLinkChange schedules a link failure (up=false) or recovery. The
// scripted link state composes with switch liveness: a link "recovering"
// under a crashed endpoint stays down until the switch restarts.
func (p *ControlPlane) ScheduleLinkChange(at simtime.Time, link netgraph.LinkID, up bool) {
	p.sched(ctlEvent{at: at, kind: ctlLinkChange, id: int32(link), up: up})
}

// ScheduleSwitchChange schedules a switch crash (up=false) or restart. A
// crash wipes the switch's OpenFlow state and takes every attached link
// down; a restart brings the links back with the tables still empty, so
// the controller must re-program it.
func (p *ControlPlane) ScheduleSwitchChange(at simtime.Time, sw netgraph.NodeID, up bool) {
	p.sched(ctlEvent{at: at, kind: ctlSwitchChange, id: int32(sw), up: up})
}

// ScheduleControllerChange schedules a controller detach (attached=false)
// or reattach. While detached, messages in both directions are lost; on
// reattach, the links that changed meanwhile announce their current state
// and the engines re-announce the traffic they hold for the controller.
func (p *ControlPlane) ScheduleControllerChange(at simtime.Time, attached bool) {
	p.sched(ctlEvent{at: at, kind: ctlCtrlChange, up: attached})
}

// ScheduleLinkDegrade schedules a link-model change: m installs a
// degradation model on both directions of the link at `at` (nil restores
// the pristine link). Orthogonal to ScheduleLinkChange — FailureState
// still decides up/down, and the model shapes traffic only while the link
// is up.
func (p *ControlPlane) ScheduleLinkDegrade(at simtime.Time, link netgraph.LinkID, m linkmodel.Model) {
	p.sched(ctlEvent{at: at, kind: ctlLinkDegrade, id: int32(link), model: m})
}

type ctlKind uint8

const (
	ctlToSwitch ctlKind = iota
	ctlToController
	ctlTimer
	ctlExpiry
	ctlLinkChange
	ctlSwitchChange
	ctlCtrlChange
	ctlLinkDegrade
)

// ctlEvent is the plane's pooled kernel envelope. id is the datapath of a
// message or expiry, the link of a link or model change, the switch of a
// switch change.
type ctlEvent struct {
	at    simtime.Time
	p     *ControlPlane
	msg   openflow.Message
	fn    func()
	model linkmodel.Model
	id    int32
	kind  ctlKind
	up    bool
	// recycled marks msg as a copy from the plane's message pools.
	recycled bool
}

func (e *ctlEvent) Time() simtime.Time { return e.at }

// OrderKey implements eventq.Keyed with the kernel-wide class scheme
// (simcore.OrderKey): at one instant, scripted dynamics first, then
// deliveries to switches, expiries, deliveries to the controller and
// controller timers, all before the engines' data-plane events.
func (e *ctlEvent) OrderKey() uint64 {
	switch e.kind {
	case ctlLinkChange, ctlLinkDegrade, ctlSwitchChange:
		return simcore.OrderKey(simcore.ClassTopoChange, uint32(e.id))
	case ctlCtrlChange:
		return simcore.OrderKey(simcore.ClassTopoChange, ^uint32(0))
	case ctlToSwitch:
		return simcore.OrderKey(simcore.ClassToSwitch, uint32(e.id))
	case ctlExpiry:
		return simcore.OrderKey(simcore.ClassExpiry, uint32(e.id))
	case ctlToController:
		return simcore.OrderKey(simcore.ClassToController, uint32(e.id))
	default: // ctlTimer
		return simcore.OrderKey(simcore.ClassTimer, 0)
	}
}

// Fire implements simcore.Event.
func (e *ctlEvent) Fire() {
	p := e.p
	switch e.kind {
	case ctlToSwitch:
		p.Deliver(e.msg)
	case ctlToController:
		if p.fstate.ControllerDetached() {
			// The channel broke while the message was in flight: it is
			// lost at delivery. A lost PortStatus still resyncs on
			// reattach (the link change it announced goes pending).
			p.fstate.NotePendingStatus(e.msg)
		} else {
			p.ctrl.Handle(&p.ctx, e.msg)
		}
	case ctlTimer:
		e.fn()
	case ctlExpiry:
		p.handleExpiry(netgraph.NodeID(e.id))
	case ctlLinkChange:
		p.fstate.SetLink(netgraph.LinkID(e.id), e.up)
		p.applyLinkChange(netgraph.LinkID(e.id), -1)
	case ctlSwitchChange:
		p.handleSwitchChange(netgraph.NodeID(e.id), e.up)
	case ctlCtrlChange:
		p.handleCtrlChange(e.up)
	case ctlLinkDegrade:
		p.handleLinkDegrade(netgraph.LinkID(e.id), e.model)
	}
	for _, a := range p.engines {
		a.AfterPlaneEvent()
	}
}

// Release implements simcore.Event: recycle the envelope, and the
// message with it when that is a pooled copy.
func (e *ctlEvent) Release() {
	p := e.p
	if e.recycled {
		switch m := e.msg.(type) {
		case *openflow.FlowMod:
			*m = openflow.FlowMod{}
			p.flowMods.Put(m)
		case *openflow.PacketOut:
			*m = openflow.PacketOut{}
			p.packetOuts.Put(m)
		}
	}
	*e = ctlEvent{}
	p.pool.Put(e)
}

// sched schedules a pooled copy of proto, passing the time and order key
// the envelope reports, and returns the Timer that cancels it.
func (p *ControlPlane) sched(proto ctlEvent) simcore.Timer {
	e := p.pool.Get()
	*e = proto
	e.p = p
	return p.k.ScheduleAt(e, e.at, e.OrderKey(), 0)
}

// Deliver applies a controller→switch message at its datapath now, which
// is what a delivery SendToSwitch scheduled does when it fires. A message
// to a non-switch (a controller bug) or to a crashed switch is lost, so a
// restart genuinely comes back with empty tables.
func (p *ControlPlane) Deliver(msg openflow.Message) {
	dp := msg.Datapath()
	sw := p.net.Switch(dp)
	if sw == nil || p.fstate.SwitchIsDown(dp) {
		return
	}
	switch m := msg.(type) {
	case *openflow.FlowMod, *openflow.GroupMod, *openflow.MeterMod:
		if err := sw.Apply(msg, p.k.Now()); err != nil {
			return
		}
		p.col.FlowMods++
		if _, meter := m.(*openflow.MeterMod); !meter {
			p.scheduleExpiry(dp)
		}
		p.applied(msg)
	case *openflow.PacketOut:
		p.applied(msg)
	case *openflow.PortStatsRequest:
		p.SendToController(p.portStats(dp, m.Port))
	case *openflow.FlowStatsRequest:
		p.SendToController(sw.FlowStats(m, p.k.Now()))
	case *openflow.BarrierRequest:
		p.SendToController(&openflow.BarrierReply{Switch: dp, Xid: m.Xid})
	}
}

func (p *ControlPlane) applied(msg openflow.Message) {
	for _, e := range p.engines {
		e.Applied(msg)
	}
}

// portStats builds a PortStatsReply for one port of dp (every port with
// NoPort), summing the counters of every attached engine.
func (p *ControlPlane) portStats(dp netgraph.NodeID, port netgraph.PortNum) *openflow.PortStatsReply {
	reply := &openflow.PortStatsReply{Switch: dp, At: p.k.Now()}
	for _, pn := range p.topo.Node(dp).Ports() {
		if port != netgraph.NoPort && pn != port {
			continue
		}
		if l := p.topo.LinkAt(dp, pn); l != nil {
			reply.Stats = append(reply.Stats, openflow.PortStats{Port: pn, LinkBps: l.BandwidthBps, Up: l.Up})
		}
	}
	for _, e := range p.engines {
		e.AddPortStats(reply)
	}
	return reply
}

// scheduleExpiry arms a timeout check for a switch at its earliest entry
// expiry, avoiding duplicate events for the same instant.
func (p *ControlPlane) scheduleExpiry(dp netgraph.NodeID) {
	next := p.net.Switch(dp).NextExpiry()
	if next == simtime.Never {
		return
	}
	if cur := p.expiryAt[dp]; cur <= next && cur >= p.k.Now() {
		return // an earlier (or equal) check is already scheduled
	}
	// The outstanding check (if any) is later than next: replace it
	// instead of stacking a second event beside it.
	p.k.Cancel(p.expiryTimer[dp])
	p.expiryAt[dp] = next
	p.expiryTimer[dp] = p.sched(ctlEvent{at: next, kind: ctlExpiry, id: int32(dp)})
}

// handleExpiry evicts expired entries on a switch, notifies the controller
// with FlowRemoved, and re-arms the timer. Traffic that hit an evicted
// rule re-resolves (flow engine) or misses and punts again (packet
// engine).
func (p *ControlPlane) handleExpiry(dp netgraph.NodeID) {
	p.expiryAt[dp] = simtime.Never
	p.expiryTimer[dp] = simcore.Timer{}
	sw := p.net.Switch(dp)
	if sw == nil {
		return
	}
	for _, e := range p.engines {
		e.BeforeExpiry(dp)
	}
	removed := sw.ExpireEntries(p.k.Now())
	for _, fr := range removed {
		p.SendToController(fr)
	}
	if len(removed) > 0 {
		for _, e := range p.engines {
			e.AfterExpiry(dp)
		}
	}
	p.scheduleExpiry(dp)
}

// applyLinkChange moves a link to the state every scripted failure in
// effect implies (no-op when already there): topology flip, decision
// invalidation at both ends (port liveness feeds group bucket selection —
// the dataplane.Switch.Gen contract), the engines' reactions, and
// PortStatus from both ends except silent, a crashed switch that cannot
// announce its own ports (pass -1 normally). While detached, the
// PortStatus pends for the reattach resync instead.
func (p *ControlPlane) applyLinkChange(id netgraph.LinkID, silent netgraph.NodeID) {
	l := p.topo.Link(id)
	up := p.fstate.LinkDesired(id)
	if l.Up == up {
		return
	}
	p.topo.SetLinkUp(id, up)
	ends := [2]netgraph.NodeID{l.A, l.B}
	for _, end := range ends {
		if sw := p.net.Switch(end); sw != nil {
			sw.Invalidate()
		}
	}
	for _, e := range p.engines {
		e.LinkFlipped(l)
	}
	for _, end := range ends {
		if end != silent && p.net.Switch(end) != nil {
			p.SendToController(&openflow.PortStatus{Switch: end, Port: l.PortAt(end), Up: up})
		}
	}
	p.observers.Notify(simevent.Observation{
		At: p.k.Now(), Kind: simevent.LinkChange, Link: id, Up: up,
	})
}

// handleSwitchChange applies a switch crash or restart: a crash wipes the
// switch's OpenFlow state and takes every attached link down (neighbors
// announce PortStatus; the dead switch cannot); a restart brings the links
// back up — with the tables still empty — and both ends announce.
func (p *ControlPlane) handleSwitchChange(id netgraph.NodeID, up bool) {
	sw := p.net.Switch(id)
	if sw == nil || !p.fstate.SetSwitch(id, up) {
		return
	}
	silent := netgraph.NodeID(-1)
	if !up {
		sw.Reset()
		for _, e := range p.engines {
			e.SwitchCrashed(id)
		}
		silent = id
	}
	for _, pn := range p.topo.Node(id).Ports() {
		// LinkDesired keeps a restart from reviving a link still inside
		// its own scripted outage (and a crash from "double-failing" one).
		if l := p.topo.LinkAt(id, pn); l != nil {
			p.applyLinkChange(l.ID, silent)
		}
	}
	p.observers.Notify(simevent.Observation{
		At: p.k.Now(), Kind: simevent.SwitchChange, Switch: id, Up: up,
	})
}

// handleCtrlChange applies a controller detach or reattach. Outages nest
// by counting (FailureState.SetController): only the reattach matching the
// first detach restores the channel. On reattach, links that changed while
// detached announce their CURRENT state first, so PortStatus-driven
// controllers reconverge on the truth before the engines re-announce what
// they hold.
func (p *ControlPlane) handleCtrlChange(attached bool) {
	if !p.fstate.SetController(attached) {
		return // no state flip (nested, or nothing to reattach)
	}
	if attached {
		p.fstate.ResyncPortStatus(p.net, p.SendToController)
		for _, e := range p.engines {
			e.ControllerReattached()
		}
	}
	p.observers.Notify(simevent.Observation{
		At: p.k.Now(), Kind: simevent.ControllerChange, Up: attached,
	})
}

// handleLinkDegrade installs m on both directions of a link in the shared
// registry (nil restores it), between the engines' before and after
// reactions.
func (p *ControlPlane) handleLinkDegrade(id netgraph.LinkID, m linkmodel.Model) {
	for _, e := range p.engines {
		e.BeforeLinkModel(id)
	}
	p.links.SetLink(id, m)
	for _, e := range p.engines {
		e.AfterLinkModel(id)
	}
	p.observers.Notify(simevent.Observation{
		At: p.k.Now(), Kind: simevent.LinkDegrade, Link: id, Up: m == nil,
	})
}
