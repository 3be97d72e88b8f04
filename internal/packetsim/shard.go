// Sharded execution of the packet engine: clone construction, event
// routing by owning shard, the window-barrier outbox exchange, and the
// deterministic merge at Finish. The ordering contract lives here:
//
//   - Every event kind has one owning shard derived from a stable entity
//     (flow sender → source host's shard, transmitter/arrival → the link
//     direction's endpoint shard, control plane → shard 0, scripted
//     topology changes → the coordinator kernel).
//   - A shard schedules its own events directly; events for other shards
//     append to a per-clone outbox and deliver at the next barrier,
//     merged across clones in (time, order key) order with per-source
//     FIFO preserved — which is provably the serial dispatch order,
//     because events of one (kind, entity) pair have a single source.
//   - The coordinator (between windows) pushes straight into the owning
//     clone's kernel; that is single-threaded by construction.
package packetsim

import (
	"context"
	"sort"

	"horse/internal/flowsim"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simcore"
	"horse/internal/simcore/shard"
	"horse/internal/simevent"
	"horse/internal/simtime"
	"horse/internal/stats"
)

// homeGlobal routes an event to the coordinator kernel (scripted topology
// changes, which mutate state owned by many shards).
const homeGlobal = int32(-1)

// shardExec aliases the executor type so Simulator fields declared in
// packetsim.go need no extra import.
type shardExec = shard.Executor

// outMsg is one cross-shard event awaiting barrier delivery.
type outMsg struct {
	target int32
	ev     *event
}

// initShards decides the effective shard count and builds the clones.
// Sharding needs an engine-owned kernel (hybrid runs share theirs and
// stay serial) and a positive conservative lookahead across the cut.
func (s *Simulator) initShards() {
	want := s.cfg.Shards
	if want <= 1 || !s.ownKernel || s.cfg.PuntSink != nil {
		return
	}
	parts := s.topo.PartitionK(want)
	n := 0
	for _, p := range parts {
		if int(p)+1 > n {
			n = int(p) + 1
		}
	}
	if n <= 1 {
		return
	}
	la := netgraph.CutLookahead(s.topo, parts)
	if s.ctrl != nil && s.cfg.ControlLatency < la {
		la = s.cfg.ControlLatency
	}
	if la <= 0 {
		return // a zero-delay cut admits no safe window: stay serial
	}
	s.nshards = n
	s.partOf = parts
	s.lookahead = la
	s.isCoordinator = true
	// Controller-sharding tables, allocated before clone construction so
	// every clone shares the backing arrays; Begin fills the elements in
	// place (single-threaded). Until then ctrlHome is all zeros, i.e. the
	// historical shard-0 pinning.
	s.compOf, s.ncomp = netgraph.Components(s.topo)
	s.ctrlHome = make([]int32, s.ncomp)
	s.ctrlBy = make([]flowsim.Controller, s.ncomp)
	s.ctrlCtx = make([]*flowsim.Context, s.ncomp)
	clones := make([]*Simulator, n)
	for i := range clones {
		c := new(Simulator)
		*c = *s // share topology, network, and the dense state arrays
		c.k = simcore.New(simcore.Config{Backend: s.cfg.EventQueue})
		c.pool = simcore.Pool[event]{}
		c.col = stats.NewCollector(s.cfg.StatsEvery)
		c.shardID = int32(i)
		c.isCoordinator = false
		c.outbox = nil
		c.pendingStatus = nil
		c.ctx = nil
		clones[i] = c
	}
	for _, c := range clones {
		c.clones = clones
		// Each clone's Context resolves Now() against its own clock; the
		// clone homing a controller instance hands its Context to it.
		c.ctx = flowsim.NewContext(c)
	}
	s.clones = clones
}

// allSims enumerates every Simulator holding per-clone accounting: the
// shard clones plus, in a sharded run, the coordinator (barrier-time
// losses and PacketIns land on its collector).
func (s *Simulator) allSims() []*Simulator {
	if !s.isCoordinator {
		return s.clones
	}
	return append([]*Simulator{s}, s.clones...)
}

// homeOf returns the owning shard of an event (homeGlobal for
// coordinator-executed topology changes).
func (s *Simulator) homeOf(proto *event) int32 {
	switch proto.kind {
	case evLinkChange, evSwitchChange, evCtrlChange, evIngest, evLinkDegrade:
		return homeGlobal
	case evToController:
		// The component's controller home (all zeros pre-Begin — the
		// historical shard-0 pinning).
		return s.ctrlHome[s.compOf[proto.node]]
	case evTimer:
		// Controller timers fire where they were armed: After stamps the
		// scheduling clone's shard, so a timer stays with its instance.
		return proto.dir
	case evSend, evRTO:
		return proto.flow.home
	case evTxDone:
		return s.partOf[dirFromNode(s.dirLink(proto.dir), proto.dir)]
	case evArriveNode:
		l := s.dirLink(proto.dir)
		peer, _ := l.Peer(dirFromNode(l, proto.dir))
		return s.partOf[peer]
	case evToSwitch, evExpiry:
		return s.partOf[proto.node]
	default: // evStats: node carries the shard index
		return int32(proto.node)
	}
}

// sched schedules a pooled copy of proto on the owning kernel: locally
// when this clone owns it, via the outbox when another shard does, and
// directly (single-threaded) when running as the coordinator between
// windows. Before Begin the coordinator parks protos in a pending list —
// clones exist but flow accounting is not sized yet, and routing them in
// Load order at Begin reproduces the serial schedule order exactly.
func (s *Simulator) sched(proto event) {
	if s.nshards <= 1 {
		e := s.pool.Get()
		*e = proto
		e.sim = s
		s.k.Schedule(e)
		return
	}
	if !s.begun && s.isCoordinator {
		s.pendingProtos = append(s.pendingProtos, proto)
		return
	}
	home := s.homeOf(&proto)
	switch {
	case home == homeGlobal && s.isCoordinator:
		e := s.pool.Get()
		*e = proto
		e.sim = s
		s.k.Schedule(e)
	case s.isCoordinator:
		c := s.clones[home]
		e := c.pool.Get()
		*e = proto
		e.sim = c
		c.k.Schedule(e)
	case home == s.shardID:
		e := s.pool.Get()
		*e = proto
		e.sim = s
		s.k.Schedule(e)
	default:
		e := s.pool.Get()
		*e = proto
		e.sim = nil // rewired to the owner at delivery
		s.outbox = append(s.outbox, outMsg{target: home, ev: e})
	}
}

// schedTimer schedules a pooled copy of proto as a cancelable timer on
// this clone's own kernel. Only valid for event kinds that are emitted on
// their owning shard (evRTO from the sender's dispatch, evExpiry from the
// switch owner's dispatch) — those never take the outbox hop, so the
// handle can be cancelled locally later.
func (s *Simulator) schedTimer(proto event) simcore.Timer {
	e := s.pool.Get()
	*e = proto
	e.sim = s
	return s.k.ScheduleCancelable(e)
}

// routePending delivers the events scheduled before Begin (Load and the
// scenario Schedule* calls) to their owning kernels, in schedule order.
func (s *Simulator) routePending() {
	pending := s.pendingProtos
	s.pendingProtos = nil
	for _, proto := range pending {
		s.sched(proto)
	}
}

// exchange is the barrier hook: it collects every clone's outbox, merges
// in (time, order key) order with per-source FIFO preserved (stable sort
// over clone-index concatenation), and delivers into the owning kernels.
// It also folds the clones' buffered pending-PortStatus notes into the
// shared failure state — a set keyed by link, so merge order is
// immaterial. Runs single-threaded between windows.
func (s *Simulator) exchange() {
	s.reportShardProgress()
	// The window just completed published every clone's flow-state writes
	// (runner barrier): safe point for the cross-clone finalize drain.
	s.drainFin()
	var msgs []outMsg
	for _, c := range s.clones {
		msgs = append(msgs, c.outbox...)
		for i := range c.outbox {
			c.outbox[i] = outMsg{}
		}
		c.outbox = c.outbox[:0]
		for _, m := range c.pendingStatus {
			s.fstate.NotePendingStatus(m)
		}
		c.pendingStatus = c.pendingStatus[:0]
	}
	if len(msgs) == 0 {
		s.stealBarrier()
		return
	}
	sort.SliceStable(msgs, func(i, j int) bool {
		a, b := msgs[i].ev, msgs[j].ev
		if a.at != b.at {
			return a.at < b.at
		}
		return a.OrderKey() < b.OrderKey()
	})
	for _, m := range msgs {
		if m.target == homeGlobal {
			m.ev.sim = s
			s.k.Schedule(m.ev)
			continue
		}
		c := s.clones[m.target]
		m.ev.sim = c
		c.k.Schedule(m.ev)
	}
	s.stealBarrier()
}

// stealBarrier runs after the outbox merge at every barrier when work
// stealing is enabled: it measures per-shard load and may migrate one
// switch group from the hottest shard to the coldest (see balance.go).
// exchange() calls it last so migrated events have already been merged
// into their (old) owner's queue and move as one ordered block.
func (s *Simulator) stealBarrier() {
	if s.cfg.Balance == BalanceSteal && s.isCoordinator && s.exec != nil {
		s.maybeSteal()
	}
}

// reportShardProgress emits a progress report at a window barrier when the
// reporting period has elapsed: virtual time is the farthest shard clock,
// the event count sums every kernel. Runs single-threaded (exchange).
func (s *Simulator) reportShardProgress() {
	if s.progressFn == nil {
		return
	}
	now := simtime.Time(0)
	events := s.k.Dispatched()
	for _, c := range s.clones {
		if t := c.k.Now(); t > now {
			now = t
		}
		events += c.k.Dispatched()
	}
	if now < s.progressNext {
		return
	}
	s.progressFn(simevent.Progress{Now: now, Events: events})
	s.progressNext = now.Add(s.progressEvery)
}

// runSharded drives the conservative window loop, stopping at the next
// barrier if ctx is cancelled (the error reports whether it was).
func (s *Simulator) runSharded(ctx context.Context, until simtime.Time) error {
	kernels := make([]*simcore.Kernel, len(s.clones))
	for i, c := range s.clones {
		kernels[i] = c.k
	}
	stopped := false
	var interrupt func() bool
	if done := ctx.Done(); done != nil {
		interrupt = func() bool {
			select {
			case <-done:
				stopped = true
				return true
			default:
				return false
			}
		}
	}
	x := shard.New(shard.Config{
		Lookahead: s.lookahead,
		Parallel:  s.cfg.ShardWorkers,
		Interrupt: interrupt,
	}, s.k, kernels, s.exchange)
	s.exec = x
	x.Run(until)
	s.dispatched = x.Dispatched()
	if stopped {
		return ctx.Err()
	}
	return nil
}

// mergeShards folds the clones' collectors, counters, and link-sample
// series into the coordinator, sorting samples by (instant, direction) —
// the order the serial sampler produces.
func (s *Simulator) mergeShards() {
	if s.nshards <= 1 {
		return
	}
	var samples []stats.LinkSample
	for _, c := range s.clones {
		s.counter += c.counter
		s.col.FlowsStarted += c.col.FlowsStarted
		s.col.PacketIns += c.col.PacketIns
		s.col.FlowMods += c.col.FlowMods
		s.col.PacketsLost += c.col.PacketsLost
		s.col.PacketsCorrupted += c.col.PacketsCorrupted
		s.col.PacketsSent += c.col.PacketsSent
		s.col.Retransmits += c.col.Retransmits
		samples = append(samples, c.col.LinkSeries()...)
		for _, m := range c.pendingStatus {
			s.fstate.NotePendingStatus(m)
		}
		c.pendingStatus = nil
	}
	samples = append(samples, s.col.LinkSeries()...)
	sort.SliceStable(samples, func(i, j int) bool {
		a, b := samples[i], samples[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Link != b.Link {
			return a.Link < b.Link
		}
		return a.Forward && !b.Forward
	})
	s.col.ReplaceLinkSeries(samples)
}

// notePending records the link behind a PortStatus a detached controller
// missed. Shard clones buffer (the shared failure state is read-only
// inside windows); the coordinator and the serial path write through.
func (s *Simulator) notePending(msg openflow.Message) {
	if s.nshards > 1 && !s.isCoordinator {
		s.pendingStatus = append(s.pendingStatus, msg)
		return
	}
	s.fstate.NotePendingStatus(msg)
}
