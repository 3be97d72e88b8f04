package flowsim

import (
	"cmp"
	"math"
	"slices"

	"horse/internal/dataplane"
	"horse/internal/fairshare"
	"horse/internal/grow"
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simcore"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

// approximate wire MTU for converting flow bytes to "packets" in OpenFlow
// counters.
const packetBits = 1500 * 8

// flowRef is one entry of a per-switch flow list: the flow, and the index
// of the Flow.atPos (flowsAt) or Flow.parks (waiting) element that
// records the entry's position.
type flowRef struct {
	f *Flow
	i int32
}

// parkPos is a flow's entry in the waiting list of switch sw.
type parkPos struct {
	sw  netgraph.NodeID
	pos int32
}

// attachment is a node's access point: the switch and port
// Topology.AttachedSwitch reports and the link joining them.
type attachment struct {
	sw   netgraph.NodeID
	port netgraph.PortNum
	link *netgraph.Link
}

// Admit starts the demand with load index idx now: it creates the
// demand's Flow, whose record ID is idx + 1, and resolves its first path.
// An arrival cursor calls it from the event it queued for the demand at
// its start under ArrivalKey.
func (s *Simulator) Admit(d *traffic.Demand, idx int) {
	s.nextID++
	f := s.newFlow()
	*f = Flow{
		ID:         s.nextID,
		Key:        d.Key,
		Src:        d.Src,
		Dst:        d.Dst,
		SizeBits:   d.SizeBits,
		AppRateBps: d.RateBps,
		TCP:        d.TCP,
		Arrival:    s.k.Now(),
		recID:      int64(idx) + 1,
		remaining:  d.SizeBits,
		lastSettle: s.k.Now(),
		Deadline:   simtime.Never,
		waitingAt:  -1,
		slot:       f.slot,
		allocSlot:  -1,
		gen:        f.gen,
		hops:       f.hops[:0],
		atPos:      f.atPos[:0],
		entries:    f.entries[:0],
		meterRefs:  f.meterRefs[:0],
		resources:  f.resources[:0],
		puntedAt:   f.puntedAt[:0],
		parks:      f.parks[:0],
	}
	if d.Duration > 0 {
		f.Deadline = s.k.Now().Add(d.Duration)
	}
	if f.AppRateBps <= 0 {
		f.AppRateBps = math.Inf(1)
	}
	s.col.FlowsStarted++
	s.resolve(f)
}

// newFlow takes a free slot's Flow, or grows the slot table.
func (s *Simulator) newFlow() *Flow {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		return s.flows[slot]
	}
	f := &Flow{slot: int32(len(s.flows))}
	s.flows = grow.Push(s.flows, f)
	return f
}

// resolve walks the flow through the data plane and transitions its state
// according to the outcome.
func (s *Simulator) resolve(f *Flow) {
	res := &s.walk
	s.net.WalkInto(res, f.Key, f.Src, f.Dst)
	s.walks++
	f.punting = len(res.PacketIns) > 0

	// Emit PacketIns for punting switches the flow has not yet punted at
	// (a flow's buffered first packet produces one PacketIn per switch).
	for _, sw := range res.PacketIns {
		if !slices.Contains(f.puntedAt, sw) {
			f.puntedAt = append(f.puntedAt, sw)
			f.punts++
			s.col.PacketIns++
			s.plane.SendToController(&openflow.PacketIn{
				Switch: sw,
				InPort: inPortAt(s, f, sw),
				Key:    f.Key,
				Reason: openflow.ReasonNoMatch,
			})
		}
	}

	switch res.Terminal {
	case dataplane.Delivered:
		s.activate(f, res)
	case dataplane.Punted, dataplane.Flooded, dataplane.Stuck:
		s.park(f, res.At)
	case dataplane.Dropped:
		s.settleFlow(f)
		s.deactivate(f)
		s.finalize(f, false, "dropped")
	case dataplane.Looped:
		s.settleFlow(f)
		s.deactivate(f)
		s.finalize(f, false, "looped")
	}
}

// inPortAt returns the port on sw where the flow enters (best effort: the
// ingress port if sw is the first switch, otherwise NoPort — sufficient
// for the controller apps, which key on the flow, not the port).
func inPortAt(s *Simulator, f *Flow, sw netgraph.NodeID) netgraph.PortNum {
	if a := s.ingress[f.Src]; a.sw == sw {
		return a.port
	}
	return netgraph.NoPort
}

// park transitions a flow to the waiting state at a switch.
func (s *Simulator) park(f *Flow, at netgraph.NodeID) {
	s.settleFlow(f)
	s.deactivate(f)
	if f.state == StateDone {
		return
	}
	f.state = StateWaiting
	f.waitingAt = at
	if !slices.ContainsFunc(f.parks, func(p parkPos) bool { return p.sw == at }) {
		f.parks = append(f.parks, parkPos{at, int32(len(s.waiting[at]))})
		s.waiting[at] = grow.Push(s.waiting[at], flowRef{f, int32(len(f.parks) - 1)})
	}
	// Open-ended flows still end at their deadline even while waiting.
	s.k.Cancel(f.completion)
	f.completion = simcore.Timer{}
	f.gen++
	if f.Deadline != simtime.Never {
		f.completion = s.sched(event{at: f.Deadline, kind: evComplete, flow: f, gen: f.gen})
	}
}

// unpark removes a flow from the waiting list of the switch it waits at.
func (s *Simulator) unpark(f *Flow) {
	if f.waitingAt < 0 {
		return
	}
	s.leave(f, slices.IndexFunc(f.parks, func(p parkPos) bool { return p.sw == f.waitingAt }))
	f.waitingAt = -1
}

// leave removes f from the waiting list f.parks[i] names.
func (s *Simulator) leave(f *Flow, i int) {
	p := f.parks[i]
	list := s.waiting[p.sw]
	last := int32(len(list) - 1)
	if moved := list[last]; p.pos != last {
		list[p.pos] = moved
		moved.f.parks[moved.i].pos = p.pos
	}
	list[last] = flowRef{}
	s.waiting[p.sw] = list[:last]
	if j := len(f.parks) - 1; i != j {
		f.parks[i] = f.parks[j]
		s.waiting[f.parks[i].sw][f.parks[i].pos].i = int32(i)
	}
	f.parks = f.parks[:len(f.parks)-1]
}

// release returns a finalized flow's slot to the free list, first taking
// it off the waiting lists it still sits on.
func (s *Simulator) release(f *Flow) {
	for len(f.parks) > 0 {
		s.leave(f, len(f.parks)-1)
	}
	s.free = grow.Push(s.free, f.slot)
}

// activate installs the flow on the allocator with its resolved path. An
// active flow readmitted on the path it is registered on (res nil, or a
// walk that returned that path) keeps its allocator slot and switch index
// and has every other effect of a removal and re-registration: its rate
// drops to 0 until the drain applies the allocator's rate to it.
func (s *Simulator) activate(f *Flow, res *dataplane.PathResult) {
	s.settleFlow(f)
	if f.state == StateActive && (res == nil || f.Key == res.ExitKey && slices.Equal(f.hops, res.Hops) &&
		slices.Equal(f.entries, res.Entries) && slices.Equal(f.meterRefs, res.Meters)) {
		s.adjustLedgers(f, -f.rate)
		f.rate = 0
		if !f.kept {
			f.kept = true
			s.kept = append(s.kept, f)
		}
	} else {
		// Tear down previous registration (path may have changed).
		wasActive := f.state == StateActive
		s.deactivate(f)
		s.unpark(f)

		// Path changes count against the last transmitting path, which
		// survives park/reactivate cycles (outage reroutes count too).
		if len(f.hops) > 0 && !samePath(f.hops, res.Hops) {
			f.pathChanges++
			s.col.PathChanges++
			s.col.AddReroute(s.k.Now())
		}
		f.state = StateActive
		f.hops = append(f.hops[:0], res.Hops...)
		f.entries = append(f.entries[:0], res.Entries...)
		f.meterRefs = append(f.meterRefs[:0], res.Meters...)
		f.Key = res.ExitKey
		f.lastPathLen = len(res.Hops)
		if !wasActive {
			f.txStart = s.k.Now()
		}

		// Resources: every link direction along the path plus every meter.
		f.resources = f.resources[:0]
		for _, h := range f.hops {
			fwd := h.Link.A == h.Switch
			f.resources = append(f.resources, linkResource(h.Link.ID, fwd))
		}
		// The host → first switch ingress link also carries the flow.
		if hostLink := s.ingress[f.Src].link; hostLink != nil {
			fwd := hostLink.A == f.Src
			f.resources = append(f.resources, linkResource(hostLink.ID, fwd))
		}
		for _, mr := range f.meterRefs {
			f.resources = append(f.resources, s.meterResource(mr.Switch, mr.Meter))
		}
		// Index by traversed switch for re-resolution, once per switch.
		f.atPos = f.atPos[:0]
		for i, h := range f.hops {
			pos := int32(-1)
			if !crossed(f.hops[:i], h.Switch) {
				pos = int32(len(s.flowsAt[h.Switch]))
				s.flowsAt[h.Switch] = grow.Push(s.flowsAt[h.Switch], flowRef{f, int32(i)})
			}
			f.atPos = append(f.atPos, pos)
		}
	}
	// The flow found a path; if its rules are later evicted it punts as a
	// fresh episode, so clear the PacketIn dedup set.
	f.puntedAt = f.puntedAt[:0]
	for _, mr := range f.meterRefs {
		if m := s.meter(mr); m != nil {
			s.alloc.SetCapacity(s.meterResource(mr.Switch, mr.Meter), m.RateBps)
		}
	}
	s.refreshPathLoss(f)

	// Register flow-entry usage.
	for _, e := range f.entries {
		e.LastUsed = s.k.Now()
	}
	if f.allocSlot >= 0 {
		s.alloc.SetDemand(f.allocSlot, s.currentDemand(f))
	} else {
		f.allocSlot = s.alloc.AddFlow(fairshare.FlowID(f.ID), s.currentDemand(f), f.resources)
		s.byAlloc = grow.To(s.byAlloc, int(f.allocSlot)+1)
		s.byAlloc[f.allocSlot] = f
	}
	s.markRateShift(f.resources)
	s.recomputeAndApply()

	if f.TCP {
		s.scheduleRamp(f)
	}
	s.scheduleCompletion(f)
}

// crossed reports whether any of hops is at switch sw.
func crossed(hops []dataplane.Hop, sw netgraph.NodeID) bool {
	for _, h := range hops {
		if h.Switch == sw {
			return true
		}
	}
	return false
}

func samePath(a, b []dataplane.Hop) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Switch != b[i].Switch || a[i].OutPort != b[i].OutPort {
			return false
		}
	}
	return true
}

// deactivate removes an active flow from the allocator and indexes without
// finalizing it; its hops stay as the last transmitting path. Caller must
// settle first.
func (s *Simulator) deactivate(f *Flow) {
	if f.state != StateActive || f.allocSlot < 0 {
		return
	}
	// Ledger: the flow's rate leaves its resources.
	s.adjustLedgers(f, -f.rate)
	f.rate = 0
	s.alloc.Remove(f.allocSlot)
	s.byAlloc[f.allocSlot] = nil
	f.allocSlot = -1
	s.markRateShift(f.resources)
	for i, h := range f.hops {
		if pos := f.atPos[i]; pos >= 0 {
			s.unindex(h.Switch, pos)
		}
	}
	f.entries = f.entries[:0]
	f.meterRefs = f.meterRefs[:0]
	s.recomputeAndApply()
}

// unindex removes entry pos of flowsAt[sw], moving the last entry into
// its place.
func (s *Simulator) unindex(sw netgraph.NodeID, pos int32) {
	list := s.flowsAt[sw]
	last := int32(len(list) - 1)
	if moved := list[last]; pos != last {
		list[pos] = moved
		moved.f.atPos[moved.i] = pos
	}
	list[last] = flowRef{}
	s.flowsAt[sw] = list[:last]
}

// currentDemand is the flow's offered load right now. TCP flows offer
// their congestion-window cap, further bounded by the Mathis throughput
// model when the path crosses lossy (degraded) links; CBR flows offer
// the application rate.
func (s *Simulator) currentDemand(f *Flow) float64 {
	if !f.TCP {
		return f.AppRateBps
	}
	if f.demandCap <= 0 {
		f.demandCap = s.cfg.TCP.InitialRate()
	}
	d := math.Min(f.AppRateBps, f.demandCap)
	if f.pathLoss > 0 {
		d = math.Min(d, s.cfg.TCP.MathisCap(f.pathLoss))
	}
	return d
}

// refreshPathLoss recomputes the flow's end-to-end frame-loss
// probability from the link models along its current path (hops plus the
// host ingress link): 1 - ∏(1 - loss_i), the survival product a frame
// faces in the packet engine.
func (s *Simulator) refreshPathLoss(f *Flow) {
	if s.links.Empty() {
		f.pathLoss = 0
		return
	}
	deliver := 1.0
	for _, h := range f.hops {
		fwd := h.Link.A == h.Switch
		deliver *= 1 - s.links.LossRate(h.Link.ID, fwd)
	}
	if hostLink := s.ingress[f.Src].link; hostLink != nil {
		fwd := hostLink.A == f.Src
		deliver *= 1 - s.links.LossRate(hostLink.ID, fwd)
	}
	f.pathLoss = 1 - deliver
}

// settleFlow brings a flow's byte accounting up to now at its current rate.
func (s *Simulator) settleFlow(f *Flow) {
	if f.state == StateActive && s.k.Now() > f.lastSettle {
		bits := f.rate * s.k.Now().Sub(f.lastSettle).Seconds()
		if bits > 0 {
			f.sent += bits
			if !math.IsInf(f.remaining, 1) {
				f.remaining -= bits
				if f.remaining < 0 {
					f.remaining = 0
				}
			}
			for _, e := range f.entries {
				e.Bytes += uint64(bits / 8)
				e.Packets += uint64(bits/packetBits) + 1
				e.LastUsed = s.k.Now()
			}
		}
	}
	f.lastSettle = s.k.Now()
}

// adjustLedgers settles each of the flow's resources and adds delta to the
// resource's aggregate rate.
func (s *Simulator) adjustLedgers(f *Flow, delta float64) {
	if delta == 0 {
		return
	}
	for _, r := range f.resources {
		if int(r) >= len(s.ledgers) {
			continue // a meter
		}
		l := &s.ledgers[r]
		l.settle(s.k.Now())
		l.rate += delta
		if l.rate < 0 {
			l.rate = 0
		}
	}
}

// recomputeAndApply marks the allocation state dirty. The actual solve is
// deferred to drainAlloc, which runs once per virtual instant: all events
// at the same timestamp (e.g. one replay epoch's arrivals) share a single
// re-solve. Rates are correct whenever virtual time advances, which is the
// only point at which they accrue transferred bits.
func (s *Simulator) recomputeAndApply() {
	s.allocDirty = true
}

// markRateShift records resources whose flow membership changed so the
// next drain reports them through OnRateShift even when no surviving
// flow's rate moved (e.g. the last flow on a link departed).
func (s *Simulator) markRateShift(resources []fairshare.ResourceID) {
	if s.cfg.OnRateShift == nil {
		return
	}
	s.shiftPending = append(s.shiftPending, resources...)
}

// drainAlloc re-solves the allocator and applies rate changes to flows:
// settling, ledger updates, and completion-event rescheduling.
func (s *Simulator) drainAlloc() {
	if !s.allocDirty {
		return
	}
	s.allocDirty = false
	var changed []fairshare.Changed
	if s.cfg.FullRecompute {
		changed = s.alloc.RecomputeAll()
	} else {
		changed = s.alloc.Recompute()
	}
	if len(s.kept) > 0 {
		changed = s.mergeKept(changed)
	}
	if len(changed) == 0 && len(s.shiftPending) == 0 {
		return
	}
	slices.SortFunc(changed, func(a, b fairshare.Changed) int { return cmp.Compare(a.ID, b.ID) })
	s.shifted.reset()
	for _, r := range s.shiftPending {
		s.shifted.add(r)
	}
	s.shiftPending = s.shiftPending[:0]
	for _, c := range changed {
		f := s.byAlloc[c.Slot]
		if f == nil || f.state != StateActive {
			continue
		}
		s.settleFlow(f)
		s.adjustLedgers(f, c.NewRate-f.rate)
		f.rate = c.NewRate
		s.col.RateChanges++
		s.scheduleCompletion(f)
		// A rate change may open growth room for a TCP flow.
		s.scheduleRamp(f)
		if s.cfg.OnRateShift != nil {
			for _, r := range f.resources {
				s.shifted.add(r)
			}
		}
	}
	if s.cfg.OnRateShift != nil && len(s.shifted.ids) > 0 {
		s.cfg.OnRateShift(s.shifted.sorted())
	}
}

// mergeKept returns changed with each flow readmitted since the last drain
// reported once, at the allocator's rate, exactly when a registration
// from rate 0 would report it.
func (s *Simulator) mergeKept(changed []fairshare.Changed) []fairshare.Changed {
	out := s.merged[:0]
	for _, c := range changed {
		if f := s.byAlloc[c.Slot]; f == nil || !f.kept {
			out = append(out, c)
		}
	}
	for _, f := range s.kept { // f.kept is off where listed twice or reused
		if f.kept && f.state == StateActive && s.alloc.Significant(0, s.alloc.Rate(f.allocSlot)) {
			out = append(out, fairshare.Changed{ID: fairshare.FlowID(f.ID), Slot: f.allocSlot, NewRate: s.alloc.Rate(f.allocSlot)})
		}
		f.kept = false
	}
	s.kept = s.kept[:0]
	s.merged = out
	return out
}

// resourceSet collects the distinct resource IDs one drain reports through
// OnRateShift. A drain lists the resources of every changed flow, and
// flows share links, so most additions are repeats: epoch marks by
// resource ID drop them on the way in, and only the distinct IDs are
// sorted.
type resourceSet struct {
	ids   []fairshare.ResourceID
	mark  []uint32 // by resource: epoch of the drain that listed it
	epoch uint32
}

// reset empties the set for a new drain.
func (rs *resourceSet) reset() {
	rs.ids = rs.ids[:0]
	rs.epoch++
	if rs.epoch == 0 { // uint32 wrap: stale marks could alias, so clear
		clear(rs.mark)
		rs.epoch = 1
	}
}

// add lists r unless this drain already has.
func (rs *resourceSet) add(r fairshare.ResourceID) {
	rs.mark = grow.To(rs.mark, int(r)+1)
	if rs.mark[r] == rs.epoch {
		return
	}
	rs.mark[r] = rs.epoch
	rs.ids = append(rs.ids, r)
}

// sorted returns the listed IDs in ascending order. The slice is reused by
// the next drain.
func (rs *resourceSet) sorted() []fairshare.ResourceID {
	slices.Sort(rs.ids)
	return rs.ids
}

// scheduleCompletion (re)schedules the flow's completion event based on its
// remaining volume, current rate, and deadline.
func (s *Simulator) scheduleCompletion(f *Flow) {
	s.k.Cancel(f.completion)
	f.completion = simcore.Timer{}
	f.gen++
	at := simtime.Never
	if !math.IsInf(f.remaining, 1) && f.rate > 0 {
		at = s.k.Now().Add(simtime.TransferTime(f.remaining, f.rate))
		// TransferTime truncates to nanoseconds; a sub-ns residue must
		// still complete strictly in the future or the completion event
		// would respawn at the same instant forever.
		if at <= s.k.Now() {
			at = s.k.Now() + 1
		}
	}
	if f.Deadline < at {
		at = f.Deadline
	}
	if at == simtime.Never {
		return
	}
	f.completion = s.sched(event{at: at, kind: evComplete, flow: f, gen: f.gen})
}

// handleComplete ends a flow: either its volume is transferred or its
// deadline arrived.
func (s *Simulator) handleComplete(f *Flow) {
	s.settleFlow(f)
	volumeDone := !math.IsInf(f.remaining, 1) && f.remaining <= 0.5 // half-bit slack
	deadlineHit := f.Deadline != simtime.Never && s.k.Now() >= f.Deadline
	if !volumeDone && !deadlineHit {
		// Spurious wakeup (rate changed between scheduling and firing);
		// reschedule.
		s.scheduleCompletion(f)
		return
	}
	s.deactivate(f)
	s.unpark(f)
	outcome := "completed"
	completed := true
	if !volumeDone && deadlineHit && f.state == StateWaiting {
		outcome = "expired-waiting"
		completed = false
	}
	s.finalize(f, completed, outcome)
}

// finalize records the flow and marks it done.
func (s *Simulator) finalize(f *Flow, completed bool, outcome string) {
	if f.state == StateDone {
		return
	}
	f.state = StateDone
	f.gen++ // backstop: kill anything the cancels below missed
	s.k.Cancel(f.completion)
	f.completion = simcore.Timer{}
	s.k.Cancel(f.ramp)
	f.ramp = simcore.Timer{}
	s.unpark(f)
	size := f.SizeBits
	if math.IsInf(size, 1) {
		size = f.sent
	}
	s.emit(stats.FlowRecord{
		ID:        f.recID,
		Arrival:   f.Arrival,
		End:       s.k.Now(),
		SizeBits:  size,
		SentBits:  f.sent,
		Completed: completed,
		Outcome:   outcome,
		PathLen:   f.lastPathLen,
		Punts:     f.punts,
	})
	// The record is out and nothing re-resolves a Done flow (markDirty
	// skips them, the batch runner releases them) or fires on it (both of
	// its timers are cancelled above), so its slot is recycled — what
	// keeps a streamed multi-million-flow run at memory for the flows
	// live at once. A flow still in the pending batch is released there.
	if !f.dirty && !s.finished {
		s.release(f)
	}
}

// scheduleRamp arms the next TCP window re-evaluation one RTT out, when
// there is anything to adapt to: room to grow (the current cap binds and
// is below the application rate) or a policer on the path (which demands
// continuous probing, exactly like real TCP through a policer).
func (s *Simulator) scheduleRamp(f *Flow) {
	if f.ramping || f.state != StateActive || !f.TCP {
		return
	}
	demand := s.currentDemand(f)
	growthRoom := demand < f.AppRateBps && f.rate >= demand*0.95
	if !growthRoom && len(f.meterRefs) == 0 {
		return
	}
	// No point growing past what the path could ever carry.
	if f.demandCap >= 2*s.pathCapacity(f) && len(f.meterRefs) == 0 {
		return
	}
	f.ramping = true
	f.ramp = s.sched(event{at: s.k.Now().Add(s.cfg.TCP.RTT), kind: evRamp, flow: f})
}

// pathCapacity returns the minimum link capacity along the flow's path.
func (s *Simulator) pathCapacity(f *Flow) float64 {
	min := math.Inf(1)
	for _, h := range f.hops {
		if h.Link.BandwidthBps < min {
			min = h.Link.BandwidthBps
		}
	}
	return min
}

// handleRamp evolves a TCP flow's congestion-window cap: flow-level AIMD.
// While a policer on the path is overdriven the cap halves (multiplicative
// decrease — the policer is dropping); otherwise, if the current cap binds,
// it grows — doubling in slow start, one MSS/RTT after the first loss.
func (s *Simulator) handleRamp(f *Flow) {
	f.ramping = false
	s.drainAlloc()
	s.settleFlow(f)
	if f.demandCap <= 0 {
		f.demandCap = s.cfg.TCP.InitialRate()
	}

	overdriven := false
	for _, mr := range f.meterRefs {
		r := s.meterResource(mr.Switch, mr.Meter)
		m := s.meter(mr)
		if m == nil {
			continue
		}
		if excess := s.alloc.DemandSum(r) - m.RateBps; excess > m.RateBps*0.001 {
			overdriven = true
			m.ThrottledBps = excess
		} else {
			m.ThrottledBps = 0
		}
	}

	initial := s.cfg.TCP.InitialRate()
	switch {
	case overdriven:
		// The policer is dropping: back off from the achieved rate.
		f.demandCap = math.Max(f.rate/2, initial)
		f.caMode = true
	case f.rate >= s.currentDemand(f)*0.95:
		// Demand-limited: grow.
		if f.caMode {
			f.demandCap += float64(s.cfg.TCP.MSS*8) / s.cfg.TCP.RTT.Seconds()
		} else {
			f.demandCap *= 2
		}
	}
	s.alloc.SetDemand(f.allocSlot, s.currentDemand(f))
	s.recomputeAndApply()
	if f.state == StateActive {
		s.scheduleRamp(f)
	}
}

// meter dereferences a meter ref against the owning switch.
func (s *Simulator) meter(mr dataplane.MeterRef) *openflow.Meter {
	sw := s.net.Switch(mr.Switch)
	if sw == nil {
		return nil
	}
	return sw.Meters.Get(mr.Meter)
}

// markDirty queues a flow for batched re-resolution at the current
// instant; walk says the trigger can change the flow's path (see
// handleResolveBatch).
func (s *Simulator) markDirty(f *Flow, walk bool) {
	if f.state == StateDone {
		return
	}
	f.rewalk = f.rewalk || walk
	if f.dirty {
		return
	}
	f.dirty = true
	s.dirty = append(s.dirty, f)
	if !s.batchPending {
		s.batchPending = true
		s.sched(event{at: s.k.Now(), kind: evResolveBatch})
	}
}

// markSwitchDirty queues every flow parked at or traversing a switch for
// a walk. After a FlowAdd whose match has EthDst *dst, only lookups of
// that destination can change: a path rewrites no header but the VLAN,
// and an add only inserts an entry or replaces one of the same match. So
// an active flow to another destination whose last walk raised no
// PacketIn is queued without a walk.
func (s *Simulator) markSwitchDirty(sw netgraph.NodeID, dst *header.MAC) {
	for _, r := range s.waiting[sw] {
		s.markDirty(r.f, true)
	}
	for _, r := range s.flowsAt[sw] {
		s.markDirty(r.f, dst == nil || r.f.Key.EthDst == *dst || r.f.punting)
	}
}

// handleResolveBatch re-resolves all dirty flows in ID order: it walks
// every flow a trigger can redirect and every flow not active, and
// readmits the rest on their stored paths. Marks made while the batch
// runs go to the next batch, as do the flows they name.
func (s *Simulator) handleResolveBatch() {
	s.batchPending = false
	batch := s.dirty
	s.dirty = s.dirtySpare[:0]
	for _, f := range batch {
		f.dirty = false
	}
	slices.SortFunc(batch, byID)
	for _, f := range batch {
		if f.state == StateDone {
			s.release(f) // finalized while marked: finalize left it to us
			continue
		}
		if f.rewalk || f.state != StateActive {
			f.rewalk = false
			s.resolve(f)
		} else {
			s.activate(f, nil)
		}
	}
	clear(batch)
	s.dirtySpare = batch[:0]
}

// Applied implements Attachment: flows at the switch re-resolve against
// the new rules — after a FlowAdd matching an EthDst, without a walk for
// most (markSwitchDirty). A MeterMod also re-caps the meter's resource; a
// PacketOut releases the buffered first packets of the flows it names,
// which retry resolution (rules installed alongside typically complete
// them).
func (s *Simulator) Applied(msg openflow.Message) {
	dp := msg.Datapath()
	switch m := msg.(type) {
	case *openflow.FlowMod:
		if m.Op == openflow.FlowAdd && m.Match.Has(header.FieldEthDst) {
			s.markSwitchDirty(dp, &m.Match.EthDst)
		} else {
			s.markSwitchDirty(dp, nil)
		}
	case *openflow.GroupMod:
		s.markSwitchDirty(dp, nil)
	case *openflow.MeterMod:
		r := s.meterResource(dp, m.MeterID)
		switch m.Op {
		case openflow.MeterAdd, openflow.MeterModify:
			s.alloc.SetCapacity(r, m.RateBps)
		case openflow.MeterDelete:
			// Flows re-resolve and drop the resource; in the interim the
			// meter no longer polices.
			s.alloc.SetCapacity(r, 1e18)
		}
		s.recomputeAndApply()
		s.markSwitchDirty(dp, nil)
	case *openflow.PacketOut:
		for _, r := range s.waiting[dp] {
			if r.f.Key == m.Key {
				s.markDirty(r.f, true)
			}
		}
	}
}

// AddPortStats implements Attachment from the resource ledgers: bits
// carried so far and the current aggregate rate, per direction.
func (s *Simulator) AddPortStats(reply *openflow.PortStatsReply) {
	s.drainAlloc()
	now := s.k.Now()
	for i := range reply.Stats {
		ps := &reply.Stats[i]
		l := s.topo.LinkAt(reply.Switch, ps.Port)
		tx, rx := &s.ledgers[linkResource(l.ID, l.A == reply.Switch)], &s.ledgers[linkResource(l.ID, l.B == reply.Switch)]
		tx.settle(now)
		rx.settle(now)
		ps.TxBits += tx.bits
		ps.TxRateBps += tx.rate
		ps.RxBits += rx.bits
		ps.RxRateBps += rx.rate
	}
}

// BeforeExpiry implements Attachment. Idle timers must see current usage:
// at flow granularity an entry's LastUsed only advances when a flow
// settles, so every active flow traversing the switch settles first. (A
// real switch updates the timestamp per packet; this is the flow-level
// analogue.)
func (s *Simulator) BeforeExpiry(sw netgraph.NodeID) {
	s.drainAlloc()
	for _, r := range s.flowsAt[sw] {
		if f := r.f; f.state == StateActive && f.rate > 0 {
			s.settleFlow(f)
		}
	}
}

// AfterExpiry implements Attachment: flows at the switch re-resolve
// without the evicted entries.
func (s *Simulator) AfterExpiry(sw netgraph.NodeID) { s.markSwitchDirty(sw, nil) }

// LinkFlipped implements Attachment: the link's capacity re-applies, and
// the flows at either end re-resolve — among them every flow crossing the
// link, since a hop's egress link is attached to the hop's switch (their
// entries may now pick live group buckets, or blackhole). A recovered
// link can also unblock waiting flows anywhere (e.g. flood reachability);
// the cheap conservative choice is to retry them all.
func (s *Simulator) LinkFlipped(l *netgraph.Link) {
	s.reapplyLinkCapacity(l)
	s.recomputeAndApply()
	for _, end := range [2]netgraph.NodeID{l.A, l.B} {
		if s.net.Switch(end) != nil {
			s.markSwitchDirty(end, nil)
		}
	}
	if l.Up {
		for _, list := range s.waiting {
			for _, r := range list {
				s.markDirty(r.f, true)
			}
		}
	}
}

// reapplyLinkCapacity pushes a link's current effective capacity — zero
// while down, otherwise bandwidth scaled by the installed model's
// RateScale at now — into the allocator, per direction.
func (s *Simulator) reapplyLinkCapacity(l *netgraph.Link) {
	for _, fwd := range []bool{true, false} {
		c := 0.0
		if l.Up {
			c = l.BandwidthBps * s.links.RateScale(l.ID, fwd, s.k.Now())
		}
		s.alloc.SetCapacity(linkResource(l.ID, fwd), c)
	}
}

// BeforeLinkModel implements Attachment; the flow engine has nothing in
// flight to settle.
func (s *Simulator) BeforeLinkModel(netgraph.LinkID) {}

// AfterPlaneEvent implements Attachment; the flow engine leaves nothing
// for the end of a dispatch.
func (s *Simulator) AfterPlaneEvent() {}

// AfterLinkModel implements Attachment: the link's effective capacity
// re-applies at once, crossing flows refresh their Mathis loss caps, and
// a time-varying model arms a rate-step timer. A link inside a scripted
// outage keeps capacity 0 until it recovers, when the model's scale
// applies.
func (s *Simulator) AfterLinkModel(id netgraph.LinkID) {
	s.modelGen[id]++
	s.reapplyLinkCapacity(s.topo.Link(id))
	for _, f := range s.flows {
		if f.state != StateActive {
			continue
		}
		crosses := false
		for _, r := range f.resources {
			if link, _, ok := s.ResourceLinkDir(r); ok && link == id {
				crosses = true
				break
			}
		}
		if !crosses {
			continue
		}
		s.refreshPathLoss(f)
		s.alloc.SetDemand(f.allocSlot, s.currentDemand(f))
	}
	s.recomputeAndApply()
	s.armRateStep(id)
}

// armRateStep schedules the next fair-share capacity re-application for
// a link carrying a time-varying model (AdaptiveRate), aligned to the
// model's coherence-window boundaries. The timer invalidates itself
// through modelGen when the link's model changes, and — like the stats
// tick — only reschedules while other work remains, so a lone stepping
// timer cannot keep an open-ended run alive.
func (s *Simulator) armRateStep(id netgraph.LinkID) {
	every := s.links.StepEvery(id, true)
	if b := s.links.StepEvery(id, false); b > every {
		every = b
	}
	if every <= 0 {
		return
	}
	gen := s.modelGen[id]
	at := simtime.Time((uint64(s.k.Now())/uint64(every) + 1) * uint64(every))
	s.plane.After(at.Sub(s.k.Now()), func() {
		if s.modelGen[id] != gen {
			return
		}
		s.reapplyLinkCapacity(s.topo.Link(id))
		s.recomputeAndApply()
		if s.k.Len() > 0 {
			s.armRateStep(id)
		}
	})
}

// SwitchCrashed implements Attachment. The crash voids whatever the
// controller did (or was doing) for flows punted at the switch — a FlowMod
// in flight dies with the tables — so their PacketIn dedup forgets it (a
// post-restart punt announces itself afresh), and the flows at the switch
// re-resolve.
func (s *Simulator) SwitchCrashed(sw netgraph.NodeID) {
	for _, list := range s.waiting {
		for _, r := range list {
			if i := slices.Index(r.f.puntedAt, sw); i >= 0 {
				r.f.puntedAt = slices.Delete(r.f.puntedAt, i, i+1)
			}
		}
	}
	s.markSwitchDirty(sw, nil)
}

// ControllerReattached implements Attachment: waiting flows re-announce.
// Their original PacketIns may have been lost while detached, so the dedup
// sets clear and the flows re-resolve (a still-missing rule re-punts with
// a fresh PacketIn, like a switch re-punting on reconnect).
func (s *Simulator) ControllerReattached() {
	for _, list := range s.waiting {
		for _, r := range list {
			r.f.puntedAt = r.f.puntedAt[:0]
			s.markDirty(r.f, true)
		}
	}
}

// handleStatsTick samples link utilization and reschedules itself.
func (s *Simulator) handleStatsTick() {
	s.drainAlloc()
	for _, l := range s.topo.Links() {
		for _, fwd := range []bool{true, false} {
			r := linkResource(l.ID, fwd)
			rate := s.alloc.ResourceUsage(r)
			frac := 0.0
			if l.Up && l.BandwidthBps > 0 {
				frac = rate / l.BandwidthBps
			}
			s.col.AddLinkSample(stats.LinkSample{
				At: s.k.Now(), Link: l.ID, Forward: fwd, RateBps: rate, UsedFrac: frac,
			})
		}
	}
	// Reschedule only while the simulation still has work: a lone stats
	// tick must not keep an open-ended Run alive forever.
	if s.k.Len() > 0 {
		s.sched(event{at: s.k.Now().Add(s.cfg.StatsEvery), kind: evStatsTick})
	}
}
