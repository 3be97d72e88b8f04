package packetsim

import (
	"math"

	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simcore"
	"horse/internal/simtime"
	"horse/internal/stats"
)

// trySend lets a flow emit as many packets as its window (TCP) or schedule
// (CBR) currently allows.
func (s *Simulator) trySend(f *pktFlow) {
	if f.srcDead || f.senderStopped {
		return
	}
	if !f.started {
		f.started = true
		s.col.FlowsStarted++
	}
	if f.demand.Duration > 0 && s.k.Now() >= f.deadline() {
		// Deadline passed for an open-ended flow: the sender stops and
		// dates the completion candidate (the receiver side needs no
		// notification — its own candidates can only be later).
		s.senderStop(f)
		return
	}
	if f.tcp {
		for f.nextSeq < f.packets && float64(f.inFlight) < f.cwnd {
			s.emit(f, f.nextSeq, false)
			f.nextSeq++
			f.inFlight++
		}
		s.armRTO(f)
		return
	}
	// CBR: one packet now, next one an interval later.
	if f.nextSeq < f.packets {
		s.emit(f, f.nextSeq, false)
		f.nextSeq++
		if f.nextSeq < f.packets {
			interval := f.cbrInterval
			if interval <= 0 {
				interval = simtime.TransferTime(DataPacketBits, 1e9)
			}
			s.sched(event{at: s.k.Now().Add(interval), kind: evSend, flow: f})
		}
	}
}

// senderStop ends the sending side at its deadline: the completion
// candidate is dated now, emissions cease, and pending RTO timers die.
func (s *Simulator) senderStop(f *pktFlow) {
	if f.senderStopped {
		return
	}
	f.senderStopped = true
	f.deadlineDoneAt = s.k.Now()
	f.rtoGen++ // backstop
	s.k.Cancel(f.rto)
	f.rto = simcore.Timer{}
	// The deadline candidate may be the last event this flow ever sees
	// (no packets in flight): queue a finalize check.
	s.noteFin(f)
}

// emit injects a packet at the flow's source host.
func (s *Simulator) emit(f *pktFlow, seq int, retrans bool) {
	f.sentBits += DataPacketBits
	dir := s.hostTx[f.demand.Src]
	if dir < 0 {
		f.srcDead = true
		return
	}
	s.col.PacketsSent++
	if retrans {
		s.col.Retransmits++
	}
	// The packet is born: live until deliver consumes it or dropPacket
	// accounts its death (every loss path funnels through one of them).
	s.liveBy[f.idx]++
	p := s.packets.get()
	*p = packet{flow: f, seq: seq, bits: DataPacketBits, retrans: retrans, vlan: f.demand.Key.VLAN}
	// Host NIC → switch: enqueue on the host's side of the access link.
	s.enqueue(p, dir)
}

// sendAck emits the receiver's cumulative ACK from the destination host.
func (s *Simulator) sendAck(f *pktFlow) {
	ack := s.packets.get()
	*ack = packet{flow: f, ack: true, ackSeq: f.recvNext, bits: AckPacketBits, vlan: f.demand.Key.VLAN}
	s.liveBy[f.idx]++
	s.enqueue(ack, s.hostTx[f.demand.Dst])
}

// enqueue places a packet on an output direction's drop-tail FIFO. A FIFO
// port with a known rate fixes every frame's departure the moment it joins
// the queue — it starts when the frame ahead of it ends, or now on an idle
// port — so its arrival at the far end is scheduled here and the
// transmitter costs no event of its own. Rate changes re-time the frames
// that have not started yet (retime).
func (s *Simulator) enqueue(p *packet, dir int32) {
	if dir < 0 {
		s.dropPacket(p)
		return
	}
	op := s.ports[dir]
	if op == nil {
		l := s.dirLink(dir)
		op = &outPort{link: l, from: dirFromNode(l, dir), delay: max(l.Delay, simtime.Nanosecond)}
		op.to, op.toPort = l.Peer(op.from)
		op.toHost = s.topo.Node(op.to).Kind == netgraph.KindHost
		s.ports[dir] = op
	}
	if !op.link.Up {
		// Offered to a dead link: lost until recovery (TCP senders RTO).
		s.losePacket(p)
		return
	}
	s.settle(dir, op)
	if op.n >= s.cfg.QueuePackets {
		op.dropped++
		s.dropPacket(p)
		return
	}
	start := s.k.Now()
	if op.n > 0 {
		start = op.at(op.n - 1).end
	}
	end := start.Add(simtime.TransferTime(p.bits, s.txRate(dir, op, start)))
	op.push(txFrame{p: p, end: end})
	s.schedArrival(p, dir, end.Add(op.delay))
}

// settle retires the frames that have left dir: every one whose
// serialization ended before now, and one ending exactly now if the
// event being dispatched orders after the instant's departure position
// (txDoneKey) or nothing is being dispatched (every event of the instant
// has fired). That is the queue the two-event transmitter held at this
// point of the instant, so every reader of the port — enqueue, stats
// sampling, port-stats replies, a failure, a rate or model change,
// Finish — settles first. Retiring counts the frame's bits and draws its
// corruption verdict, once per frame in departure order.
func (s *Simulator) settle(dir int32, op *outPort) {
	now := s.k.Now()
	for op.n > 0 {
		if end := op.at(0).end; end > now || (end == now && !s.departedNow(dir)) {
			return
		}
		f := op.pop()
		s.txBits[dir] += f.p.bits
		if !s.links.Empty() && s.links.Corrupt(netgraph.LinkID(dir>>1), dir&1 == 0) {
			// Counted apart from outage loss, then dropped like any other
			// loss at its departure instant (TCP recovers it via dup-ACKs
			// or RTO; UDP resolves the packet where it died).
			f.p.dead = true
			s.col.PacketsCorrupted++
			s.dropAt(f.p, f.end)
		}
	}
}

// departedNow reports whether a frame of dir whose serialization ends
// exactly now has left, per the rule in settle.
func (s *Simulator) departedNow(dir int32) bool {
	key, dispatching := s.k.DispatchKey()
	return !dispatching || key > txDoneKey(dir)
}

// retime re-derives the departures of the frames queued behind the one in
// service after one of dir's rate inputs changed (external load, link
// model): each starts when the frame ahead ends, at the rate in effect
// then. A frame whose departure moves gets a fresh copy with a new
// arrival; the original dies, and its old arrival frees it.
func (s *Simulator) retime(dir int32) {
	op := s.ports[dir]
	if op == nil {
		return
	}
	s.settle(dir, op)
	for i := 1; i < op.n; i++ {
		f, start := op.at(i), op.at(i-1).end
		end := start.Add(simtime.TransferTime(f.p.bits, s.txRate(dir, op, start)))
		if end == f.end {
			continue
		}
		moved := s.packets.get()
		*moved = *f.p
		f.p.dead = true
		f.p, f.end = moved, end
		s.schedArrival(f.p, dir, end.Add(op.delay))
	}
}

// minResidualFrac floors the residual capacity a hybrid-coupled
// transmitter sees at 1% of line rate, so a flow-level background that
// saturates a link slows foreground packets sharply instead of freezing
// them (the allocator does not see packet flows, so they live on
// leftovers).
const minResidualFrac = 0.01

// txRate returns the rate of a frame starting on dir at start: line rate
// scaled by the direction's link model (rate adaptation) minus any
// flow-level load the hybrid coupler reported for it. RateScale is pure
// in time, so it is evaluated at the frame's start whenever that is.
func (s *Simulator) txRate(dir int32, op *outPort, start simtime.Time) float64 {
	bw := op.link.BandwidthBps
	if !s.links.Empty() {
		bw *= s.links.RateScale(netgraph.LinkID(dir>>1), dir&1 == 0, start)
	}
	if load := s.extLoad[dir]; load > 0 {
		bw = max(bw-load, bw*minResidualFrac)
	}
	return bw
}

// SetExternalLoad informs the transmitter for one link direction that an
// external (flow-level) load occupies the link, so serialization sees only
// the residual capacity. The hybrid coupler calls it whenever fair-share
// rates shift by more than the configured epsilon; bps <= 0 clears the
// load. The frame in service keeps its finish time; the ones queued
// behind it are re-timed to the new rate.
func (s *Simulator) SetExternalLoad(link netgraph.LinkID, forward bool, bps float64) {
	dir := int32(link) << 1
	if !forward {
		dir |= 1
	}
	bps = max(bps, 0)
	if s.extLoad[dir] == bps {
		return
	}
	s.extLoad[dir] = bps
	s.retime(dir)
}

// schedArrival schedules a frame's arrival at the far end of dir. The
// event carries the direction's epoch at enqueue; a link failure before
// delivery either catches the frame still queued or serializing (the
// flush loses it then and marks it dead) or bumps the epoch so it is lost
// mid-propagation.
func (s *Simulator) schedArrival(p *packet, dir int32, at simtime.Time) {
	s.sched(event{at: at, kind: evArriveNode, pkt: p, dir: dir, gen: s.linkEpoch[dir]})
}

// memoSlot is one remembered forward decision of a switch: "packets of
// this flow direction carrying this VLAN match e0 (then e1) and leave on
// port out, VLAN unchanged". Only such plain unicast decisions are kept —
// no punt, drop, flood or VLAN rewrite, at most two matched entries, whose
// own Instr.Meter fields are the decision's meters. A switch's slots are
// valid for the dataplane.Switch.Gen recorded in memoGen and are wiped
// when it moves, so a hit is exactly what Process would return.
type memoSlot struct {
	e0, e1 *openflow.FlowEntry // e0 == nil: empty slot
	tag    uint32              // flow index<<1 | ack bit
	vlan   uint16
	out    uint16
}

// memoSlots is the direct-mapped memo size per switch: 64 slots of 24
// bytes is one 1536-byte object per switch that forwards. On a k=8
// fat-tree at ~250 concurrent flows that is an 86 % hit rate (128 slots:
// 95 %), and the memo is already ~3 % of that run's live heap.
const (
	memoBits  = 6
	memoSlots = 1 << memoBits
)

func memoTag(p *packet) uint32 {
	tag := uint32(p.flow.idx) << 1
	if p.ack {
		tag |= 1
	}
	return tag
}

// memoIndex spreads tags by a Fibonacci hash down to memoBits bits
// (flows active together at one switch are neither consecutive nor evenly
// split between data and ACK, so the low tag bits collide twice as often).
func memoIndex(tag uint32, vlan uint16) uint32 {
	return ((tag ^ uint32(vlan)<<7) * 0x9E3779B1) >> (32 - memoBits)
}

// forward runs the switch pipeline for a packet and acts on the decision.
// buffered marks the re-processing of a punt-buffered packet after a rule
// install; such a packet that still punts stays parked silently (the
// controller already holds its PacketIn) — forward then returns false.
// Buffered packets never touch the memo: they are rare, and their
// stay-parked path must not account a decision.
func (s *Simulator) forward(p *packet, node netgraph.NodeID, in netgraph.PortNum, buffered bool) bool {
	sw := s.switches[node]
	if sw == nil {
		s.dropPacket(p)
		return true
	}
	tag := memoTag(p)
	memo := s.memo[node]
	if memo != nil && !buffered {
		if gen := sw.Gen(); s.memoGen[node] != gen {
			*memo = [memoSlots]memoSlot{}
			s.memoGen[node] = gen
		} else if m := &memo[memoIndex(tag, p.vlan)]; m.e0 != nil && m.tag == tag && m.vlan == p.vlan {
			s.hitEntry(m.e0, p)
			if m.e1 != nil {
				s.hitEntry(m.e1, p)
			}
			if !s.meterAdmit(node, m.e0.Instr.Meter, p.bits) ||
				(m.e1 != nil && !s.meterAdmit(node, m.e1.Instr.Meter, p.bits)) {
				s.dropPacket(p)
				return true
			}
			s.enqueue(p, s.dirFrom(node, netgraph.PortNum(m.out)))
			return true
		}
	}
	key := s.keyOf(p)
	d := sw.Process(key, s.net.PortLiveFunc(node))
	if buffered && d.ToController && !d.Drop && s.controlActive() {
		// Still no verdict for a parked packet: stay parked with no
		// duplicate PacketIn — and no duplicate accounting, or every
		// unrelated FlowMod would inflate matched-entry counters and
		// keep idle timeouts alive for a packet that never forwarded.
		return false
	}
	if !buffered && d.Out != netgraph.NoPort && !d.ToController && !d.Drop && !d.Flood &&
		len(d.Entries) > 0 && len(d.Entries) <= 2 && d.Key.VLAN == p.vlan && d.Out <= math.MaxUint16 {
		if memo == nil {
			memo = new([memoSlots]memoSlot)
			s.memo[node] = memo
			s.memoGen[node] = sw.Gen()
		}
		m := memoSlot{e0: d.Entries[0], tag: tag, vlan: p.vlan, out: uint16(d.Out)}
		if len(d.Entries) == 2 {
			m.e1 = d.Entries[1]
		}
		memo[memoIndex(tag, p.vlan)] = m
	}
	// Per-packet entry accounting: counters feed FlowStats replies and
	// LastUsed drives idle timeouts — the packet-granular analogue of the
	// flow engine's settle-time updates.
	for _, e := range d.Entries {
		s.hitEntry(e, p)
	}
	// Token-bucket policing for any meters on the matched entries.
	for _, mid := range d.Meters {
		if !s.meterAdmit(node, mid, p.bits) {
			s.dropPacket(p)
			return true
		}
	}
	switch {
	case d.Drop:
		s.dropPacket(p)
	case d.ToController:
		if !s.controlActive() {
			// No control plane: punts count and drop (the E3 baseline).
			if !buffered {
				s.puntsBy[p.flow.idx]++
			}
			s.dropPacket(p)
			return true
		}
		s.puntsBy[p.flow.idx]++
		s.puntPacket(p, node, in, d.Miss)
	case d.Flood:
		s.dropPacket(p) // flooding unsupported at packet granularity
	case d.Out != netgraph.NoPort:
		p.vlan = d.Key.VLAN
		s.enqueue(p, s.dirFrom(node, d.Out))
	default:
		s.dropPacket(p)
	}
	return true
}

// hitEntry accounts one packet against a matched flow entry.
func (s *Simulator) hitEntry(e *openflow.FlowEntry, p *packet) {
	e.Packets++
	e.Bytes += uint64(p.bits / 8)
	e.LastUsed = s.k.Now()
}

// keyOf returns the header key of a packet: the demand's (reversed for
// ACKs) with the VLAN the packet carries after upstream rewrites.
func (s *Simulator) keyOf(p *packet) header.FlowKey {
	k := p.flow.demand.Key
	if p.ack {
		k = k.Reverse()
	}
	k.VLAN = p.vlan
	return k
}

// deliver handles a packet reaching a host — for data packets, the flow's
// receiver side, whose state nothing else writes.
func (s *Simulator) deliver(p *packet, host netgraph.NodeID) {
	f := p.flow
	// The packet ends its life here on every path below (any ACK it
	// spawns is a new birth); its flow may now be finalizable.
	s.liveBy[f.idx]--
	s.noteFin(f)
	if p.ack {
		if host == f.demand.Src {
			s.handleAck(f, p.ackSeq)
		}
		return
	}
	if host != f.demand.Dst {
		return
	}
	if f.tcp {
		if f.recvDoneAt != simtime.Never {
			// Duplicate after full receive (a retransmission crossed the
			// final ACK): re-ACK so the sender quiesces. Real TCP does
			// exactly this; the sender learns completion only from the
			// ACK stream.
			s.sendAck(f)
			return
		}
		// Receiver: cumulative ACK bookkeeping.
		f.received[p.seq] = true
		for f.received[f.recvNext] {
			delete(f.received, f.recvNext)
			f.recvNext++
		}
		s.sendAck(f)
		if f.recvNext >= f.packets {
			f.recvDoneAt = s.k.Now()
		}
		return
	}
	// UDP/CBR: each data packet resolves exactly once (delivered here or
	// dropped wherever it died); completion is "every packet resolved",
	// dated by the last resolution.
	s.resolveUDP(f, s.k.Now())
}

// resolveUDP accounts one UDP data packet reaching its end of life at
// instant at (delivery at the receiver or a drop anywhere en route). A
// corruption can be dated before resolutions already accounted (see
// settle), so the last resolution is the latest instant, not the latest
// call.
func (s *Simulator) resolveUDP(f *pktFlow, at simtime.Time) {
	s.udpRes[f.idx]++
	s.udpLast[f.idx] = max(s.udpLast[f.idx], at)
}

// handleAck advances the TCP sender.
func (s *Simulator) handleAck(f *pktFlow, ackSeq int) {
	if f.srcDead || f.senderStopped {
		return
	}
	if ackSeq > f.sendBase {
		acked := ackSeq - f.sendBase
		f.sendBase = ackSeq
		f.inFlight -= acked
		if f.inFlight < 0 {
			f.inFlight = 0
		}
		f.dupAcks = 0
		// Slow start or congestion avoidance.
		for i := 0; i < acked; i++ {
			if f.cwnd < f.ssthresh {
				f.cwnd++
			} else {
				f.cwnd += 1 / f.cwnd
			}
		}
		s.armRTO(f)
		s.trySend(f)
		return
	}
	if f.sendBase >= f.packets {
		return // post-completion duplicate; the transfer is fully acked
	}
	// Duplicate ACK.
	f.dupAcks++
	if f.dupAcks == 3 {
		// Fast retransmit + multiplicative decrease.
		f.ssthresh = math.Max(f.cwnd/2, 2)
		f.cwnd = f.ssthresh
		f.dupAcks = 0
		s.emit(f, f.sendBase, true)
		s.armRTO(f)
	}
}

// armRTO (re)schedules the retransmission timer. Every arm removes the
// previous event from the queue outright (true cancellation); the rtoGen
// stamp and dispatch gate stay as a defensive backstop.
func (s *Simulator) armRTO(f *pktFlow) {
	s.k.Cancel(f.rto)
	f.rto = simcore.Timer{}
	if f.inFlight == 0 {
		f.rtoAt = simtime.Never
		f.rtoGen++
		return
	}
	rto := s.cfg.RTOMin
	f.rtoAt = s.k.Now().Add(rto)
	f.rtoGen++
	f.rto = s.schedTimer(event{at: f.rtoAt, kind: evRTO, flow: f, gen: f.rtoGen})
}

// handleRTO retransmits from sendBase with a collapsed window. Callers
// must have validated the event's generation stamp against f.rtoGen (the
// dispatch gate); the final cumulative ACK zeroes inFlight, so a timer
// armed before it can never fire a retransmission afterwards.
func (s *Simulator) handleRTO(f *pktFlow) {
	if f.inFlight == 0 || f.sendBase >= f.packets {
		return
	}
	f.ssthresh = math.Max(f.cwnd/2, 2)
	f.cwnd = 1
	f.inFlight = 1
	f.nextSeq = f.sendBase + 1
	s.emit(f, f.sendBase, true)
	s.armRTO(f)
}

// losePacket accounts for a packet lost to a link or switch failure: it
// counts toward the scenario loss metric and then drops like any other.
func (s *Simulator) losePacket(p *packet) {
	s.col.PacketsLost++
	s.dropPacket(p)
}

// dropPacket accounts for a packet lost now.
func (s *Simulator) dropPacket(p *packet) { s.dropAt(p, s.k.Now()) }

// dropAt accounts for a packet lost at instant at. TCP recovers via
// dup-ACKs/RTO; CBR/UDP losses resolve the packet where it died. A live
// packet is dropped outside any ring and freed here; a dead frame waits
// for its arrival to free it.
func (s *Simulator) dropAt(p *packet, at simtime.Time) {
	f := p.flow
	s.liveBy[f.idx]--
	s.noteFin(f)
	if !p.ack && !f.tcp {
		// Lost ACKs are recovered by later cumulative ACKs or RTO, TCP
		// data by sender-side timers.
		s.resolveUDP(f, at)
	}
	if !p.dead {
		s.packets.put(p)
	}
}

// assemble builds the flow's statistics record, assembling completion
// from the sides' candidates: the earliest of the deadline stop (sender),
// the full receive (receiver), and — for UDP — the last packet resolution
// once every packet is accounted for. final reports whether the record is
// time-invariant — a completed, live-source flow assembles identically
// whenever it is read, so the incremental finalize path may emit and
// evict it mid-run; srcDead and still-running outcomes date their records
// s.k.Now() and must wait for Finish.
func (s *Simulator) assemble(f *pktFlow) (stats.FlowRecord, bool) {
	punts := int(s.puntsBy[f.idx])
	resolved := int64(s.udpRes[f.idx])
	resolvedLast := s.udpLast[f.idx]
	end := simtime.Never
	if f.deadlineDoneAt < end {
		end = f.deadlineDoneAt
	}
	if f.recvDoneAt < end {
		end = f.recvDoneAt
	}
	if !f.tcp && resolved >= int64(f.packets) && resolvedLast < end {
		end = resolvedLast
	}
	completed := end != simtime.Never
	if !completed {
		end = s.k.Now()
	}
	size := f.demand.SizeBits
	if math.IsInf(size, 1) {
		size = f.sentBits
	}
	outcome := "completed"
	switch {
	case f.srcDead:
		outcome = "dropped"
		completed = false
		end = s.k.Now()
	case !completed:
		outcome = "running"
	}
	return stats.FlowRecord{
		ID:        f.id,
		Arrival:   f.arrival,
		End:       end,
		SizeBits:  size,
		SentBits:  f.sentBits,
		Completed: completed,
		Outcome:   outcome,
		Punts:     punts,
	}, outcome == "completed"
}

// senderQuiesced reports that the flow can never emit another packet: its
// source is dead, its deadline stopped it, or the transfer is fully acked
// (TCP) / fully emitted (CBR).
func senderQuiesced(f *pktFlow) bool {
	if f.srcDead || f.senderStopped {
		return true
	}
	if f.tcp {
		return f.sendBase >= f.packets
	}
	return f.nextSeq >= f.packets
}

// noteFin queues a finalize check for f at the end of the current
// dispatch. Duplicates are fine: tryFinalize is idempotent.
func (s *Simulator) noteFin(f *pktFlow) {
	if f.done {
		return
	}
	s.finHints = append(s.finHints, f.idx)
}

// drainFin runs the queued finalize checks.
func (s *Simulator) drainFin() {
	if s.finished || !s.begun || len(s.finHints) == 0 {
		return
	}
	for _, idx := range s.finHints {
		s.tryFinalize(idx)
	}
	s.finHints = s.finHints[:0]
}

// tryFinalize records flow idx the moment its record can no longer
// change — sender quiesced, zero packets live, and a completed outcome —
// and evicts its state. Incomplete flows (srcDead,
// still running at the horizon) date their records at Finish instead.
func (s *Simulator) tryFinalize(idx int32) {
	f := s.flows[idx]
	if f == nil || f.done || !senderQuiesced(f) {
		return
	}
	if s.liveBy[idx] != 0 {
		return
	}
	r, final := s.assemble(f)
	if !final {
		return
	}
	f.done = true
	f.received = nil
	s.flows[idx] = nil
	s.records.Put(int(idx), r)
}

// sampleStats snapshots per-direction throughput state. Utilization is
// approximated by the transmitted bits since the previous sample.
func (s *Simulator) sampleStats() {
	period := s.cfg.StatsEvery.Seconds()
	if period <= 0 {
		return
	}
	for dir := int32(0); int(dir) < len(s.ports); dir++ {
		op := s.ports[dir]
		if op == nil {
			continue
		}
		s.settle(dir, op)
		delta := s.txBits[dir] - s.lastTx[dir]
		rate := delta / period
		frac := 0.0
		if op.link.BandwidthBps > 0 {
			frac = rate / op.link.BandwidthBps
		}
		s.col.AddLinkSample(stats.LinkSample{
			At:      s.k.Now(),
			Link:    op.link.ID,
			Forward: op.link.A == op.from,
			RateBps: rate, UsedFrac: frac,
		})
		s.lastTx[dir] = s.txBits[dir]
	}
}
