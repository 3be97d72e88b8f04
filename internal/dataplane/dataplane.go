// Package dataplane executes the forwarding pipeline of Horse switches. A
// Switch owns its OpenFlow state (flow tables, groups, meters); the package
// also provides the path walk that resolves where a data flow travels
// through the topology, which switches punt it to the controller, which
// meters police it, and which flow entries account for it.
package dataplane

import (
	"fmt"

	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simtime"
)

// MissBehavior is what a switch does with a flow that misses every table
// entry. OpenFlow 1.3 models this with an explicit table-miss entry; Horse
// makes the common configurations first-class.
type MissBehavior uint8

// Miss behaviors.
const (
	// MissDrop silently discards unmatched flows (the protocol default).
	MissDrop MissBehavior = iota
	// MissController punts unmatched flows to the controller (reactive
	// forwarding).
	MissController
)

// NumTables is the pipeline depth of every Horse switch. Multiple tables
// let policies compose without rule cross-products (e.g. table 0 for ACL /
// blackholing, table 1 for forwarding).
const NumTables = 4

// Switch is the data-plane state of one forwarding element.
type Switch struct {
	Node   netgraph.NodeID
	Tables [NumTables]*openflow.FlowTable
	Groups *openflow.GroupTable
	Meters *openflow.MeterTable
	Miss   MissBehavior

	// PacketIns counts punts to the controller.
	PacketIns uint64

	// gen advances whenever anything Process reads may have changed:
	// Apply, ExpireEntries and Reset bump it themselves, and the engines
	// call Invalidate when a port of this switch changes liveness. The
	// tables, groups and meters must not be mutated any other way
	// (TestStateMutatesOnlyBehindGen scans the module for it).
	gen uint64
}

// NewSwitch returns an initialized switch for the given topology node.
func NewSwitch(node netgraph.NodeID, miss MissBehavior) *Switch {
	s := &Switch{Node: node, Groups: openflow.NewGroupTable(), Meters: openflow.NewMeterTable(), Miss: miss}
	for i := range s.Tables {
		s.Tables[i] = openflow.NewFlowTable()
	}
	return s
}

// Reset wipes every piece of OpenFlow state — flow tables, groups, meters
// — modeling a switch crash: a restarted switch comes back with empty
// tables and must be re-programmed by the controller.
func (s *Switch) Reset() {
	s.gen++
	for i := range s.Tables {
		s.Tables[i] = openflow.NewFlowTable()
	}
	s.Groups = openflow.NewGroupTable()
	s.Meters = openflow.NewMeterTable()
}

// Gen returns the switch's decision generation. A Decision computed by
// Process stays valid for its key exactly as long as Gen is unchanged,
// which is what lets the packet engine memoize per-flow decisions.
func (s *Switch) Gen() uint64 { return s.gen }

// Invalidate advances Gen for a change outside the OpenFlow state that
// Process depends on — a port of this switch going up or down (group
// bucket liveness).
func (s *Switch) Invalidate() { s.gen++ }

// Apply executes a FlowMod/GroupMod/MeterMod against the switch state at
// time now. It returns an error for malformed messages (unknown table,
// reserved IDs); the simulator surfaces these as controller bugs.
func (s *Switch) Apply(msg openflow.Message, now simtime.Time) error {
	s.gen++
	switch m := msg.(type) {
	case *openflow.FlowMod:
		if int(m.Table) >= NumTables {
			return fmt.Errorf("dataplane: switch %d has no table %d", s.Node, m.Table)
		}
		t := s.Tables[m.Table]
		switch m.Op {
		case openflow.FlowAdd:
			t.Add(&openflow.FlowEntry{
				Priority:    m.Priority,
				Match:       m.Match,
				Instr:       m.Instr,
				IdleTimeout: m.IdleTimeout,
				HardTimeout: m.HardTimeout,
				Cookie:      m.Cookie,
			}, now)
		case openflow.FlowDelete:
			t.Delete(m.Match, m.Cookie)
		case openflow.FlowDeleteStrict:
			t.DeleteStrict(m.Match, m.Priority)
		}
		return nil
	case *openflow.GroupMod:
		switch m.Op {
		case openflow.GroupAdd, openflow.GroupModify:
			return s.Groups.Add(&openflow.Group{ID: m.GroupID, Type: m.Type, Buckets: m.Buckets})
		case openflow.GroupDelete:
			s.Groups.Delete(m.GroupID)
		}
		return nil
	case *openflow.MeterMod:
		switch m.Op {
		case openflow.MeterAdd, openflow.MeterModify:
			return s.Meters.Add(&openflow.Meter{ID: m.MeterID, RateBps: m.RateBps})
		case openflow.MeterDelete:
			s.Meters.Delete(m.MeterID)
		}
		return nil
	}
	return fmt.Errorf("dataplane: switch %d cannot apply %T", s.Node, msg)
}

// FlowStats builds the reply to a flow-stats request by filtering the
// switch's table entries with the request match (a zero match on table 0
// selects every entry of every table). Both the flow-level and the
// packet-level engine answer stats requests through this one builder, so
// counter semantics cannot drift between fidelities.
func (s *Switch) FlowStats(req *openflow.FlowStatsRequest, now simtime.Time) *openflow.FlowStatsReply {
	reply := &openflow.FlowStatsReply{Switch: req.Switch, At: now}
	tables := []openflow.TableID{req.Table}
	if req.Table == 0 && req.Match == (header.Match{}) {
		tables = tables[:0]
		for i := 0; i < NumTables; i++ {
			tables = append(tables, openflow.TableID(i))
		}
	}
	for _, tid := range tables {
		for _, e := range s.Tables[tid].Entries() {
			if req.Match != (header.Match{}) && !req.Match.Subsumes(e.Match) {
				continue
			}
			reply.Stats = append(reply.Stats, openflow.FlowStats{
				Table:    tid,
				Priority: e.Priority,
				Match:    e.Match,
				Cookie:   e.Cookie,
				Packets:  e.Packets,
				Bytes:    e.Bytes,
				Duration: now.Sub(e.Installed),
			})
		}
	}
	return reply
}

// NextExpiry returns the earliest pending flow-entry timeout across the
// switch's tables, or simtime.Never when nothing can expire.
func (s *Switch) NextExpiry() simtime.Time {
	next := simtime.Never
	for _, t := range s.Tables {
		if x := t.NextExpiry(); x < next {
			next = x
		}
	}
	return next
}

// ExpireEntries evicts every entry whose hard or idle timeout has passed
// at now and returns the FlowRemoved notifications describing them. Both
// engines expire through this one helper, so timeout semantics and
// notification contents cannot drift between fidelities.
func (s *Switch) ExpireEntries(now simtime.Time) []*openflow.FlowRemoved {
	var removed []*openflow.FlowRemoved
	s.gen++
	for tid, t := range s.Tables {
		for _, e := range t.Expire(now) {
			idle := e.IdleTimeout > 0 && now >= e.LastUsed.Add(e.IdleTimeout)
			removed = append(removed, &openflow.FlowRemoved{
				Switch: s.Node, Table: openflow.TableID(tid),
				Match: e.Match, Priority: e.Priority, Cookie: e.Cookie,
				Packets: e.Packets, Bytes: e.Bytes, Idle: idle,
			})
		}
	}
	return removed
}

// Decision is the outcome of running one flow through one switch pipeline.
type Decision struct {
	// Out is the chosen unicast output port (NoPort if none).
	Out netgraph.PortNum
	// ToController indicates a punt (table miss under MissController, or
	// an explicit output:controller action).
	ToController bool
	// Drop indicates the flow is discarded here.
	Drop bool
	// Flood indicates the flow's first packet is flooded.
	Flood bool
	// Miss indicates no entry matched in the first table (distinguishes
	// reactive punts from explicit ones).
	Miss bool
	// Meters lists meters the flow passes through, in order.
	Meters []openflow.MeterID
	// Entries lists every flow entry the flow matched, pipeline order.
	Entries []*openflow.FlowEntry
	// Key is the (possibly rewritten) flow key leaving the switch.
	Key header.FlowKey
}

// PortLive is a switch's port-liveness oracle for group liveness: a port
// is live if its link exists and is up. The zero value reports every port
// live.
type PortLive struct {
	topo *netgraph.Topology
	node netgraph.NodeID
}

// Live reports whether port p currently has an up link.
func (l PortLive) Live(p netgraph.PortNum) bool {
	if l.topo == nil {
		return true
	}
	link := l.topo.LinkAt(l.node, p)
	return link != nil && link.Up
}

// Process runs key through the switch pipeline starting at table 0.
func (s *Switch) Process(key header.FlowKey, live PortLive) Decision {
	var d Decision
	s.process(&d, key, live)
	return d
}

// ProcessInto is Process into d, reusing the storage of d's Entries and
// Meters: a caller that decides key after key allocates nothing once the
// two lists have grown. The lists stay valid until d is decided again.
func (s *Switch) ProcessInto(d *Decision, key header.FlowKey, live PortLive) {
	d.Entries, d.Meters = d.Entries[:0], d.Meters[:0]
	s.process(d, key, live)
}

// process is Process into d, appending the matched entries and meters to
// whatever d.Entries and d.Meters already hold (the path walk passes its
// accumulators to avoid a slice per hop); every other field is reset.
func (s *Switch) process(d *Decision, key header.FlowKey, live PortLive) {
	*d = Decision{Out: netgraph.NoPort, Key: key, Entries: d.Entries, Meters: d.Meters}
	table := openflow.TableID(0)
	for {
		e := s.Tables[table].Lookup(d.Key)
		if e == nil {
			// Table miss. If an earlier table already produced an output
			// decision, it stands; otherwise the switch-level miss
			// behavior applies (per-table miss entries collapse to one
			// policy in Horse).
			if d.Out == netgraph.NoPort && !d.Flood && !d.ToController {
				d.Miss = true
				if s.Miss == MissController {
					d.ToController = true
					s.PacketIns++
				} else {
					d.Drop = true
				}
			}
			return
		}
		d.Entries = append(d.Entries, e)
		if e.Instr.Meter != 0 {
			d.Meters = append(d.Meters, e.Instr.Meter)
		}
		s.applyActions(e.Instr.Actions, d, live)
		if d.Drop {
			return
		}
		if e.Instr.HasGoto && e.Instr.GotoTable > table && int(e.Instr.GotoTable) < NumTables {
			table = e.Instr.GotoTable
			continue
		}
		return
	}
}

func (s *Switch) applyActions(actions []openflow.Action, d *Decision, live PortLive) {
	for _, a := range actions {
		switch a.Type {
		case openflow.ActionOutput:
			switch a.Port {
			case openflow.PortController:
				d.ToController = true
				s.PacketIns++
			case openflow.PortFlood:
				d.Flood = true
			case openflow.PortDrop:
				d.Drop = true
				d.Out = netgraph.NoPort
				return
			default:
				d.Out = a.Port
			}
		case openflow.ActionGroup:
			g := s.Groups.Get(a.Group)
			if g == nil {
				d.Drop = true
				return
			}
			var liveBucket func(*openflow.Bucket) bool
			if live.topo != nil {
				liveBucket = func(b *openflow.Bucket) bool {
					return b.WatchPort == netgraph.NoPort || live.Live(b.WatchPort)
				}
			}
			b := g.SelectBucket(d.Key.SymmetricHash(), liveBucket)
			if b == nil {
				d.Drop = true
				return
			}
			s.applyActions(b.Actions, d, live)
			if d.Drop {
				return
			}
		case openflow.ActionSetVLAN:
			d.Key.VLAN = a.VLAN
		case openflow.ActionPopVLAN:
			d.Key.VLAN = 0
		}
	}
}
