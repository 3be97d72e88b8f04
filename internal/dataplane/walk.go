package dataplane

import (
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/openflow"
)

// Terminal says how a path walk ended.
type Terminal uint8

// Walk outcomes.
const (
	// Delivered: the flow reached its destination host over unicast
	// forwarding; Hops describes the full path.
	Delivered Terminal = iota
	// Punted: a switch sent the flow to the controller and has no
	// unicast output for it; the flow waits for control-plane action.
	Punted
	// Dropped: a switch discarded the flow (blackholed, ACL, table-miss
	// drop, or a dead group).
	Dropped
	// Flooded: forwarding relies on flooding; the first packet reaches
	// the destination (if FloodReaches) but there is no sustained path.
	Flooded
	// Looped: the walk revisited a (switch, key) state — a forwarding
	// loop; the paper's "packets do not flow as expected" failure class.
	Looped
	// Stuck: the egress port has no link or the link is down.
	Stuck
)

func (t Terminal) String() string {
	switch t {
	case Delivered:
		return "delivered"
	case Punted:
		return "punted"
	case Dropped:
		return "dropped"
	case Flooded:
		return "flooded"
	case Looped:
		return "looped"
	case Stuck:
		return "stuck"
	}
	return "unknown"
}

// Hop is one switch traversal on a resolved path.
type Hop struct {
	Switch  netgraph.NodeID
	InPort  netgraph.PortNum
	OutPort netgraph.PortNum
	// Link is the egress link (switch→next node).
	Link *netgraph.Link
}

// MeterRef names a meter on a specific switch.
type MeterRef struct {
	Switch netgraph.NodeID
	Meter  openflow.MeterID
}

// PathResult is the resolution of a flow through the network.
type PathResult struct {
	Terminal Terminal
	// Hops is the switch path (valid for Delivered; best-effort prefix
	// otherwise).
	Hops []Hop
	// At is the switch where a non-Delivered terminal occurred.
	At netgraph.NodeID
	// Entries is every flow entry matched along the way, for byte
	// accounting.
	Entries []*openflow.FlowEntry
	// Meters is every meter passed, for policing.
	Meters []MeterRef
	// PacketIns lists switches that punted the flow while processing it.
	PacketIns []netgraph.NodeID
	// FloodReaches reports whether flooding would deliver the first
	// packet to the destination (valid when Terminal == Flooded).
	FloodReaches bool
	// ExitKey is the flow key on delivery (after any rewrites).
	ExitKey header.FlowKey

	// Walk scratch kept with the result so WalkInto reuses it: the
	// (switch, key) states visited, for loop detection, and one switch's
	// meters.
	seen   []visit
	meters []openflow.MeterID
}

type visit struct {
	node netgraph.NodeID
	key  header.FlowKey
}

// Network is the collection of switch states over a topology, plus the walk
// logic. It is the "Topology + network state" building block.
type Network struct {
	Topo     *netgraph.Topology
	Switches map[netgraph.NodeID]*Switch

	// byID is Switches as a dense table by NodeID (nil for hosts).
	byID []*Switch
}

// NewNetwork creates a Network with a switch (of the given miss behavior)
// for every switch node in the topology.
func NewNetwork(topo *netgraph.Topology, miss MissBehavior) *Network {
	n := &Network{
		Topo:     topo,
		Switches: make(map[netgraph.NodeID]*Switch),
		byID:     make([]*Switch, topo.NumNodes()),
	}
	for _, id := range topo.Switches() {
		n.Switches[id] = NewSwitch(id, miss)
		n.byID[id] = n.Switches[id]
	}
	return n
}

// Switch returns the state of switch id, or nil when id is not a switch.
func (n *Network) Switch(id netgraph.NodeID) *Switch {
	if int(id) < 0 || int(id) >= len(n.byID) {
		return nil
	}
	return n.byID[id]
}

// PortLiveFunc returns the liveness oracle for a switch: a port is live if
// its link exists and is up.
func (n *Network) PortLiveFunc(sw netgraph.NodeID) PortLive { return PortLive{n.Topo, sw} }

// Walk resolves the path of a flow with the given key from a source host to
// a destination host. dst may be -1 when unknown (delivery is then detected
// by reaching any host matching the key's EthDst — Horse identifies hosts
// by MAC, so normally dst is known).
func (n *Network) Walk(key header.FlowKey, src, dst netgraph.NodeID) PathResult {
	var res PathResult
	n.WalkInto(&res, key, src, dst)
	return res
}

// WalkInto is Walk writing into res: the previous contents are replaced,
// and the backing arrays of its slices are reused, so a caller that keeps
// one PathResult per walker resolves paths without allocating.
func (n *Network) WalkInto(res *PathResult, key header.FlowKey, src, dst netgraph.NodeID) {
	*res = PathResult{
		ExitKey:   key,
		Hops:      res.Hops[:0],
		Entries:   res.Entries[:0],
		Meters:    res.Meters[:0],
		PacketIns: res.PacketIns[:0],
		seen:      res.seen[:0],
		meters:    res.meters,
	}
	sw, inPort := n.Topo.AttachedSwitch(src)
	if sw < 0 {
		res.Terminal = Stuck
		res.At = src
		return
	}
	if l := n.Topo.LinkAt(sw, inPort); l == nil || !l.Up {
		res.Terminal = Stuck
		res.At = src
		return
	}

	cur, curIn, curKey := sw, inPort, key
	maxHops := 4*n.Topo.NumNodes() + 8
	for hop := 0; hop < maxHops; hop++ {
		// Paths are a handful of hops, so a linear scan of the states
		// visited so far beats a map.
		for i := range res.seen {
			if res.seen[i].node == cur && res.seen[i].key == curKey {
				res.Terminal = Looped
				res.At = cur
				return
			}
		}
		res.seen = append(res.seen, visit{cur, curKey})

		s := n.Switch(cur)
		if s == nil {
			res.Terminal = Stuck
			res.At = cur
			return
		}
		d := Decision{Entries: res.Entries, Meters: res.meters[:0]}
		s.process(&d, curKey, PortLive{n.Topo, cur})
		res.Entries, res.meters = d.Entries, d.Meters
		for _, m := range d.Meters {
			res.Meters = append(res.Meters, MeterRef{Switch: cur, Meter: m})
		}
		if d.ToController {
			res.PacketIns = append(res.PacketIns, cur)
		}
		switch {
		case d.Drop:
			res.Terminal = Dropped
			res.At = cur
			return
		case d.Flood:
			res.Terminal = Flooded
			res.At = cur
			res.FloodReaches = n.floodReaches(cur, curIn, dst)
			return
		case d.Out != netgraph.NoPort:
			link := n.Topo.LinkAt(cur, d.Out)
			if link == nil || !link.Up {
				res.Terminal = Stuck
				res.At = cur
				return
			}
			next, nextPort := link.Peer(cur)
			res.Hops = append(res.Hops, Hop{Switch: cur, InPort: curIn, OutPort: d.Out, Link: link})
			if n.Topo.Node(next).Kind == netgraph.KindHost {
				if next == dst || dst < 0 {
					res.Terminal = Delivered
					res.ExitKey = d.Key
					return
				}
				// Delivered to the wrong host: the policy misdirected the
				// flow; classify as dropped there.
				res.Terminal = Dropped
				res.At = next
				return
			}
			cur, curIn, curKey = next, nextPort, d.Key
		case d.ToController:
			res.Terminal = Punted
			res.At = cur
			return
		default:
			res.Terminal = Dropped
			res.At = cur
			return
		}
	}
	res.Terminal = Looped
	res.At = cur
}

// floodReaches reports whether flooding from sw (excluding inPort) would
// reach dst, assuming every switch floods unknown traffic. It approximates
// the L2 broadcast behavior used during learning.
func (n *Network) floodReaches(sw netgraph.NodeID, inPort netgraph.PortNum, dst netgraph.NodeID) bool {
	if dst < 0 {
		return false
	}
	visited := map[netgraph.NodeID]bool{sw: true}
	stack := []netgraph.NodeID{sw}
	first := true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node := n.Topo.Node(v)
		for _, p := range node.Ports() {
			if first && v == sw && p == inPort {
				continue
			}
			l := n.Topo.LinkAt(v, p)
			if l == nil || !l.Up {
				continue
			}
			peer, _ := l.Peer(v)
			if peer == dst {
				return true
			}
			if n.Topo.Node(peer).Kind == netgraph.KindSwitch && !visited[peer] {
				visited[peer] = true
				stack = append(stack, peer)
			}
		}
		first = false
	}
	return false
}
