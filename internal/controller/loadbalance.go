package controller

import (
	"horse/internal/addr"
	"horse/internal/flowsim"
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/openflow"
)

// ECMPLoadBalancer is the "load balancing: edge→core" policy: instead of a
// single shortest-path port per destination, every switch with multiple
// equal-cost next hops gets a SELECT group whose buckets spread flows by
// hash across those ports (watch ports give data-plane failover). One
// group is shared per next-hop-set, so fabric-scale deployments stay
// compact.
type ECMPLoadBalancer struct {
	Cost netgraph.Cost
	// Weights, if non-nil, overrides bucket weights per switch+port; used
	// by the monitoring app to rebalance. Keyed by switch then port.
	Weights map[netgraph.NodeID]map[netgraph.PortNum]uint32

	resync portStatusCoalescer
}

// Name implements App.
func (*ECMPLoadBalancer) Name() string { return "ecmp-load-balancer" }

// Start implements flowsim.Controller.
func (l *ECMPLoadBalancer) Start(ctx *flowsim.Context) {
	InstallPolicyDefaults(ctx)
	l.installAll(ctx)
}

func (l *ECMPLoadBalancer) cost() netgraph.Cost {
	if l.Cost != nil {
		return l.Cost
	}
	return netgraph.HopCost
}

func (l *ECMPLoadBalancer) installAll(ctx *flowsim.Context) {
	topo := ctx.Topology()
	// Group IDs: allocate one per (switch, port-set) signature.
	type portSet string
	nextGroup := make(map[netgraph.NodeID]openflow.GroupID)
	groupOf := make(map[netgraph.NodeID]map[portSet]openflow.GroupID)

	switches := topo.Switches()
	var sc netgraph.PathScratch
	for _, host := range topo.Hosts() {
		next := topo.ECMPNextHopsInto(&sc, host, l.cost())
		mac := addr.HostMAC(host)
		for _, sw := range switches {
			nhs := next[sw]
			if len(nhs) == 0 {
				continue
			}
			ports := make([]netgraph.PortNum, 0, len(nhs))
			for _, nh := range nhs {
				if p := topo.PortToward(sw, nh); p != netgraph.NoPort {
					ports = append(ports, p)
				}
			}
			if len(ports) == 0 {
				continue
			}
			if len(ports) == 1 {
				// Single path: plain output rule.
				ctx.Send(&openflow.FlowMod{
					Switch: sw, Op: openflow.FlowAdd,
					Table: TableForwarding, Priority: PrioForwarding,
					Match: header.Match{}.WithEthDst(mac),
					Instr: openflow.Apply(openflow.Output(ports[0])),
				})
				continue
			}
			sig := portSet(portsKey(ports))
			if groupOf[sw] == nil {
				groupOf[sw] = make(map[portSet]openflow.GroupID)
			}
			gid, ok := groupOf[sw][sig]
			if !ok {
				nextGroup[sw]++
				gid = openflow.GroupID(nextGroup[sw])
				groupOf[sw][sig] = gid
				buckets := make([]*openflow.Bucket, len(ports))
				for i, p := range ports {
					buckets[i] = &openflow.Bucket{
						Weight:    l.weight(sw, p),
						WatchPort: p,
						Actions:   []openflow.Action{openflow.Output(p)},
					}
				}
				ctx.Send(&openflow.GroupMod{
					Switch: sw, Op: openflow.GroupAdd,
					GroupID: gid, Type: openflow.GroupSelect, Buckets: buckets,
				})
			}
			ctx.Send(&openflow.FlowMod{
				Switch: sw, Op: openflow.FlowAdd,
				Table: TableForwarding, Priority: PrioForwarding,
				Match: header.Match{}.WithEthDst(mac),
				Instr: openflow.Apply(openflow.GroupAction(gid)),
			})
		}
	}
}

func (l *ECMPLoadBalancer) weight(sw netgraph.NodeID, p netgraph.PortNum) uint32 {
	if l.Weights == nil {
		return 1
	}
	if m := l.Weights[sw]; m != nil && m[p] > 0 {
		return m[p]
	}
	return 1
}

func portsKey(ports []netgraph.PortNum) string {
	b := make([]byte, 0, len(ports)*4)
	for _, p := range ports {
		b = append(b, byte(p>>24), byte(p>>16), byte(p>>8), byte(p))
	}
	return string(b)
}

// Handle implements flowsim.Controller: link state changes flush the
// forwarding tables and reinstall groups with recomputed path sets (watch
// ports already give instant data-plane failover; the flush guarantees no
// stale rule toward a now-unreachable destination survives).
func (l *ECMPLoadBalancer) Handle(ctx *flowsim.Context, msg openflow.Message) {
	l.resync.Kick(ctx, msg, func() {
		InstallPolicyDefaults(ctx)
		FlushForwarding(ctx)
		l.installAll(ctx)
	})
}

// MisconfiguredLoadBalancer deliberately skews ECMP: all buckets point at
// one uplink. It reproduces the paper's Figure-1 failure narrative — "a
// misconfigured load balancing policy can cause congestion in the core" —
// and exists so experiments can quantify exactly that.
type MisconfiguredLoadBalancer struct {
	ECMPLoadBalancer
}

// Name implements App.
func (*MisconfiguredLoadBalancer) Name() string { return "misconfigured-load-balancer" }

// Start implements flowsim.Controller.
func (m *MisconfiguredLoadBalancer) Start(ctx *flowsim.Context) {
	// Weight 1 on the lowest port, 0 on the rest would starve buckets; a
	// "subtle" misconfiguration uses weight skew 1000:1 instead, dumping
	// essentially all flows on one core uplink.
	topo := ctx.Topology()
	m.Weights = make(map[netgraph.NodeID]map[netgraph.PortNum]uint32)
	for _, sw := range topo.Switches() {
		weights := make(map[netgraph.PortNum]uint32)
		first := true
		for _, p := range topo.Node(sw).Ports() {
			if first {
				weights[p] = 1000
				first = false
			} else {
				weights[p] = 1
			}
		}
		m.Weights[sw] = weights
	}
	m.ECMPLoadBalancer.Start(ctx)
}
