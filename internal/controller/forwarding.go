package controller

import (
	"horse/internal/addr"
	"horse/internal/flowsim"
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simtime"
)

// ProactiveMAC is the paper's "basic forwarding based on source and
// destination MAC" baseline: at startup it installs, on every switch, a
// MAC-destination rule toward every host along shortest paths, plus the
// table-0 default. It reacts to PortStatus by recomputing affected rules.
type ProactiveMAC struct {
	// Cost selects the path metric (hop count by default).
	Cost netgraph.Cost

	resync portStatusCoalescer
}

// Name implements App.
func (*ProactiveMAC) Name() string { return "proactive-mac" }

// ForkApp implements ForkableApp: rule installation derives purely from
// the topology, so a fresh instance behaves exactly like this one did.
func (p *ProactiveMAC) ForkApp() App { return &ProactiveMAC{Cost: p.Cost} }

// Start implements flowsim.Controller.
func (p *ProactiveMAC) Start(ctx *flowsim.Context) {
	InstallPolicyDefaults(ctx)
	p.installAll(ctx)
}

func (p *ProactiveMAC) cost() netgraph.Cost {
	if p.Cost != nil {
		return p.Cost
	}
	return netgraph.HopCost
}

// installAll computes every destination's next hops in one path scratch.
func (p *ProactiveMAC) installAll(ctx *flowsim.Context) {
	topo := ctx.Topology()
	switches := topo.Switches()
	var sc netgraph.PathScratch
	for _, host := range topo.Hosts() {
		next := topo.ECMPNextHopsInto(&sc, host, p.cost())
		mac := addr.HostMAC(host)
		for _, sw := range switches {
			nh := next[sw]
			if len(nh) == 0 {
				continue
			}
			out := topo.PortToward(sw, nh[0])
			if out == netgraph.NoPort {
				continue
			}
			ctx.Send(&openflow.FlowMod{
				Switch: sw, Op: openflow.FlowAdd,
				Table: TableForwarding, Priority: PrioForwarding,
				Match: header.Match{}.WithEthDst(mac),
				Instr: openflow.Apply(openflow.Output(out)),
			})
		}
	}
}

// Handle implements flowsim.Controller: topology changes flush the
// forwarding tables and trigger a full recomputation (simple and correct;
// fine at control-event rates). The flush guarantees reconvergence leaves
// no stale rule matching a dead port — including rules toward destinations
// the recompute can no longer reach.
func (p *ProactiveMAC) Handle(ctx *flowsim.Context, msg openflow.Message) {
	p.resync.Kick(ctx, msg, func() {
		InstallPolicyDefaults(ctx)
		FlushForwarding(ctx)
		p.installAll(ctx)
	})
}

// ReactiveMAC forwards like ProactiveMAC but installs rules on demand:
// switches punt unknown flows, and on a PacketIn the app installs
// MAC-destination rules with an idle timeout along the shortest path from
// the punting switch. This is the classic Ryu/POX l2 app shape and the
// high-PacketIn configuration of the E5 sweep.
type ReactiveMAC struct {
	// IdleTimeout evicts reactive rules (default 10 s).
	IdleTimeout simtime.Duration
	Cost        netgraph.Cost

	resync portStatusCoalescer
	paths  netgraph.PathScratch // every PacketIn's shortest path
}

// Name implements App.
func (*ReactiveMAC) Name() string { return "reactive-mac" }

// ForkApp implements ForkableApp: reactive installs follow PacketIns and
// the app keeps no state a caller reads after the run.
func (r *ReactiveMAC) ForkApp() App {
	return &ReactiveMAC{IdleTimeout: r.IdleTimeout, Cost: r.Cost}
}

// Start implements flowsim.Controller.
func (r *ReactiveMAC) Start(ctx *flowsim.Context) {
	InstallPolicyDefaults(ctx)
}

// Handle implements flowsim.Controller. Topology events re-install the
// table-0 defaults (a restarted switch comes back with every table empty,
// and without the goto-forwarding default it could never punt reactive
// misses up to table 1); the reactive table-1 rules themselves reinstall
// on the re-punts that follow.
func (r *ReactiveMAC) Handle(ctx *flowsim.Context, msg openflow.Message) {
	r.resync.Kick(ctx, msg, func() { InstallPolicyDefaults(ctx) })
	pin, ok := msg.(*openflow.PacketIn)
	if !ok {
		return
	}
	topo := ctx.Topology()
	dst := addr.HostOfMAC(pin.Key.EthDst)
	if dst < 0 || int(dst) >= topo.NumNodes() || topo.Node(dst).Kind != netgraph.KindHost {
		return
	}
	cost := r.Cost
	if cost == nil {
		cost = netgraph.HopCost
	}
	idle := r.IdleTimeout
	if idle == 0 {
		idle = 10 * simtime.Second
	}
	path := topo.ShortestPathInto(&r.paths, pin.Switch, dst, cost)
	if path == nil {
		return
	}
	for i := 0; i+1 < len(path); i++ {
		if topo.Node(path[i]).Kind != netgraph.KindSwitch {
			continue
		}
		out := topo.PortToward(path[i], path[i+1])
		if out == netgraph.NoPort {
			continue
		}
		ctx.Send(&openflow.FlowMod{
			Switch: path[i], Op: openflow.FlowAdd,
			Table: TableForwarding, Priority: PrioForwarding,
			Match:       header.Match{}.WithEthDst(pin.Key.EthDst),
			IdleTimeout: idle,
			Instr:       openflow.Apply(openflow.Output(out)),
		})
	}
	// Release the buffered first packet.
	ctx.Send(&openflow.PacketOut{Switch: pin.Switch, InPort: pin.InPort, Key: pin.Key})
}
