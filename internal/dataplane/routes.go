package dataplane

import (
	"horse/internal/addr"
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/openflow"
)

// InstallMACRoutes pre-installs shortest-path MAC forwarding for every
// host directly on the network's switches — the E3 "identical
// pre-installed state" methodology, shared by the experiment harness,
// the benchmarks, and the examples so the baseline state cannot drift
// between them. One path scratch serves every destination, and one
// FlowMod every rule: Switch.Apply copies it into a new entry.
func InstallMACRoutes(n *Network) {
	topo := n.Topo
	switches := topo.Switches()
	var sc netgraph.PathScratch
	mod := openflow.FlowMod{Op: openflow.FlowAdd, Priority: 10}
	for _, host := range topo.Hosts() {
		next := topo.ECMPNextHopsInto(&sc, host, netgraph.HopCost)
		mod.Match = header.Match{}.WithEthDst(addr.HostMAC(host))
		for _, sw := range switches {
			if len(next[sw]) == 0 {
				continue
			}
			out := topo.PortToward(sw, next[sw][0])
			if out == netgraph.NoPort {
				continue
			}
			mod.Instr = openflow.Apply(openflow.Output(out))
			n.Switches[sw].Apply(&mod, 0)
		}
	}
}
