package netgraph_test

import (
	"reflect"
	"testing"

	"horse/internal/ixp"
	"horse/internal/netgraph"
)

// TestPathScratchMatchesFresh: path queries through one scratch reused
// across every destination (and across cost functions, and ShortestPath
// and ECMPNextHops queries interleaved) return exactly what a fresh
// computation does — on the fabrics the route installers run on, with one
// link down so some next-hop sets shrink.
func TestPathScratchMatchesFresh(t *testing.T) {
	fabric, err := ixp.Build(ixp.LargeIXP(200))
	if err != nil {
		t.Fatal(err)
	}
	topos := map[string]*netgraph.Topology{
		"fattree8":  netgraph.FatTree(8, netgraph.Gig),
		"leafspine": netgraph.LeafSpine(8, 4, 4, netgraph.Gig, netgraph.TenGig),
		"large-ixp": fabric.Topo,
	}
	for name, topo := range topos {
		topo.Link(netgraph.LinkID(topo.NumLinks() - 1)).Up = false
		var sc netgraph.PathScratch
		hosts := topo.Hosts()
		for i, dst := range hosts {
			for _, cost := range []netgraph.Cost{netgraph.HopCost, netgraph.InverseCapacityCost} {
				if got, want := topo.ECMPNextHopsInto(&sc, dst, cost), topo.ECMPNextHops(dst, cost); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: next hops toward %d differ through a reused scratch", name, dst)
				}
				src := hosts[(i+len(hosts)/2)%len(hosts)]
				if got, want := topo.ShortestPathInto(&sc, src, dst, cost), topo.ShortestPath(src, dst, cost); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: path %d→%d is %v through a reused scratch, want %v", name, src, dst, got, want)
				}
			}
		}
	}
}
