package netgraph

import (
	"fmt"
	"math/rand"

	"horse/internal/simtime"
)

// LinkSpec bundles the capacity and delay applied to the links a builder
// creates.
type LinkSpec struct {
	BandwidthBps float64
	Delay        simtime.Duration
}

// Common link specs used by builders and tests.
var (
	// Gig is a 1 Gbps link with 50 µs delay (datacenter-ish cable run).
	Gig = LinkSpec{BandwidthBps: 1e9, Delay: 50 * simtime.Microsecond}
	// TenGig is a 10 Gbps link with 50 µs delay.
	TenGig = LinkSpec{BandwidthBps: 1e10, Delay: 50 * simtime.Microsecond}
	// HundredGig is a 100 Gbps link with 50 µs delay (IXP core class).
	HundredGig = LinkSpec{BandwidthBps: 1e11, Delay: 50 * simtime.Microsecond}
)

// Linear builds a chain of n switches, each with one attached host:
//
//	h0   h1   h2
//	|    |    |
//	s0 - s1 - s2
//
// Host links use hostLink; switch-switch links use trunk.
func Linear(n int, hostLink, trunk LinkSpec) *Topology {
	t := New()
	var prev NodeID = -1
	for i := 0; i < n; i++ {
		sw := t.AddSwitch(fmt.Sprintf("s%d", i))
		h := t.AddHost(fmt.Sprintf("h%d", i))
		t.Connect(sw, h, hostLink.BandwidthBps, hostLink.Delay)
		if prev >= 0 {
			t.Connect(prev, sw, trunk.BandwidthBps, trunk.Delay)
		}
		prev = sw
	}
	return t
}

// Star builds one switch with n hosts attached.
func Star(n int, hostLink LinkSpec) *Topology {
	t := New()
	sw := t.AddSwitch("s0")
	for i := 0; i < n; i++ {
		h := t.AddHost(fmt.Sprintf("h%d", i))
		t.Connect(sw, h, hostLink.BandwidthBps, hostLink.Delay)
	}
	return t
}

// LeafSpine builds a 2-tier Clos fabric with the given number of leaf and
// spine switches and hostsPerLeaf hosts per leaf. Every leaf connects to
// every spine with trunk links. Leaves are named leaf0..; spines spine0..;
// hosts h0.. in leaf order.
func LeafSpine(leaves, spines, hostsPerLeaf int, hostLink, trunk LinkSpec) *Topology {
	t := New()
	spineIDs := make([]NodeID, spines)
	for i := 0; i < spines; i++ {
		spineIDs[i] = t.AddSwitch(fmt.Sprintf("spine%d", i))
	}
	hostIdx := 0
	for i := 0; i < leaves; i++ {
		leaf := t.AddSwitch(fmt.Sprintf("leaf%d", i))
		for _, sp := range spineIDs {
			t.Connect(leaf, sp, trunk.BandwidthBps, trunk.Delay)
		}
		for j := 0; j < hostsPerLeaf; j++ {
			h := t.AddHost(fmt.Sprintf("h%d", hostIdx))
			hostIdx++
			t.Connect(leaf, h, hostLink.BandwidthBps, hostLink.Delay)
		}
	}
	return t
}

// FatTree builds a k-ary fat-tree (k even): (k/2)^2 core switches, k pods
// each with k/2 aggregation and k/2 edge switches, and (k/2) hosts per edge
// switch. All links use the same spec, the classic rearrangeably
// non-blocking configuration.
func FatTree(k int, link LinkSpec) *Topology {
	if k < 2 || k%2 != 0 {
		panic("netgraph: fat-tree arity must be even and >= 2")
	}
	t := New()
	half := k / 2
	core := make([]NodeID, half*half)
	for i := range core {
		core[i] = t.AddSwitch(fmt.Sprintf("core%d", i))
	}
	hostIdx := 0
	for p := 0; p < k; p++ {
		aggs := make([]NodeID, half)
		for a := 0; a < half; a++ {
			aggs[a] = t.AddSwitch(fmt.Sprintf("agg%d_%d", p, a))
			// agg a in each pod connects to core group a.
			for c := 0; c < half; c++ {
				t.Connect(aggs[a], core[a*half+c], link.BandwidthBps, link.Delay)
			}
		}
		for e := 0; e < half; e++ {
			edge := t.AddSwitch(fmt.Sprintf("edge%d_%d", p, e))
			for _, agg := range aggs {
				t.Connect(edge, agg, link.BandwidthBps, link.Delay)
			}
			for h := 0; h < half; h++ {
				host := t.AddHost(fmt.Sprintf("h%d", hostIdx))
				hostIdx++
				t.Connect(edge, host, link.BandwidthBps, link.Delay)
			}
		}
	}
	return t
}

// StarOfFatTrees builds n k-ary fat-trees joined by a central hub switch:
// every core switch of every tree connects to the hub with the same link
// spec. Node names carry a per-tree prefix ("t0_core0", "t1_h3", ...);
// the hub is "hub". Every tree-to-tree path crosses the hub, so traffic
// concentrated on one tree leaves the rest of the fabric idle.
func StarOfFatTrees(n, k int, link LinkSpec) *Topology {
	if n < 1 {
		panic("netgraph: star-of-fat-trees needs at least 1 tree")
	}
	if k < 2 || k%2 != 0 {
		panic("netgraph: fat-tree arity must be even and >= 2")
	}
	t := New()
	hub := t.AddSwitch("hub")
	half := k / 2
	hostIdx := 0
	for tree := 0; tree < n; tree++ {
		pfx := fmt.Sprintf("t%d_", tree)
		core := make([]NodeID, half*half)
		for i := range core {
			core[i] = t.AddSwitch(fmt.Sprintf("%score%d", pfx, i))
			t.Connect(core[i], hub, link.BandwidthBps, link.Delay)
		}
		for p := 0; p < k; p++ {
			aggs := make([]NodeID, half)
			for a := 0; a < half; a++ {
				aggs[a] = t.AddSwitch(fmt.Sprintf("%sagg%d_%d", pfx, p, a))
				for c := 0; c < half; c++ {
					t.Connect(aggs[a], core[a*half+c], link.BandwidthBps, link.Delay)
				}
			}
			for e := 0; e < half; e++ {
				edge := t.AddSwitch(fmt.Sprintf("%sedge%d_%d", pfx, p, e))
				for _, agg := range aggs {
					t.Connect(edge, agg, link.BandwidthBps, link.Delay)
				}
				for h := 0; h < half; h++ {
					host := t.AddHost(fmt.Sprintf("h%d", hostIdx))
					hostIdx++
					t.Connect(edge, host, link.BandwidthBps, link.Delay)
				}
			}
		}
	}
	return t
}

// Ring builds n switches in a cycle, one host per switch. Rings exercise
// path diversity (two disjoint paths between any pair).
func Ring(n int, hostLink, trunk LinkSpec) *Topology {
	if n < 3 {
		panic("netgraph: ring needs at least 3 switches")
	}
	t := New()
	sw := make([]NodeID, n)
	for i := 0; i < n; i++ {
		sw[i] = t.AddSwitch(fmt.Sprintf("s%d", i))
		h := t.AddHost(fmt.Sprintf("h%d", i))
		t.Connect(sw[i], h, hostLink.BandwidthBps, hostLink.Delay)
	}
	for i := 0; i < n; i++ {
		t.Connect(sw[i], sw[(i+1)%n], trunk.BandwidthBps, trunk.Delay)
	}
	return t
}

// RandomConnected builds a random connected graph of n switches using a
// random spanning tree plus extra random edges at probability p, with one
// host per switch. The generator is deterministic for a given seed.
func RandomConnected(n int, p float64, seed int64, hostLink, trunk LinkSpec) *Topology {
	t := New()
	rng := rand.New(rand.NewSource(seed))
	sw := make([]NodeID, n)
	for i := 0; i < n; i++ {
		sw[i] = t.AddSwitch(fmt.Sprintf("s%d", i))
		h := t.AddHost(fmt.Sprintf("h%d", i))
		t.Connect(sw[i], h, hostLink.BandwidthBps, hostLink.Delay)
	}
	// Random spanning tree: connect node i to a random earlier node.
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		t.Connect(sw[i], sw[j], trunk.BandwidthBps, trunk.Delay)
	}
	// Extra edges.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p && t.PortToward(sw[i], sw[j]) == NoPort {
				t.Connect(sw[i], sw[j], trunk.BandwidthBps, trunk.Delay)
			}
		}
	}
	return t
}

// Dumbbell builds the classic congestion scenario: nLeft senders and nRight
// receivers on opposite sides of a single bottleneck link.
//
//	h0..hL -> sL == bottleneck == sR -> r0..rR
func Dumbbell(nLeft, nRight int, edge LinkSpec, bottleneck LinkSpec) *Topology {
	t := New()
	sl := t.AddSwitch("sL")
	sr := t.AddSwitch("sR")
	t.Connect(sl, sr, bottleneck.BandwidthBps, bottleneck.Delay)
	for i := 0; i < nLeft; i++ {
		h := t.AddHost(fmt.Sprintf("h%d", i))
		t.Connect(sl, h, edge.BandwidthBps, edge.Delay)
	}
	for i := 0; i < nRight; i++ {
		h := t.AddHost(fmt.Sprintf("r%d", i))
		t.Connect(sr, h, edge.BandwidthBps, edge.Delay)
	}
	return t
}
