package netgraph

import (
	"testing"

	"horse/internal/simtime"
)

func TestAddAndLookup(t *testing.T) {
	topo := New()
	s := topo.AddSwitch("s1")
	h := topo.AddHost("h1")
	if topo.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", topo.NumNodes())
	}
	if id, ok := topo.Lookup("s1"); !ok || id != s {
		t.Error("Lookup s1 failed")
	}
	if topo.Node(s).Kind != KindSwitch || topo.Node(h).Kind != KindHost {
		t.Error("node kinds wrong")
	}
	if _, ok := topo.Lookup("nope"); ok {
		t.Error("Lookup found a ghost")
	}
	if len(topo.Switches()) != 1 || len(topo.Hosts()) != 1 {
		t.Error("kind filters wrong")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate name did not panic")
		}
	}()
	topo := New()
	topo.AddSwitch("x")
	topo.AddSwitch("x")
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("self loop did not panic")
		}
	}()
	topo := New()
	s := topo.AddSwitch("s")
	topo.Connect(s, s, 1e9, 0)
}

func TestConnectPorts(t *testing.T) {
	topo := New()
	a := topo.AddSwitch("a")
	b := topo.AddSwitch("b")
	lid := topo.Connect(a, b, 1e9, simtime.Millisecond)
	l := topo.Link(lid)
	if l.APort != 1 || l.BPort != 1 {
		t.Errorf("ports = %d,%d, want 1,1", l.APort, l.BPort)
	}
	if peer, pport := l.Peer(a); peer != b || pport != 1 {
		t.Error("Peer(a) wrong")
	}
	if l.PortAt(b) != 1 {
		t.Error("PortAt(b) wrong")
	}
	if got := topo.PortToward(a, b); got != 1 {
		t.Errorf("PortToward = %d, want 1", got)
	}
	if topo.LinkAt(a, 1) != l {
		t.Error("LinkAt wrong")
	}
	if topo.LinkAt(a, 99) != nil {
		t.Error("LinkAt ghost port should be nil")
	}
	// Second link on a gets the next port.
	c := topo.AddSwitch("c")
	topo.Connect(a, c, 1e9, 0)
	if topo.PortToward(a, c) != 2 {
		t.Error("second port not 2")
	}
	if got := topo.Node(a).Ports(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Ports = %v", got)
	}
}

func TestNeighborsAndLinkDown(t *testing.T) {
	topo := New()
	a := topo.AddSwitch("a")
	b := topo.AddSwitch("b")
	c := topo.AddSwitch("c")
	lab := topo.Connect(a, b, 1e9, 0)
	topo.Connect(a, c, 1e9, 0)
	if n := topo.Neighbors(a); len(n) != 2 {
		t.Fatalf("Neighbors = %v", n)
	}
	topo.SetLinkUp(lab, false)
	if n := topo.Neighbors(a); len(n) != 1 || n[0] != c {
		t.Errorf("after link down Neighbors = %v", n)
	}
	if topo.PortToward(a, b) != NoPort {
		t.Error("PortToward over a down link should be NoPort")
	}
	if topo.Reachable(a, b) {
		t.Error("b should be unreachable with the only link down")
	}
	topo.SetLinkUp(lab, true)
	if !topo.Reachable(a, b) {
		t.Error("b should be reachable again")
	}
}

func TestShortestPathLinear(t *testing.T) {
	topo := Linear(5, Gig, TenGig)
	s0, s4 := topo.MustLookup("s0"), topo.MustLookup("s4")
	p := topo.ShortestPath(s0, s4, HopCost)
	if len(p) != 5 {
		t.Fatalf("path length %d, want 5: %v", len(p), p)
	}
	if p[0] != s0 || p[len(p)-1] != s4 {
		t.Error("endpoints wrong")
	}
	if got := topo.PathCost(p, HopCost); got != 4 {
		t.Errorf("cost = %g, want 4", got)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	topo := New()
	a := topo.AddSwitch("a")
	b := topo.AddSwitch("b")
	if topo.ShortestPath(a, b, HopCost) != nil {
		t.Error("found a path in a disconnected graph")
	}
	if p := topo.ShortestPath(a, a, HopCost); len(p) != 1 || p[0] != a {
		t.Errorf("self path = %v", p)
	}
}

func TestShortestPathAvoidsDownLink(t *testing.T) {
	topo := Ring(4, Gig, TenGig)
	s0, s1 := topo.MustLookup("s0"), topo.MustLookup("s1")
	direct := topo.ShortestPath(s0, s1, HopCost)
	if len(direct) != 2 {
		t.Fatalf("direct path = %v", direct)
	}
	port := topo.PortToward(s0, s1)
	topo.SetLinkUp(topo.LinkAt(s0, port).ID, false)
	around := topo.ShortestPath(s0, s1, HopCost)
	if len(around) != 4 {
		t.Fatalf("detour path = %v, want 4 nodes (the long way)", around)
	}
}

func TestDelayCostPrefersFastPath(t *testing.T) {
	topo := New()
	a := topo.AddSwitch("a")
	b := topo.AddSwitch("b")
	c := topo.AddSwitch("c")
	topo.Connect(a, b, 1e9, 10*simtime.Millisecond) // slow direct
	topo.Connect(a, c, 1e9, simtime.Millisecond)
	topo.Connect(c, b, 1e9, simtime.Millisecond) // fast detour
	p := topo.ShortestPath(a, b, DelayCost)
	if len(p) != 3 {
		t.Errorf("delay-based path = %v, want via c", p)
	}
	p = topo.ShortestPath(a, b, HopCost)
	if len(p) != 2 {
		t.Errorf("hop-based path = %v, want direct", p)
	}
}

func TestECMPNextHopsLeafSpine(t *testing.T) {
	topo := LeafSpine(4, 3, 2, Gig, TenGig)
	h0 := topo.MustLookup("h0")
	h7 := topo.MustLookup("h7") // on the last leaf
	hops := topo.ECMPNextHops(h7, HopCost)
	leaf0 := topo.MustLookup("leaf0")
	// leaf0 should have all 3 spines as equal-cost next hops toward h7.
	got := hops[leaf0]
	if len(got) != 3 {
		t.Fatalf("leaf0 next hops = %v, want 3 spines", got)
	}
	for _, nh := range got {
		if topo.Node(nh).Kind != KindSwitch {
			t.Error("next hop is not a switch")
		}
	}
	// A host's next hop is its leaf.
	if nh := hops[h0]; len(nh) != 1 {
		t.Errorf("host next hops = %v, want exactly its leaf", nh)
	}
	// dst itself has no entry.
	if hops[h7] != nil {
		t.Error("destination should have no next hops")
	}
}

func TestKShortestPathsRing(t *testing.T) {
	topo := Ring(5, Gig, TenGig)
	s0, s2 := topo.MustLookup("s0"), topo.MustLookup("s2")
	paths := topo.KShortestPaths(s0, s2, 3, HopCost)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want exactly 2 in a ring: %v", len(paths), paths)
	}
	if len(paths[0]) != 3 || len(paths[1]) != 4 {
		t.Errorf("path lengths = %d,%d, want 3,4", len(paths[0]), len(paths[1]))
	}
	// Costs must be nondecreasing.
	if topo.PathCost(paths[0], HopCost) > topo.PathCost(paths[1], HopCost) {
		t.Error("paths not sorted by cost")
	}
}

func TestKShortestPathsFatTree(t *testing.T) {
	topo := FatTree(4, Gig)
	h0, hLast := topo.MustLookup("h0"), topo.MustLookup("h15")
	paths := topo.KShortestPaths(h0, hLast, 4, HopCost)
	if len(paths) != 4 {
		t.Fatalf("fat-tree k=4 has 4 shortest inter-pod paths, got %d", len(paths))
	}
	for _, p := range paths {
		if len(p) != 7 { // h-edge-agg-core-agg-edge-h
			t.Errorf("inter-pod path length = %d, want 7: %v", len(p), p)
		}
		// Loop-free check.
		seen := map[NodeID]bool{}
		for _, n := range p {
			if seen[n] {
				t.Errorf("path has a loop: %v", p)
			}
			seen[n] = true
		}
	}
}

func TestFatTreeShape(t *testing.T) {
	k := 4
	topo := FatTree(k, Gig)
	wantSwitches := (k/2)*(k/2) + k*k // core + pods(agg+edge)
	wantHosts := k * k * k / 4
	if got := len(topo.Switches()); got != wantSwitches {
		t.Errorf("switches = %d, want %d", got, wantSwitches)
	}
	if got := len(topo.Hosts()); got != wantHosts {
		t.Errorf("hosts = %d, want %d", got, wantHosts)
	}
	if d := topo.Diameter(); d != 6 {
		t.Errorf("fat-tree diameter = %d, want 6", d)
	}
}

func TestStarOfFatTreesShape(t *testing.T) {
	n, k := 3, 4
	topo := StarOfFatTrees(n, k, Gig)
	perTree := (k/2)*(k/2) + k*k
	if got := len(topo.Switches()); got != n*perTree+1 {
		t.Errorf("switches = %d, want %d", got, n*perTree+1)
	}
	if got := len(topo.Hosts()); got != n*k*k*k/4 {
		t.Errorf("hosts = %d, want %d", got, n*k*k*k/4)
	}
	// Tree-to-tree: edge → agg → core → hub → core → agg → edge, plus the
	// two access hops.
	if !topo.Reachable(topo.MustLookup("h0"), topo.MustLookup("h32")) {
		t.Fatal("trees are not joined through the hub")
	}
	if d := topo.Diameter(); d != 8 {
		t.Errorf("star-of-fat-trees diameter = %d, want 8", d)
	}
}

func TestRandomConnectedIsConnected(t *testing.T) {
	topo := RandomConnected(30, 0.05, 42, Gig, TenGig)
	nodes := topo.Nodes()
	src := nodes[0]
	for _, n := range nodes[1:] {
		if !topo.Reachable(src, n) {
			t.Fatalf("node %d unreachable", n)
		}
	}
}

func TestRandomConnectedDeterministic(t *testing.T) {
	a := RandomConnected(20, 0.1, 7, Gig, TenGig)
	b := RandomConnected(20, 0.1, 7, Gig, TenGig)
	if a.NumLinks() != b.NumLinks() {
		t.Errorf("same seed produced different link counts: %d vs %d", a.NumLinks(), b.NumLinks())
	}
}

func TestDumbbell(t *testing.T) {
	topo := Dumbbell(3, 2, Gig, LinkSpec{BandwidthBps: 1e8, Delay: simtime.Millisecond})
	sl, sr := topo.MustLookup("sL"), topo.MustLookup("sR")
	if topo.PortToward(sl, sr) == NoPort {
		t.Fatal("no bottleneck link")
	}
	if len(topo.Hosts()) != 5 {
		t.Errorf("hosts = %d, want 5", len(topo.Hosts()))
	}
	h0 := topo.MustLookup("h0")
	r0 := topo.MustLookup("r0")
	p := topo.ShortestPath(h0, r0, HopCost)
	if len(p) != 4 {
		t.Errorf("path = %v, want h0-sL-sR-r0", p)
	}
}

func TestAttachedSwitch(t *testing.T) {
	topo := Star(3, Gig)
	s0 := topo.MustLookup("s0")
	h1 := topo.MustLookup("h1")
	sw, port := topo.AttachedSwitch(h1)
	if sw != s0 || port == NoPort {
		t.Errorf("AttachedSwitch = %d,%d", sw, port)
	}
	if got := topo.HostOfPort(s0, port); got != h1 {
		t.Errorf("HostOfPort = %d, want %d", got, h1)
	}
	// Isolated host.
	lone := topo.AddHost("lone")
	if sw, _ := topo.AttachedSwitch(lone); sw != -1 {
		t.Error("isolated host should report -1")
	}
}

func TestHostOfPortSwitchSide(t *testing.T) {
	topo := Linear(2, Gig, TenGig)
	s0, s1 := topo.MustLookup("s0"), topo.MustLookup("s1")
	p := topo.PortToward(s0, s1)
	if topo.HostOfPort(s0, p) != -1 {
		t.Error("switch-facing port reported a host")
	}
}

func TestLeafSpineShape(t *testing.T) {
	topo := LeafSpine(4, 2, 3, Gig, TenGig)
	if got := len(topo.Switches()); got != 6 {
		t.Errorf("switches = %d, want 6", got)
	}
	if got := len(topo.Hosts()); got != 12 {
		t.Errorf("hosts = %d, want 12", got)
	}
	// Any host-to-host path across leaves is 4 hops of nodes = 5 nodes.
	h0, h11 := topo.MustLookup("h0"), topo.MustLookup("h11")
	if p := topo.ShortestPath(h0, h11, HopCost); len(p) != 5 {
		t.Errorf("cross-leaf path = %v", p)
	}
	if d := topo.Diameter(); d != 4 {
		t.Errorf("leaf-spine diameter = %d, want 4", d)
	}
}

func BenchmarkShortestPathFatTree8(b *testing.B) {
	topo := FatTree(8, Gig)
	hosts := topo.Hosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := hosts[i%len(hosts)]
		dst := hosts[(i*7+13)%len(hosts)]
		if src == dst {
			continue
		}
		topo.ShortestPath(src, dst, HopCost)
	}
}

func BenchmarkECMPNextHops(b *testing.B) {
	topo := LeafSpine(16, 8, 10, Gig, TenGig)
	hosts := topo.Hosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topo.ECMPNextHops(hosts[i%len(hosts)], HopCost)
	}
}
