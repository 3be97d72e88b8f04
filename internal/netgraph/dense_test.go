package netgraph_test

// The dense port table must answer every adjacency and path query exactly
// as a map-keyed table does. mapTopo is that reference: it rebuilds each
// node's port→link map from the links' own port fields and reimplements
// the queries the way the map-based Topology did (map iteration plus a
// sort wherever order matters, container/heap in Dijkstra).

import (
	"container/heap"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"horse/internal/ixp"
	"horse/internal/netgraph"
	"horse/internal/simtime"
)

type mapTopo struct {
	t     *netgraph.Topology
	ports []map[netgraph.PortNum]netgraph.LinkID
}

func newMapTopo(t *netgraph.Topology) *mapTopo {
	m := &mapTopo{t: t, ports: make([]map[netgraph.PortNum]netgraph.LinkID, t.NumNodes())}
	for i := range m.ports {
		m.ports[i] = make(map[netgraph.PortNum]netgraph.LinkID)
	}
	for _, l := range t.Links() {
		m.ports[l.A][l.APort] = l.ID
		m.ports[l.B][l.BPort] = l.ID
	}
	return m
}

func (m *mapTopo) link(id netgraph.LinkID) *netgraph.Link { return m.t.Link(id) }

func (m *mapTopo) Ports(n netgraph.NodeID) []netgraph.PortNum {
	out := make([]netgraph.PortNum, 0, len(m.ports[n]))
	for p := range m.ports[n] {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *mapTopo) LinkAt(n netgraph.NodeID, p netgraph.PortNum) *netgraph.Link {
	id, ok := m.ports[n][p]
	if !ok {
		return nil
	}
	return m.link(id)
}

func (m *mapTopo) PortToward(from, to netgraph.NodeID) netgraph.PortNum {
	best := netgraph.NoPort
	for p, lid := range m.ports[from] {
		l := m.link(lid)
		if !l.Up {
			continue
		}
		peer, _ := l.Peer(from)
		if peer == to && (best == netgraph.NoPort || p < best) {
			best = p
		}
	}
	return best
}

func (m *mapTopo) Neighbors(n netgraph.NodeID) []netgraph.NodeID {
	seen := make(map[netgraph.NodeID]bool)
	var out []netgraph.NodeID
	for _, lid := range m.ports[n] {
		l := m.link(lid)
		if !l.Up {
			continue
		}
		peer, _ := l.Peer(n)
		if !seen[peer] {
			seen[peer] = true
			out = append(out, peer)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *mapTopo) HostOfPort(sw netgraph.NodeID, p netgraph.PortNum) netgraph.NodeID {
	l := m.LinkAt(sw, p)
	if l == nil {
		return -1
	}
	peer, _ := l.Peer(sw)
	if m.t.Node(peer).Kind == netgraph.KindHost {
		return peer
	}
	return -1
}

func (m *mapTopo) AttachedSwitch(host netgraph.NodeID) (netgraph.NodeID, netgraph.PortNum) {
	best := netgraph.LinkID(-1)
	for _, lid := range m.ports[host] {
		if best == -1 || lid < best {
			best = lid
		}
	}
	if best == -1 {
		return -1, netgraph.NoPort
	}
	return m.link(best).Peer(host)
}

type refItem struct {
	node netgraph.NodeID
	dist float64
}

type refPQ []refItem

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(refItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

func (m *mapTopo) dijkstra(src netgraph.NodeID, cost netgraph.Cost, banned map[netgraph.LinkID]bool) ([]float64, []netgraph.NodeID) {
	n := m.t.NumNodes()
	dist := make([]float64, n)
	prev := make([]netgraph.NodeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	q := &refPQ{{node: src}}
	for q.Len() > 0 {
		it := heap.Pop(q).(refItem)
		if it.dist > dist[it.node] {
			continue
		}
		for _, p := range m.Ports(it.node) {
			lid := m.ports[it.node][p]
			l := m.link(lid)
			if !l.Up || banned[lid] {
				continue
			}
			c := cost(l)
			if math.IsInf(c, 1) {
				continue
			}
			peer, _ := l.Peer(it.node)
			nd := it.dist + c
			if nd < dist[peer] || (nd == dist[peer] && prev[peer] > it.node) {
				dist[peer] = nd
				prev[peer] = it.node
				heap.Push(q, refItem{node: peer, dist: nd})
			}
		}
	}
	return dist, prev
}

func trace(prev []netgraph.NodeID, src, dst netgraph.NodeID) netgraph.Path {
	var path netgraph.Path
	for at := dst; ; at = prev[at] {
		path = append(path, at)
		if at == src {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

func (m *mapTopo) ShortestPath(src, dst netgraph.NodeID, cost netgraph.Cost) netgraph.Path {
	dist, prev := m.dijkstra(src, cost, nil)
	if math.IsInf(dist[dst], 1) {
		return nil
	}
	return trace(prev, src, dst)
}

func (m *mapTopo) ECMPNextHops(dst netgraph.NodeID, cost netgraph.Cost) [][]netgraph.NodeID {
	dist, _ := m.dijkstra(dst, cost, nil)
	out := make([][]netgraph.NodeID, m.t.NumNodes())
	for v := range out {
		if math.IsInf(dist[v], 1) || netgraph.NodeID(v) == dst {
			continue
		}
		var hops []netgraph.NodeID
		seen := make(map[netgraph.NodeID]bool)
		for _, p := range m.Ports(netgraph.NodeID(v)) {
			l := m.LinkAt(netgraph.NodeID(v), p)
			if !l.Up {
				continue
			}
			u, _ := l.Peer(netgraph.NodeID(v))
			if !seen[u] && dist[u]+cost(l) <= dist[v]+1e-12 {
				hops = append(hops, u)
				seen[u] = true
			}
		}
		sort.Slice(hops, func(i, j int) bool { return hops[i] < hops[j] })
		out[v] = hops
	}
	return out
}

func (m *mapTopo) pathCost(p netgraph.Path, cost netgraph.Cost) float64 {
	total := 0.0
	for i := 0; i+1 < len(p); i++ {
		port := m.PortToward(p[i], p[i+1])
		if port == netgraph.NoPort {
			return math.Inf(1)
		}
		total += cost(m.LinkAt(p[i], port))
	}
	return total
}

// KShortestPaths is Yen's algorithm as the map-based Topology ran it.
func (m *mapTopo) KShortestPaths(src, dst netgraph.NodeID, k int, cost netgraph.Cost) []netgraph.Path {
	first := m.ShortestPath(src, dst, cost)
	if k <= 0 || first == nil {
		return nil
	}
	paths := []netgraph.Path{first}
	var candidates []netgraph.Path
	for len(paths) < k {
		prevPath := paths[len(paths)-1]
		for i := 0; i+1 < len(prevPath); i++ {
			spur, root := prevPath[i], prevPath[:i+1]
			banned := make(map[netgraph.LinkID]bool)
			for _, p := range paths {
				if len(p) > i+1 && netgraph.Path(p[:i+1]).Equal(root) {
					if port := m.PortToward(p[i], p[i+1]); port != netgraph.NoPort {
						banned[m.LinkAt(p[i], port).ID] = true
					}
				}
			}
			for _, rn := range root[:len(root)-1] {
				for _, lid := range m.ports[rn] {
					banned[lid] = true
				}
			}
			dist, prev := m.dijkstra(spur, cost, banned)
			if math.IsInf(dist[dst], 1) {
				continue
			}
			total := append(append(netgraph.Path{}, root[:len(root)-1]...), trace(prev, spur, dst)...)
			dup := false
			for _, c := range append(candidates, paths...) {
				dup = dup || c.Equal(total)
			}
			if !dup {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(i, j int) bool {
			ci, cj := m.pathCost(candidates[i], cost), m.pathCost(candidates[j], cost)
			if ci != cj {
				return ci < cj
			}
			a, b := candidates[i], candidates[j]
			for x := 0; x < len(a) && x < len(b); x++ {
				if a[x] != b[x] {
					return a[x] < b[x]
				}
			}
			return len(a) < len(b)
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

// randomMesh is RandomConnected plus parallel trunks, a multi-homed host,
// mixed trunk speeds and delays, and some links down.
func randomMesh(seed int64) *netgraph.Topology {
	t := netgraph.RandomConnected(24, 0.15, seed, netgraph.Gig, netgraph.TenGig)
	sw := t.Switches()
	for i := 0; i < 8; i++ {
		a, b := sw[(i*5)%len(sw)], sw[(i*11+3)%len(sw)]
		if a != b {
			t.Connect(a, b, float64(1+i)*1e9, simtime.Duration(1+i)*simtime.Microsecond)
			t.Connect(a, b, 1e9, simtime.Microsecond) // parallel
		}
	}
	h := t.Hosts()[0]
	t.Connect(sw[len(sw)-1], h, 1e9, simtime.Microsecond) // second uplink
	for i := 0; i < t.NumLinks(); i += 7 {
		t.SetLinkUp(netgraph.LinkID(i), false)
	}
	return t
}

func TestDenseAdjacencyMatchesMap(t *testing.T) {
	fab, err := ixp.Build(ixp.LargeIXP(60))
	if err != nil {
		t.Fatal(err)
	}
	topos := []struct {
		name string
		t    *netgraph.Topology
	}{
		{"fattree4", netgraph.FatTree(4, netgraph.Gig)},
		{"fattree8", netgraph.FatTree(8, netgraph.Gig)},
		{"leafspine", netgraph.LeafSpine(6, 3, 4, netgraph.Gig, netgraph.TenGig)},
		{"ixp60", fab.Topo},
		{"random1", randomMesh(1)},
		{"random2", randomMesh(2)},
	}
	costs := []struct {
		name string
		c    netgraph.Cost
	}{{"hop", netgraph.HopCost}, {"delay", netgraph.DelayCost}, {"invcap", netgraph.InverseCapacityCost}}

	for _, tc := range topos {
		t.Run(tc.name, func(t *testing.T) {
			g, ref := tc.t, newMapTopo(tc.t)
			check := func(what string, got, want any) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s = %v, map reference %v", what, got, want)
				}
			}
			nodes := g.Nodes()
			for _, n := range nodes {
				check(fmt.Sprintf("Ports(%d)", n), g.Node(n).Ports(), ref.Ports(n))
				for p := netgraph.PortNum(0); int(p) <= len(ref.ports[n])+1; p++ {
					check(fmt.Sprintf("LinkAt(%d, %d)", n, p), g.LinkAt(n, p), ref.LinkAt(n, p))
					check(fmt.Sprintf("HostOfPort(%d, %d)", n, p), g.HostOfPort(n, p), ref.HostOfPort(n, p))
				}
				check(fmt.Sprintf("Neighbors(%d)", n), g.Neighbors(n), ref.Neighbors(n))
				for _, m := range nodes {
					check(fmt.Sprintf("PortToward(%d, %d)", n, m), g.PortToward(n, m), ref.PortToward(n, m))
				}
			}
			for _, h := range g.Hosts() {
				sw, p := g.AttachedSwitch(h)
				rsw, rp := ref.AttachedSwitch(h)
				check(fmt.Sprintf("AttachedSwitch(%d)", h), [2]int64{int64(sw), int64(p)}, [2]int64{int64(rsw), int64(rp)})
			}
			hosts := g.Hosts()
			for _, c := range costs {
				for i, dst := range hosts {
					check(fmt.Sprintf("ECMPNextHops(%d, %s)", dst, c.name), g.ECMPNextHops(dst, c.c), ref.ECMPNextHops(dst, c.c))
					src := hosts[(i*7+3)%len(hosts)]
					check(fmt.Sprintf("ShortestPath(%d, %d, %s)", src, dst, c.name), g.ShortestPath(src, dst, c.c), ref.ShortestPath(src, dst, c.c))
					if i%4 == 0 {
						check(fmt.Sprintf("KShortestPaths(%d, %d, %s)", src, dst, c.name),
							g.KShortestPaths(src, dst, 4, c.c), ref.KShortestPaths(src, dst, 4, c.c))
					}
				}
			}
		})
	}
}
