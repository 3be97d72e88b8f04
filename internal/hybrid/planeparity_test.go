package hybrid

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"horse/internal/addr"
	"horse/internal/controller"
	"horse/internal/dataplane"
	"horse/internal/flowsim"
	"horse/internal/header"
	"horse/internal/linkmodel"
	"horse/internal/netgraph"
	"horse/internal/packetsim"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

// diffPlane fails t unless got reproduces want on everything a run
// reports: the records (want's sorted by ID first when byID, since a
// flow-level run emits in completion order and the hybrid in ID order),
// the full Counters() including EventsRun, the link series and the
// reroute times.
func diffPlane(t *testing.T, want, got *stats.Collector, byID bool) {
	t.Helper()
	rw, rg := want.Flows(), got.Flows()
	if byID {
		rw = slices.Clone(rw)
		slices.SortFunc(rw, func(a, b stats.FlowRecord) int { return cmp.Compare(a.ID, b.ID) })
	}
	if len(rw) != len(rg) {
		t.Errorf("records: want %d, got %d", len(rw), len(rg))
	}
	for i := range min(len(rw), len(rg)) {
		if rw[i] != rg[i] {
			t.Errorf("record %d:\nwant %+v\n got %+v", i, rw[i], rg[i])
		}
	}
	if cw, cg := want.Counters(), got.Counters(); cw != cg {
		t.Errorf("counters:\nwant %+v\n got %+v", cw, cg)
	}
	if !slices.Equal(want.LinkSeries(), got.LinkSeries()) {
		t.Errorf("link series: want %d samples, got %d (or they differ)", len(want.LinkSeries()), len(got.LinkSeries()))
	}
	if !slices.Equal(want.RerouteTimes(), got.RerouteTimes()) {
		t.Errorf("reroute times: want %v, got %v", want.RerouteTimes(), got.RerouteTimes())
	}
}

// planeCase is one FuzzPlaneParity input, decoded: a topology, an
// unsorted trace, the dynamics to script, and the control setup.
type planeCase struct {
	topo     *netgraph.Topology
	tr       traffic.Trace
	script   func(d dynamics)
	reactive bool
	until    simtime.Time
}

// buildPlaneCase decodes a fuzz input. The topology is a random tree over
// 1–16 switches plus a few chords, with 2–6 hosts on random switches; the
// trace holds 1–10 demands in random (not start) order, starts on a 1 ms
// grid so ties occur; each bit of script adds one kind of dynamics on a
// random element.
func buildPlaneCase(seed int64, switches, demands, script uint8, reactive bool) planeCase {
	rng := rand.New(rand.NewSource(seed))
	ms := func(n int) simtime.Time { return simtime.Time(n) * simtime.Time(simtime.Millisecond) }
	link := func(topo *netgraph.Topology, a, b netgraph.NodeID) {
		bw := []float64{1e8, 1e9}[rng.Intn(2)]
		delay := []simtime.Duration{10 * simtime.Microsecond, 100 * simtime.Microsecond, simtime.Millisecond}[rng.Intn(3)]
		topo.Connect(a, b, bw, delay)
	}

	topo := netgraph.New()
	n := 1 + int(switches%16)
	sw := make([]netgraph.NodeID, n)
	for i := range sw {
		sw[i] = topo.AddSwitch(fmt.Sprintf("s%d", i))
		if i > 0 {
			link(topo, sw[rng.Intn(i)], sw[i])
		}
	}
	for range rng.Intn(n/2 + 1) {
		if a, b := rng.Intn(n), rng.Intn(n); a != b {
			link(topo, sw[a], sw[b])
		}
	}
	hosts := make([]netgraph.NodeID, 2+rng.Intn(5))
	for i := range hosts {
		hosts[i] = topo.AddHost(fmt.Sprintf("h%d", i))
		link(topo, hosts[i], sw[rng.Intn(n)])
	}

	var tr traffic.Trace
	for i := range 1 + int(demands%10) {
		src := rng.Intn(len(hosts))
		dst := (src + 1 + rng.Intn(len(hosts)-1)) % len(hosts)
		d := cbr(hosts[src], hosts[dst], ms(rng.Intn(30)), float64(1+rng.Intn(200))*1e4,
			[]float64{1e7, 5e7, 2e8}[rng.Intn(3)], uint16(30000+i))
		if rng.Intn(2) == 0 {
			d.TCP, d.RateBps, d.Key.Proto = true, math.Inf(1), header.ProtoTCP
			d.Key = addr.FlowKeyBetween(d.Src, d.Dst, header.ProtoTCP, uint16(30000+i), 80)
		}
		tr = append(tr, d)
	}

	links := topo.Links()
	at := func() simtime.Time { return ms(rng.Intn(40)) }
	var steps []func(d dynamics)
	if script&1 != 0 {
		l, down := links[rng.Intn(len(links))].ID, at()
		steps = append(steps, func(d dynamics) {
			d.ScheduleLinkChange(down, l, false)
			d.ScheduleLinkChange(down+ms(5), l, true)
		})
	}
	if script&2 != 0 {
		s, down := sw[rng.Intn(n)], at()
		steps = append(steps, func(d dynamics) {
			d.ScheduleSwitchChange(down, s, false)
			d.ScheduleSwitchChange(down+ms(3), s, true)
		})
	}
	if script&4 != 0 {
		off := at()
		steps = append(steps, func(d dynamics) {
			d.ScheduleControllerChange(off, false)
			d.ScheduleControllerChange(off+ms(8), true)
		})
	}
	if script&8 != 0 {
		l, from := links[rng.Intn(len(links))].ID, at()
		steps = append(steps, func(d dynamics) {
			d.ScheduleLinkDegrade(from, l, linkmodel.BernoulliLoss{P: 0.2})
			d.ScheduleLinkDegrade(from+ms(10), l, nil)
		})
	}
	return planeCase{
		topo: topo, tr: tr, reactive: reactive, until: ms(200),
		script: func(d dynamics) {
			for _, step := range steps {
				step(d)
			}
		},
	}
}

// controller returns a fresh controller for table-miss punts:
// ReactiveMAC, or ProactiveMAC over MAC routes installed before the run
// (so traffic moves before its first FlowMods land).
func (c planeCase) controller() flowsim.Controller {
	if c.reactive {
		return controller.NewChain(&controller.ReactiveMAC{})
	}
	return controller.NewChain(&controller.ProactiveMAC{})
}

// preinstall installs the proactive case's routes on net.
func (c planeCase) preinstall(net *dataplane.Network) {
	if !c.reactive {
		dataplane.InstallMACRoutes(net)
	}
}

// runHybrid runs the case on the hybrid engine at packet fraction p.
func (c planeCase) runHybrid(p float64, statsEvery simtime.Duration) *stats.Collector {
	hyb := New(Config{
		Topology: c.topo, Miss: dataplane.MissController, Controller: c.controller(), StatsEvery: statsEvery,
		PacketLevel: Fraction(p),
	})
	c.preinstall(hyb.Network())
	hyb.Load(c.tr)
	c.script(hyb)
	return mustRun(hyb, c.until)
}

// FuzzPlaneParity holds the hybrid to the engine it reduces to on the one
// control plane: at 0 % packet fidelity it is the flow engine (records
// compared by ID), at 100 % the packet engine (record for record) — on
// full counters, link series and reroute times — over random small
// topologies, unsorted traces and scripted link flaps, switch crashes,
// controller detaches and link models, under a reactive and a proactive
// controller. The 100 % arm samples no link series: the hybrid samples
// only the flow engine's links.
func FuzzPlaneParity(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(6), uint8(0), true)
	f.Add(int64(2), uint8(5), uint8(9), uint8(1), false)
	f.Add(int64(3), uint8(8), uint8(7), uint8(2), true)
	f.Add(int64(4), uint8(2), uint8(5), uint8(4), true)
	f.Add(int64(5), uint8(4), uint8(9), uint8(8), false)
	f.Add(int64(6), uint8(15), uint8(9), uint8(15), true)
	f.Add(int64(7), uint8(0), uint8(3), uint8(5), false)
	f.Fuzz(func(t *testing.T, seed int64, switches, demands, script uint8, reactive bool) {
		// Every run gets its own copy of the case.
		fresh := func() planeCase { return buildPlaneCase(seed, switches, demands, script, reactive) }
		const statsEvery = 5 * simtime.Millisecond
		t.Run("flow", func(t *testing.T) {
			c := fresh()
			flow := flowsim.New(flowsim.Config{
				Topology: c.topo, Miss: dataplane.MissController, Controller: c.controller(), StatsEvery: statsEvery,
			})
			c.preinstall(flow.Network())
			flow.Load(c.tr)
			c.script(flow)
			diffPlane(t, mustRun(flow, c.until), fresh().runHybrid(0, statsEvery), true)
		})
		t.Run("packet", func(t *testing.T) {
			c := fresh()
			pkt := packetsim.New(packetsim.Config{Topology: c.topo, Miss: dataplane.MissController, Controller: c.controller()})
			c.preinstall(pkt.Network())
			pkt.Load(c.tr)
			c.script(pkt)
			diffPlane(t, mustRun(pkt, c.until), fresh().runHybrid(1, 0), false)
		})
	})
}
