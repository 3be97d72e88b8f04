package flowsim_test

import (
	"math"
	"testing"

	"horse/internal/addr"
	"horse/internal/controller"
	"horse/internal/dataplane"
	"horse/internal/fairshare"
	"horse/internal/flowsim"
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/packetsim"
	"horse/internal/simcore"
	"horse/internal/simtime"
	"horse/internal/traffic"
)

// rerouteRun is a reactive run stepped by hand: its kernel, the flow
// engine whose stored paths are checked, and its control plane.
type rerouteRun struct {
	k     *simcore.Kernel
	fs    *flowsim.Simulator
	plane *flowsim.ControlPlane
}

// newRerouteRun builds a ReactiveMAC run over topo on one control plane:
// the flow engine alone, or with every fourth demand on a packet engine
// beside it, coupled as the hybrid simulator couples them.
func newRerouteRun(topo *netgraph.Topology, app *controller.ReactiveMAC, tr traffic.Trace, hybrid bool) rerouteRun {
	d := flowsim.NewDriver("reroute", flowsim.Config{Topology: topo, Miss: dataplane.MissController, Controller: controller.NewChain(app)}, false)
	r := rerouteRun{k: d.Kernel(), plane: d.Plane()}
	var ps *packetsim.Simulator
	cfg := flowsim.Config{}
	if hybrid {
		cfg.OnRateShift = func(resources []fairshare.ResourceID) {
			for _, res := range resources {
				if link, fwd, ok := r.fs.ResourceLinkDir(res); ok {
					ps.SetExternalLoad(link, fwd, r.fs.LinkRateBps(link, fwd))
				}
			}
		}
	}
	r.fs = flowsim.NewOn(d, cfg)
	dense := func(i int) int32 { return -1 }
	if hybrid {
		ps = packetsim.NewOn(d, packetsim.Config{})
		dense = func(i int) int32 {
			if i%4 != 0 {
				return -1
			}
			return int32(i / 4)
		}
	}
	d.SetIntake(flowsim.Intake{Key: func(i int) uint64 {
		if d := dense(i); d >= 0 {
			return packetsim.FirstSendKey(int(d))
		}
		return flowsim.ArrivalKey(i)
	}, Admit: func(d *traffic.Demand, i int) {
		if n := dense(i); n >= 0 {
			ps.Admit(d, i, n)
		} else {
			r.fs.Admit(d, i)
		}
	}})
	d.Load(tr)
	r.plane.Start()
	r.fs.Begin()
	if ps != nil {
		ps.Begin()
	}
	return r
}

// TestStoredPathsStayCurrent steps reactive runs — flow level and hybrid,
// calm and with a link outage and idle expiries — and checks at every
// step that each active flow's stored hops, entries, meters and exit key
// are what a fresh walk of the network gives. A rule install readmits
// most flows at its switch without a walk; a flow it could redirect that
// it left unwalked shows here as a stale path.
func TestStoredPathsStayCurrent(t *testing.T) {
	const step = simtime.Millisecond
	for _, tc := range []struct {
		name     string
		hybrid   bool
		dynamics bool
	}{
		{"flow", false, false},
		{"flow-failure-expiry", false, true},
		{"hybrid", true, false},
		{"hybrid-failure-expiry", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := netgraph.LeafSpine(4, 2, 4, netgraph.Gig, netgraph.TenGig)
			tr := traffic.NewGenerator(3).PoissonArrivals(traffic.PoissonConfig{
				Hosts: topo.Hosts(), Lambda: 2000, Horizon: 200 * simtime.Millisecond,
				Sizes: traffic.FixedSize(5e6), TCPFraction: 0.5, CBRRateBps: 2e7,
			})
			app := &controller.ReactiveMAC{}
			if tc.dynamics {
				app.IdleTimeout = 10 * simtime.Millisecond
			}
			r := newRerouteRun(topo, app, tr, tc.hybrid)
			if tc.dynamics {
				trunk := topo.LinkAt(topo.Switches()[0], topo.PortToward(topo.Switches()[0], topo.Switches()[len(topo.Switches())-1]))
				if trunk == nil {
					t.Fatal("no trunk link between the first leaf and the last spine")
				}
				r.plane.ScheduleLinkChange(simtime.Time(60*simtime.Millisecond), trunk.ID, false)
				r.plane.ScheduleLinkChange(simtime.Time(120*simtime.Millisecond), trunk.ID, true)
			}
			checked := 0
			for at := simtime.Time(step); at <= simtime.Time(400*simtime.Millisecond); at += simtime.Time(step) {
				r.k.Run(at)
				if err := r.fs.StalePath(); err != nil {
					t.Fatal(err)
				}
				checked++
			}
			r.fs.Finish()
			col := r.fs.Collector()
			if col.FlowMods == 0 || col.PacketIns == 0 {
				t.Fatalf("%d FlowMods, %d PacketIns: the run is not reactive", col.FlowMods, col.PacketIns)
			}
			t.Logf("%d steps, %d walks for %d flows, %d FlowMods", checked, r.fs.Walks(), len(tr), col.FlowMods)
		})
	}
}

// TestRuleInstallWalksOnlyItsDestination: a FlowAdd matching one EthDst
// walks exactly the flows at its switch bound for that destination; a
// FlowAdd without an EthDst walks every flow there.
func TestRuleInstallWalksOnlyItsDestination(t *testing.T) {
	topo := netgraph.LeafSpine(2, 2, 4, netgraph.Gig, netgraph.TenGig)
	hosts := topo.Hosts()
	var tr traffic.Trace
	for _, a := range hosts {
		for _, b := range hosts {
			if a != b {
				tr = append(tr, traffic.Demand{
					Key: addr.FlowKeyBetween(a, b, 6, 1000, 80), Src: a, Dst: b,
					Start: simtime.Time(2 * simtime.Millisecond), SizeBits: math.Inf(1), RateBps: 1e6,
				})
			}
		}
	}
	fs := flowsim.New(flowsim.Config{Topology: topo, Miss: dataplane.MissController, Controller: controller.NewChain(&controller.ProactiveMAC{})})
	k, plane := fs.Kernel(), fs.Plane()
	fs.Load(tr)
	plane.Start()
	fs.Begin()
	k.Run(simtime.Time(5 * simtime.Millisecond))

	// The flows crossing the first host's leaf, and those of them bound for
	// the last host.
	leaf, _ := topo.AttachedSwitch(hosts[0])
	dst := hosts[len(hosts)-1]
	var out netgraph.PortNum
	atLeaf, toDst := 0, 0
	for _, d := range tr {
		res := plane.Network().Walk(d.Key, d.Src, d.Dst)
		if res.Terminal != dataplane.Delivered {
			t.Fatalf("flow %d→%d is %v before the installs", d.Src, d.Dst, res.Terminal)
		}
		for _, h := range res.Hops {
			if h.Switch == leaf {
				atLeaf++
				if d.Dst == dst {
					toDst++
					out = h.OutPort
				}
				break
			}
		}
	}
	if toDst == 0 || toDst == atLeaf {
		t.Fatalf("%d of the %d flows at the leaf go to the destination: the check needs some, not all", toDst, atLeaf)
	}

	for _, c := range []struct {
		match header.Match
		want  int
	}{
		{header.Match{}.WithEthDst(addr.HostMAC(dst)), toDst},
		{header.Match{}.WithEthType(0x86dd), atLeaf},
	} {
		before := fs.Walks()
		plane.SendToSwitch(&openflow.FlowMod{
			Switch: leaf, Op: openflow.FlowAdd, Table: controller.TableForwarding,
			Priority: controller.PrioForwarding + 1, Match: c.match,
			Instr: openflow.Apply(openflow.Output(out)),
		})
		k.Run(k.Now() + simtime.Time(2*simtime.Millisecond))
		if got := fs.Walks() - before; got != c.want {
			t.Errorf("a FlowAdd matching %v at the leaf walked %d flows, want %d (%d flows there)", c.match, got, c.want, atLeaf)
		}
		if err := fs.StalePath(); err != nil {
			t.Error(err)
		}
	}
	fs.Finish()
}
