package packetsim

import (
	"math"
	"reflect"
	"testing"

	"horse/internal/controller"
	"horse/internal/dataplane"
	"horse/internal/eventq"
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/simcore"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

// goldenFatTree is the golden E3-style scenario of the packet engine's
// determinism tests: a k=4 fat-tree with a mixed CBR/TCP cross-pod
// workload.
func goldenFatTree() (*netgraph.Topology, traffic.Trace) {
	topo := netgraph.FatTree(4, netgraph.Gig)
	hosts := topo.Hosts()
	n := len(hosts)
	var tr traffic.Trace
	for i := 0; i < 12; i++ {
		src := hosts[i%n]
		dst := hosts[(i+n/2)%n]
		d := cbr(src, dst, simtime.Time(i)*simtime.Time(7*simtime.Millisecond), 2e6, 5e7)
		d.Key.SrcPort = uint16(33000 + i)
		if i%3 == 1 {
			d.TCP = true
			d.RateBps = math.Inf(1)
			d.Key.Proto = header.ProtoTCP
		}
		tr = append(tr, d)
	}
	tr.Sort()
	return topo, tr
}

// runResult is everything a determinism test compares between two runs.
type runResult struct {
	records []stats.FlowRecord
	samples []stats.LinkSample
	started uint64
	lost    uint64
	punts   uint64
	mods    uint64
	hops    uint64
	events  uint64
}

func snapshot(s *Simulator, col *stats.Collector) runResult {
	return runResult{
		records: col.Flows(),
		samples: col.LinkSeries(),
		started: col.FlowsStarted,
		lost:    col.PacketsLost,
		punts:   col.PacketIns,
		mods:    col.FlowMods,
		hops:    s.PacketsForwarded(),
		events:  col.EventsRun,
	}
}

// streamOpts selects the bounded-memory variants of a run: feeding the
// workload through a traffic.Reader instead of Load, and/or draining
// records through SetRecordSink instead of the retained collector; queue
// picks the kernel's (the heap oracle or the default wheel).
type streamOpts struct {
	reader bool
	sink   bool
	queue  eventq.Backend
}

// runStreamed loads tr into sim (or streams it, per opt), runs to 2 s and
// snapshots the result, taking the records from the sink when one is
// installed.
func runStreamed(sim *Simulator, tr traffic.Trace, opt streamOpts) runResult {
	var streamed []stats.FlowRecord
	if opt.sink {
		sim.SetRecordSink(func(r stats.FlowRecord) { streamed = append(streamed, r) })
	}
	if opt.reader {
		sim.SetTraceReader(traffic.TraceReader(tr))
	} else {
		sim.Load(tr)
	}
	col := mustRun(sim, simtime.Time(2*simtime.Second))
	res := snapshot(sim, col)
	if opt.sink {
		if n := len(col.Flows()); n != 0 {
			panic("sink mode retained records in the collector")
		}
		res.records = streamed
	}
	return res
}

// runGolden runs the golden fat-tree (pre-installed routes, no
// controller, stats sampling on).
func runGolden(opt streamOpts) runResult {
	topo, tr := goldenFatTree()
	sim := newOwn(simcore.New(simcore.Config{Backend: opt.queue}), Config{
		Topology: topo, Miss: dataplane.MissDrop,
		StatsEvery: 20 * simtime.Millisecond,
	})
	dataplane.InstallMACRoutes(sim.Network())
	return runStreamed(sim, tr, opt)
}

// runFailures runs an E8-style disturbed scenario — a control plane
// plus scripted link failures and a switch crash/restart. The E8
// policies both matter here: ProactiveMAC's single-path forwarding loses
// packets and reconverges through the controller, while
// ECMPLoadBalancer's Start captures the context for After-timer work.
func runFailures(mk func() controller.App, opt streamOpts) runResult {
	topo, tr := goldenFatTree()
	sim := newOwn(simcore.New(simcore.Config{Backend: opt.queue}), Config{
		Topology: topo, Miss: dataplane.MissController,
		Controller:     controller.NewChain(mk()),
		ControlLatency: simtime.Millisecond,
	})
	scriptFailures(sim, topo)
	return runStreamed(sim, tr, opt)
}

// scriptFailures fails two core-facing links mid-run (with recovery) and
// crashes one aggregation switch across a window of the golden workload.
func scriptFailures(sim *Simulator, topo *netgraph.Topology) {
	var core []netgraph.LinkID
	for _, l := range topo.Links() {
		if topo.Node(l.A).Kind == netgraph.KindSwitch && topo.Node(l.B).Kind == netgraph.KindSwitch {
			core = append(core, l.ID)
		}
	}
	sim.ScheduleLinkChange(simtime.Time(15*simtime.Millisecond), core[0], false)
	sim.ScheduleLinkChange(simtime.Time(60*simtime.Millisecond), core[0], true)
	sim.ScheduleLinkChange(simtime.Time(40*simtime.Millisecond), core[len(core)/2], false)
	sim.ScheduleLinkChange(simtime.Time(90*simtime.Millisecond), core[len(core)/2], true)
	agg := topo.MustLookup("agg1_0")
	sim.ScheduleSwitchChange(simtime.Time(30*simtime.Millisecond), agg, false)
	sim.ScheduleSwitchChange(simtime.Time(75*simtime.Millisecond), agg, true)
}

func diffRuns(t *testing.T, name string, want, got runResult) {
	t.Helper()
	if !reflect.DeepEqual(want.records, got.records) {
		for i := range want.records {
			if i < len(got.records) && want.records[i] != got.records[i] {
				t.Errorf("%s: record %d differs:\nwant %+v\n got %+v",
					name, i, want.records[i], got.records[i])
				return
			}
		}
		t.Errorf("%s: %d records vs %d", name, len(want.records), len(got.records))
		return
	}
	if !reflect.DeepEqual(want.samples, got.samples) {
		t.Errorf("%s: link sample series diverged (%d vs %d samples)",
			name, len(want.samples), len(got.samples))
	}
	if want.started != got.started || want.lost != got.lost || want.punts != got.punts ||
		want.mods != got.mods || want.hops != got.hops || want.events != got.events {
		t.Errorf("%s: counters diverged: want %+v got %+v", name, want, got)
	}
}
