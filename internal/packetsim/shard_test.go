package packetsim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"horse/internal/addr"
	"horse/internal/controller"
	"horse/internal/dataplane"
	"horse/internal/eventq"
	"horse/internal/flowsim"
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

// goldenFatTree is the golden E3-style scenario of the shard determinism
// contract: a k=4 fat-tree with a mixed CBR/TCP cross-pod workload.
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

type shardRunResult struct {
	records []stats.FlowRecord
	samples []stats.LinkSample
	started uint64
	lost    uint64
	punts   uint64
	mods    uint64
	hops    uint64
}

func snapshot(s *Simulator, col *stats.Collector) shardRunResult {
	return shardRunResult{
		records: col.Flows(),
		samples: col.LinkSeries(),
		started: col.FlowsStarted,
		lost:    col.PacketsLost,
		punts:   col.PacketIns,
		mods:    col.FlowMods,
		hops:    s.PacketsForwarded(),
	}
}

// runGolden runs the golden fat-tree (pre-installed routes, no
// controller, stats sampling on) at the given shard count.
func runGolden(shards int) shardRunResult {
	return runGoldenQueue(shards, eventq.BackendHeap)
}

// runGoldenQueue is runGolden with an explicit event-queue backend.
func runGoldenQueue(shards int, q eventq.Backend) shardRunResult {
	topo, tr := goldenFatTree()
	sim := New(Config{
		Topology: topo, Miss: dataplane.MissDrop, Shards: shards,
		StatsEvery: 20 * simtime.Millisecond,
		EventQueue: q,
	})
	installMACRoutes(sim.Network())
	sim.Load(tr)
	col := mustRun(sim, simtime.Time(2*simtime.Second))
	return snapshot(sim, col)
}

// runFailures runs an E8-style disturbed scenario — a control plane
// plus scripted link failures and a switch crash/restart — at the given
// shard count. The E8 policies both matter here: ProactiveMAC's
// single-path forwarding loses packets and reconverges through the
// controller, while ECMPLoadBalancer's Start captures the context for
// After-timer work — in sharded runs those closures must run against
// shard 0's clock and routing, which this scenario exercises across
// every barrier.
func runFailures(shards int, mk func() controller.App) shardRunResult {
	topo, tr := goldenFatTree()
	sim := New(Config{
		Topology: topo, Miss: dataplane.MissController, Shards: shards,
		Controller:     controller.NewChain(mk()),
		ControlLatency: simtime.Millisecond,
	})
	// Fail two core-facing links mid-run (with recovery) and crash one
	// aggregation switch across a window of the workload.
	links := topo.Links()
	var core []netgraph.LinkID
	for _, l := range links {
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
	sim.Load(tr)
	col := mustRun(sim, simtime.Time(2*simtime.Second))
	return snapshot(sim, col)
}

func diffRuns(t *testing.T, name string, want, got shardRunResult, shards int) {
	t.Helper()
	if !reflect.DeepEqual(want.records, got.records) {
		for i := range want.records {
			if i < len(got.records) && want.records[i] != got.records[i] {
				t.Errorf("%s shards=%d: record %d differs:\n serial %+v\nsharded %+v",
					name, shards, i, want.records[i], got.records[i])
				return
			}
		}
		t.Errorf("%s shards=%d: %d records vs %d", name, shards, len(want.records), len(got.records))
		return
	}
	if !reflect.DeepEqual(want.samples, got.samples) {
		t.Errorf("%s shards=%d: link sample series diverged (%d vs %d samples)",
			name, shards, len(want.samples), len(got.samples))
	}
	if want.started != got.started || want.lost != got.lost || want.punts != got.punts ||
		want.mods != got.mods || want.hops != got.hops {
		t.Errorf("%s shards=%d: counters diverged: serial %+v sharded %+v", name, shards, want, got)
	}
}

// TestShardDeterminismGolden is the acceptance contract of the sharded
// executor: Records(), the sample series, and every counter are
// byte-identical to the serial engine for Shards ∈ {1, 2, 4, 8}, and
// repeat runs reproduce themselves.
func TestShardDeterminismGolden(t *testing.T) {
	serial := runGolden(0)
	if len(serial.records) == 0 {
		t.Fatal("golden scenario produced no records")
	}
	completed := 0
	for _, r := range serial.records {
		if r.Completed {
			completed++
		}
	}
	if completed == 0 {
		t.Fatal("golden scenario completed no flows")
	}
	for _, shards := range []int{1, 2, 4, 8} {
		diffRuns(t, "golden", serial, runGolden(shards), shards)
	}
	// Repeatability at a fixed shard count.
	diffRuns(t, "golden-repeat", runGolden(4), runGolden(4), 4)
}

// TestShardDeterminismLateTraffic delays the golden workload so its first
// arrival coincides with ProactiveMAC's pre-installed FlowMods at
// ControlLatency: the same-instant install/data tie must resolve in the
// serial class order (ClassToSwitch before data) at every shard count.
// TestShardPreRunExchange covers the sharper pre-run-delivery hazard.
func TestShardDeterminismLateTraffic(t *testing.T) {
	run := func(shards int) shardRunResult {
		topo, tr := goldenFatTree()
		for i := range tr {
			tr[i].Start += simtime.Time(simtime.Millisecond)
		}
		sim := New(Config{
			Topology: topo, Miss: dataplane.MissController, Shards: shards,
			Controller:     controller.NewChain(&controller.ProactiveMAC{}),
			ControlLatency: simtime.Millisecond,
		})
		sim.Load(tr)
		col := mustRun(sim, simtime.Time(2*simtime.Second))
		return snapshot(sim, col)
	}
	serial := run(0)
	if serial.mods == 0 {
		t.Fatal("ProactiveMAC installed nothing")
	}
	for _, shards := range []int{2, 4, 8} {
		diffRuns(t, "late-traffic", serial, run(shards), shards)
	}
}

// remoteInstall is a minimal controller whose Start installs exactly one
// forwarding rule on one switch — none on shard 0's switches — so the
// pre-run cross-shard exchange is the only thing standing between the
// install and a table miss.
type remoteInstall struct {
	sw  netgraph.NodeID
	dst netgraph.NodeID
	out netgraph.PortNum
}

func (r *remoteInstall) Name() string { return "remote-install" }
func (r *remoteInstall) Start(ctx *flowsim.Context) {
	ctx.Send(&openflow.FlowMod{
		Switch: r.sw, Op: openflow.FlowAdd, Table: 0, Priority: 1,
		Match: header.Match{}.WithEthDst(addr.HostMAC(r.dst)),
		Instr: openflow.Apply(openflow.Output(r.out)),
	})
}
func (r *remoteInstall) Handle(*flowsim.Context, openflow.Message) {}

// TestShardPreRunExchange pins delivery of cross-shard events generated
// before the first window (controller Start hooks): the only install
// targets a remote shard's switch, clone 0's kernel holds nothing, and
// the flow's first packet reaches that switch inside the first window —
// if the parked FlowMod is delivered a barrier late, the packet misses an
// empty table and punts, which the serial engine never does.
func TestShardPreRunExchange(t *testing.T) {
	const (
		cutDelay    = 100 * simtime.Microsecond
		accessDelay = simtime.Microsecond
		ctrlLatency = 200 * simtime.Microsecond
	)
	build := func() (*netgraph.Topology, [2]netgraph.NodeID, [2][]netgraph.NodeID) {
		topo := netgraph.New()
		sw0, sw1 := topo.AddSwitch("sw0"), topo.AddSwitch("sw1")
		topo.Connect(sw0, sw1, netgraph.Gig.BandwidthBps, cutDelay)
		hosts := [2][]netgraph.NodeID{}
		for i, sw := range []netgraph.NodeID{sw0, sw1} {
			for j := 0; j < 2; j++ {
				h := topo.AddHost(fmt.Sprintf("h%d_%d", i, j))
				topo.Connect(sw, h, netgraph.Gig.BandwidthBps, accessDelay)
				hosts[i] = append(hosts[i], h)
			}
		}
		return topo, [2]netgraph.NodeID{sw0, sw1}, hosts
	}
	// Probe the deterministic partition to find a switch outside shard 0.
	topo, sws, _ := build()
	probe := New(Config{Topology: topo, Shards: 2})
	if probe.nshards != 2 {
		t.Fatalf("probe did not shard: nshards=%d", probe.nshards)
	}
	remote := 0
	if probe.partOf[sws[0]] == 0 {
		remote = 1
	}
	if probe.partOf[sws[remote]] == 0 {
		t.Fatalf("both switches landed on shard 0: partOf=%v", probe.partOf)
	}

	run := func(shards int) shardRunResult {
		topo, sws, hosts := build()
		src, dst := hosts[remote][0], hosts[remote][1]
		ctrl := &remoteInstall{
			sw: sws[remote], dst: dst,
			out: topo.PortToward(sws[remote], dst),
		}
		sim := New(Config{
			Topology: topo, Miss: dataplane.MissController, Shards: shards,
			Controller:     controller.NewChain(ctrl),
			ControlLatency: ctrlLatency,
		})
		tr := traffic.Trace{cbr(src, dst, simtime.Time(ctrlLatency+10*simtime.Microsecond), 24000, 1e8)}
		sim.Load(tr)
		col := mustRun(sim, simtime.Time(simtime.Second))
		return snapshot(sim, col)
	}
	serial := run(0)
	if len(serial.records) != 1 || !serial.records[0].Completed {
		t.Fatalf("serial run must complete the flow: %+v", serial.records)
	}
	diffRuns(t, "pre-run-exchange", serial, run(2), 2)
}

// TestShardDeterminismFailures replays the E8-style scripted-failure
// scenario (reconvergence, packet loss, switch crash) across shard
// counts, under both E8 policies.
func TestShardDeterminismFailures(t *testing.T) {
	policies := []struct {
		name string
		mk   func() controller.App
	}{
		{"forwarding", func() controller.App { return &controller.ProactiveMAC{} }},
		{"loadbalance", func() controller.App { return &controller.ECMPLoadBalancer{} }},
	}
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			serial := runFailures(0, pol.mk)
			if pol.name == "forwarding" && serial.lost == 0 {
				t.Fatal("failure scenario lost no packets; the scripted outages missed the traffic")
			}
			if serial.mods == 0 {
				t.Fatal("control plane installed nothing")
			}
			for _, shards := range []int{1, 2, 4, 8} {
				diffRuns(t, "failures/"+pol.name, serial, runFailures(shards, pol.mk), shards)
			}
			diffRuns(t, "failures-repeat/"+pol.name, runFailures(4, pol.mk), runFailures(4, pol.mk), 4)
		})
	}
}

// TestShardDeterminismBackends crosses the executor contract with the
// event-queue backend: the golden scenario must reproduce the serial
// heap run byte-for-byte at Shards ∈ {1, 4} × backend ∈ {heap, wheel}.
// Each per-shard kernel owns a queue of the selected backend, and true
// timer cancellation (RTOs, expiry checks) must not perturb dispatch
// order at any shard count.
func TestShardDeterminismBackends(t *testing.T) {
	serial := runGolden(0)
	if len(serial.records) == 0 {
		t.Fatal("golden scenario produced no records")
	}
	for _, q := range []eventq.Backend{eventq.BackendHeap, eventq.BackendWheel} {
		for _, shards := range []int{1, 4} {
			diffRuns(t, "backend/"+q.String(), serial, runGoldenQueue(shards, q), shards)
		}
	}
}

// TestShardedActuallyShards guards against the silent-serial-fallback
// failure mode: on the fat-tree the partition must be real (multiple
// shards, a non-empty cut with positive lookahead).
func TestShardedActuallyShards(t *testing.T) {
	topo, _ := goldenFatTree()
	sim := New(Config{Topology: topo, Miss: dataplane.MissDrop, Shards: 4})
	if sim.nshards != 4 {
		t.Fatalf("effective shards = %d, want 4", sim.nshards)
	}
	if sim.lookahead <= 0 {
		t.Fatalf("lookahead = %v, want positive", sim.lookahead)
	}
	if cut := netgraph.CutSize(topo, sim.partOf); cut == 0 {
		t.Fatal("partition has an empty cut on a connected fat-tree")
	}
	counts := make(map[int32]int)
	for _, sw := range topo.Switches() {
		counts[sim.partOf[sw]]++
	}
	for p, n := range counts {
		if n == 0 {
			t.Errorf("part %d owns no switches", p)
		}
	}
}

// TestCollectorRunCounters pins that a Packet run fills the same run
// counters a Flow or Hybrid run does: EventsRun is the dispatch count
// summed over shards, and FlowsCompleted tallies the completed records —
// both used to read 0.
func TestCollectorRunCounters(t *testing.T) {
	for _, shards := range []int{1, 2} {
		topo, tr := goldenFatTree()
		sim := New(Config{Topology: topo, Miss: dataplane.MissDrop, Shards: shards})
		installMACRoutes(sim.Network())
		sim.Load(tr)
		col := mustRun(sim, simtime.Time(2*simtime.Second))
		if col.EventsRun == 0 || col.EventsRun != sim.EventsDispatched() {
			t.Errorf("K=%d: EventsRun = %d, want EventsDispatched() = %d", shards, col.EventsRun, sim.EventsDispatched())
		}
		var completed uint64
		for _, r := range col.Flows() {
			if r.Completed {
				completed++
			}
		}
		if completed == 0 || col.FlowsCompleted != completed {
			t.Errorf("K=%d: FlowsCompleted = %d, want %d completed records", shards, col.FlowsCompleted, completed)
		}
	}
}
