package packetsim_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"horse"
	"horse/api/wire"
	"horse/internal/addr"
	"horse/internal/controller"
	"horse/internal/flowsim"
	"horse/internal/header"
	"horse/internal/linkmodel"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/packetsim"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

// These tests pin the compatibility contract of the shard options on the
// Packet engine: WithShards(k) and the horse-wire/v1 fields shards,
// shard_workers and shard_balancing are validated and otherwise ignored,
// so every run they configure is the serial engine's run, byte for byte —
// records, link samples and every counter — on scenarios that stress the
// control plane, failures, link models and skewed load.

// engineOptions maps horse-wire/v1 shard fields (the zero value sets
// none) to the façade options of a Packet engine.
func engineOptions(shard wire.OptionsSpec) ([]horse.Option, error) {
	shard.Fidelity = wire.FidelityPacket
	return horse.SpecOptions(shard)
}

// newEngine builds a Packet engine on topo through the façade from the
// shard fields plus extra options, and checks that it runs serial.
func newEngine(tb testing.TB, topo *netgraph.Topology, shard wire.OptionsSpec, extra ...horse.Option) *packetsim.Simulator {
	tb.Helper()
	opts, err := engineOptions(shard)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := horse.New(topo, append(opts, extra...)...)
	if err != nil {
		tb.Fatal(err)
	}
	sim := eng.(*packetsim.Simulator)
	if loads := sim.ShardLoads(); loads != nil {
		tb.Fatalf("ShardLoads() = %v on %+v, want nil: the engine is serial", loads, shard)
	}
	return sim
}

func shards(k int) wire.OptionsSpec { return wire.OptionsSpec{Shards: k} }

func balanced(k int, mode string) wire.OptionsSpec {
	return wire.OptionsSpec{Shards: k, ShardBalancing: mode}
}

// runEngine loads tr, runs to until and snapshots the result.
func runEngine(tb testing.TB, sim *packetsim.Simulator, tr traffic.Trace, until simtime.Time) (packetsim.RunResult, *stats.Collector) {
	tb.Helper()
	sim.Load(tr)
	col, err := sim.Run(context.Background(), until)
	if err != nil {
		tb.Fatal(err)
	}
	return packetsim.Snapshot(sim, col), col
}

const goldenUntil = simtime.Time(2 * simtime.Second)

// runGolden runs the golden fat-tree (pre-installed routes, no
// controller, stats sampling on) with the given shard fields.
func runGolden(tb testing.TB, shard wire.OptionsSpec, extra ...horse.Option) (packetsim.RunResult, *stats.Collector) {
	topo, tr := packetsim.GoldenFatTree()
	opts := append([]horse.Option{horse.WithStatsEvery(20 * simtime.Millisecond)}, extra...)
	sim := newEngine(tb, topo, shard, opts...)
	horse.InstallMACRoutes(sim.Network())
	return runEngine(tb, sim, tr, goldenUntil)
}

// runFailures runs the golden workload under a control plane with
// scripted link failures and a switch crash/restart.
func runFailures(tb testing.TB, shard wire.OptionsSpec, mk func() controller.App) (packetsim.RunResult, *stats.Collector) {
	topo, tr := packetsim.GoldenFatTree()
	sim := newEngine(tb, topo, shard,
		horse.WithMiss(horse.MissController),
		horse.WithController(controller.NewChain(mk())),
		horse.WithControlLatency(simtime.Millisecond))
	packetsim.ScriptFailures(sim, topo)
	return runEngine(tb, sim, tr, goldenUntil)
}

func completed(col *stats.Collector) int {
	n := 0
	for _, r := range col.Flows() {
		if r.Completed {
			n++
		}
	}
	return n
}

// TestShardDeterminismGolden: on the golden fat-tree, runs at
// WithShards ∈ {1, 2, 4, 8} are byte-identical to the run without the
// option, and repeat runs reproduce themselves.
func TestShardDeterminismGolden(t *testing.T) {
	serial, col := runGolden(t, wire.OptionsSpec{})
	if completed(col) == 0 {
		t.Fatal("golden scenario completed no flows")
	}
	for _, k := range []int{1, 2, 4, 8} {
		got, _ := runGolden(t, shards(k))
		packetsim.DiffRuns(t, fmt.Sprintf("golden shards=%d", k), serial, got)
	}
	a, _ := runGolden(t, shards(4))
	b, _ := runGolden(t, shards(4))
	packetsim.DiffRuns(t, "golden-repeat", a, b)
}

// TestShardDeterminismBackends crosses the shard option with the
// event-queue backend: façade runs at shards ∈ {1, 4} on the default
// queue reproduce the golden scenario's run on a heap kernel.
func TestShardDeterminismBackends(t *testing.T) {
	heap := packetsim.GoldenOnHeap()
	for _, k := range []int{1, 4} {
		got, _ := runGolden(t, shards(k))
		packetsim.DiffRuns(t, fmt.Sprintf("heap vs shards=%d", k), heap, got)
	}
}

// TestShardDeterminismLateTraffic delays the golden workload so its first
// arrival coincides with ProactiveMAC's pre-installed FlowMods at
// ControlLatency: the same-instant install/data tie resolves the same way
// (ClassToSwitch before data) whatever the shard option says.
func TestShardDeterminismLateTraffic(t *testing.T) {
	run := func(k int) (packetsim.RunResult, *stats.Collector) {
		topo, tr := packetsim.GoldenFatTree()
		for i := range tr {
			tr[i].Start += simtime.Time(simtime.Millisecond)
		}
		sim := newEngine(t, topo, shards(k),
			horse.WithMiss(horse.MissController),
			horse.WithController(controller.NewChain(&controller.ProactiveMAC{})),
			horse.WithControlLatency(simtime.Millisecond))
		return runEngine(t, sim, tr, goldenUntil)
	}
	serial, col := run(0)
	if col.FlowMods == 0 {
		t.Fatal("ProactiveMAC installed nothing")
	}
	for _, k := range []int{2, 4, 8} {
		got, _ := run(k)
		packetsim.DiffRuns(t, fmt.Sprintf("late-traffic shards=%d", k), serial, got)
	}
}

// remoteInstall is a minimal controller whose Start installs exactly one
// forwarding rule on one switch.
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

// TestShardPreRunExchange pins delivery of control messages generated
// before the first event (controller Start hooks): the only install
// reaches its switch one control latency in, just before the flow's first
// packet does, so that packet forwards instead of missing an empty table
// and punting — with and without the shard option.
func TestShardPreRunExchange(t *testing.T) {
	const (
		trunkDelay  = 100 * simtime.Microsecond
		accessDelay = simtime.Microsecond
		ctrlLatency = 200 * simtime.Microsecond
	)
	run := func(k int) (packetsim.RunResult, *stats.Collector) {
		topo := netgraph.New()
		sw0, sw1 := topo.AddSwitch("sw0"), topo.AddSwitch("sw1")
		topo.Connect(sw0, sw1, netgraph.Gig.BandwidthBps, trunkDelay)
		var hosts [2][]netgraph.NodeID
		for i, sw := range []netgraph.NodeID{sw0, sw1} {
			for j := 0; j < 2; j++ {
				h := topo.AddHost(fmt.Sprintf("h%d_%d", i, j))
				topo.Connect(sw, h, netgraph.Gig.BandwidthBps, accessDelay)
				hosts[i] = append(hosts[i], h)
			}
		}
		src, dst := hosts[1][0], hosts[1][1]
		sim := newEngine(t, topo, shards(k),
			horse.WithMiss(horse.MissController),
			horse.WithController(controller.NewChain(&remoteInstall{sw: sw1, dst: dst, out: topo.PortToward(sw1, dst)})),
			horse.WithControlLatency(ctrlLatency))
		tr := traffic.Trace{packetsim.CBR(src, dst, simtime.Time(ctrlLatency+10*simtime.Microsecond), 24000, 1e8)}
		return runEngine(t, sim, tr, simtime.Time(simtime.Second))
	}
	serial, col := run(0)
	if recs := col.Flows(); len(recs) != 1 || !recs[0].Completed {
		t.Fatalf("serial run must complete the flow: %+v", recs)
	}
	if col.PacketIns != 0 {
		t.Fatalf("%d packets punted: the Start install arrived after the first packet", col.PacketIns)
	}
	got, _ := run(2)
	packetsim.DiffRuns(t, "pre-run-exchange", serial, got)
}

// TestShardDeterminismFailures replays the scripted-failure scenario
// (reconvergence, packet loss, switch crash) under both E8 policies: runs
// at every shard count reproduce the run without the option.
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
			serial, col := runFailures(t, wire.OptionsSpec{}, pol.mk)
			if pol.name == "forwarding" && col.PacketsLost == 0 {
				t.Fatal("failure scenario lost no packets; the scripted outages missed the traffic")
			}
			if col.FlowMods == 0 {
				t.Fatal("control plane installed nothing")
			}
			for _, k := range []int{1, 2, 4, 8} {
				got, _ := runFailures(t, shards(k), pol.mk)
				packetsim.DiffRuns(t, fmt.Sprintf("failures/%s shards=%d", pol.name, k), serial, got)
			}
		})
	}
}

// twoIslands is a deliberately disconnected fabric: two three-switch
// chains with two hosts per switch and no path between islands.
func twoIslands() *netgraph.Topology {
	topo := netgraph.New()
	for isl := 0; isl < 2; isl++ {
		var prev netgraph.NodeID = -1
		for j := 0; j < 3; j++ {
			sw := topo.AddSwitch(fmt.Sprintf("i%d_sw%d", isl, j))
			if prev >= 0 {
				topo.Connect(prev, sw, netgraph.Gig.BandwidthBps, 100*simtime.Microsecond)
			}
			prev = sw
			for h := 0; h < 2; h++ {
				host := topo.AddHost(fmt.Sprintf("i%d_h%d_%d", isl, j, h))
				topo.Connect(sw, host, netgraph.Gig.BandwidthBps, simtime.Microsecond)
			}
		}
	}
	return topo
}

// islandTraffic crosses hosts within each island.
func islandTraffic(topo *netgraph.Topology) traffic.Trace {
	hosts := topo.Hosts() // island 0 owns the first 6
	var tr traffic.Trace
	for i := 0; i < 8; i++ {
		base := (i % 2) * 6
		d := packetsim.CBR(hosts[base+i%6], hosts[base+(i+3)%6],
			simtime.Time(i)*simtime.Time(3*simtime.Millisecond), 4e5, 2e7)
		d.Key.SrcPort = uint16(36000 + i)
		tr = append(tr, d)
	}
	tr.Sort()
	return tr
}

// TestControllerShardingComponents runs reactive and proactive control
// planes over the disconnected fabric with weighted balancing at 2 and 4
// shards: records match the run without shard fields, with and without a
// Monitor (an app that keeps state) in the chain.
func TestControllerShardingComponents(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *controller.Chain
	}{
		{"forkable-reactive", func() *controller.Chain {
			return controller.NewChain(&controller.ReactiveMAC{})
		}},
		{"forkable-proactive", func() *controller.Chain {
			return controller.NewChain(&controller.ProactiveMAC{})
		}},
		{"nonforkable-monitor", func() *controller.Chain {
			return controller.NewChain(&controller.ReactiveMAC{},
				&controller.Monitor{Every: 100 * simtime.Millisecond})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(shard wire.OptionsSpec) (packetsim.RunResult, *stats.Collector) {
				topo := twoIslands()
				sim := newEngine(t, topo, shard,
					horse.WithMiss(horse.MissController),
					horse.WithController(tc.mk()),
					horse.WithControlLatency(50*simtime.Microsecond))
				return runEngine(t, sim, islandTraffic(topo), simtime.Time(simtime.Second))
			}
			serial, col := run(wire.OptionsSpec{})
			if col.FlowMods == 0 {
				t.Fatal("control plane installed nothing")
			}
			for _, k := range []int{2, 4} {
				got, _ := run(balanced(k, wire.BalanceWeighted))
				packetsim.DiffRuns(t, fmt.Sprintf("%s shards=%d", tc.name, k), serial, got)
			}
		})
	}
}

// TestLinkModelShardParity pins the shard contract with link models
// enabled: corruption streams are seed-keyed per link direction, so every
// shard count and balancing mode reproduces the run without shard fields.
func TestLinkModelShardParity(t *testing.T) {
	models := []struct {
		name string
		m    linkmodel.Model
	}{
		{"bernoulli", linkmodel.BernoulliLoss{P: 0.03}},
		{"gilbert-elliott", linkmodel.GilbertElliott{
			PGoodBad: 0.05, PBadGood: 0.3, LossGood: 0.001, LossBad: 0.5,
		}},
		{"adaptive-rate", linkmodel.AdaptiveRate{
			Levels: 4, Floor: 0.25, Every: 10 * simtime.Millisecond,
		}},
	}
	for _, mc := range models {
		t.Run(mc.name, func(t *testing.T) {
			run := func(shard wire.OptionsSpec) packetsim.RunResult {
				got, _ := runGolden(t, shard, horse.WithLinkModel(mc.m), horse.WithLinkModelSeed(7))
				return got
			}
			ref := run(wire.OptionsSpec{})
			for _, k := range []int{2, 4} {
				packetsim.DiffRuns(t, fmt.Sprintf("%s shards=%d", mc.name, k), ref, run(shards(k)))
			}
			packetsim.DiffRuns(t, mc.name+"-steal", ref, run(balanced(4, wire.BalanceSteal)))
		})
	}
}

// skewedStar is a partition-hostile scenario: a star of three k=4
// fat-trees where nearly all traffic lives inside tree 0, plus light
// cross-tree background over the hub.
func skewedStar() (*netgraph.Topology, traffic.Trace) {
	topo := netgraph.StarOfFatTrees(3, 4, netgraph.Gig)
	hosts := topo.Hosts() // tree t owns hosts[16t : 16t+16]
	var tr traffic.Trace
	for i := 0; i < 20; i++ {
		d := packetsim.CBR(hosts[i%16], hosts[(i+8)%16],
			simtime.Time(i)*simtime.Time(5*simtime.Millisecond), 2e6, 5e7)
		d.Key.SrcPort = uint16(34000 + i)
		if i%4 == 1 {
			d.TCP = true
			d.RateBps = math.Inf(1)
			d.Key.Proto = header.ProtoTCP
		}
		tr = append(tr, d)
	}
	for i := 0; i < 4; i++ {
		d := packetsim.CBR(hosts[16+i], hosts[32+i],
			simtime.Time(i)*simtime.Time(11*simtime.Millisecond), 1e6, 2e7)
		d.Key.SrcPort = uint16(35000 + i)
		tr = append(tr, d)
	}
	tr.Sort()
	return topo, tr
}

// runSkewed runs the skewed star (pre-installed routes, no controller)
// with the given shard fields.
func runSkewed(tb testing.TB, shard wire.OptionsSpec) (packetsim.RunResult, *stats.Collector) {
	topo, tr := skewedStar()
	sim := newEngine(tb, topo, shard, horse.WithStatsEvery(20*simtime.Millisecond))
	horse.InstallMACRoutes(sim.Network())
	return runEngine(tb, sim, tr, goldenUntil)
}

// TestBalanceDeterminismMatrix: on the skewed star, every horse-wire/v1
// balancing mode at shards ∈ {1, 4} reproduces the run without shard
// fields.
func TestBalanceDeterminismMatrix(t *testing.T) {
	serial, col := runSkewed(t, wire.OptionsSpec{})
	if completed(col) == 0 {
		t.Fatal("skewed scenario completed no flows")
	}
	for _, mode := range []string{wire.BalanceUniform, wire.BalanceWeighted, wire.BalanceSteal} {
		for _, k := range []int{1, 4} {
			got, _ := runSkewed(t, balanced(k, mode))
			packetsim.DiffRuns(t, fmt.Sprintf("balance=%s shards=%d", mode, k), serial, got)
		}
	}
}

// TestSkewSoak is the long arm of the skewed star: every shard field set
// at once — 4 shards, 2 workers, stealing — matches the plain run, and
// the engine reports no per-shard loads.
func TestSkewSoak(t *testing.T) {
	serial, _ := runSkewed(t, wire.OptionsSpec{})
	two := 2
	got, _ := runSkewed(t, wire.OptionsSpec{Shards: 4, ShardWorkers: &two, ShardBalancing: wire.BalanceSteal})
	packetsim.DiffRuns(t, "skew-soak", serial, got)
}

// Reference run for the fuzzed shard fields, computed once.
var (
	stealFuzzOnce sync.Once
	stealFuzzRef  packetsim.RunResult
)

// FuzzStealSchedule: ANY horse-wire/v1 shard configuration decoded from
// the input — shard count, worker bound, balancing mode, including the
// combinations v1 rejects — is either rejected exactly as v1 rejected it
// or runs the golden fat-tree byte-identical to the plain run.
func FuzzStealSchedule(f *testing.F) {
	f.Add([]byte{})                          // no shard fields
	f.Add([]byte{3, 0, 1})                   // uniform at 3 shards
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 0, 3}) // balancing without shards
	f.Add([]byte{1, 5, 0, 2, 9, 3, 7, 200, 250, 9, 9, 9})
	f.Add([]byte{4, 1, 2, 4, 1, 2, 4, 2, 1, 12, 30, 0})
	balancing := []string{"", wire.BalanceUniform, wire.BalanceWeighted, wire.BalanceSteal, "lopsided"}
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		shard := wire.OptionsSpec{
			Shards:         int(at(0) % 9),
			ShardBalancing: balancing[int(at(2))%len(balancing)],
		}
		if at(1) != 0 {
			w := int(at(1)%6) - 1
			shard.ShardWorkers = &w
		}
		invalid := shard.ShardBalancing == "lopsided" ||
			(shard.ShardBalancing != "" && shard.Shards == 0) ||
			(shard.ShardWorkers != nil && *shard.ShardWorkers < 0)
		if _, err := engineOptions(shard); (err != nil) != invalid {
			t.Fatalf("%+v: error %v, want rejected=%v", shard, err, invalid)
		}
		if invalid {
			return
		}
		stealFuzzOnce.Do(func() { stealFuzzRef, _ = runGolden(t, wire.OptionsSpec{}) })
		got, _ := runGolden(t, shard)
		packetsim.DiffRuns(t, fmt.Sprintf("fuzz-shards %+v", shard), stealFuzzRef, got)
	})
}

// TestMemoFastFailoverReselects runs the memo's fast-failover scenario on
// engines built with WithShards(k).
func TestMemoFastFailoverReselects(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			packetsim.MemoFastFailover(t, func(topo *netgraph.Topology) *packetsim.Simulator {
				return newEngine(t, topo, shards(k))
			})
		})
	}
}
