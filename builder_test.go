package horse_test

import (
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"horse"
)

// fatTreeWorkload is the golden parity workload: a k=4 fat tree and a
// mixed CBR/TCP Poisson trace that crosses pods.
func fatTreeWorkload() (*horse.Topology, horse.Trace) {
	topo := horse.FatTree(4, horse.Gig)
	gen := horse.NewGenerator(101)
	tr := gen.PoissonArrivals(horse.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 20 * float64(len(topo.Hosts())),
		Horizon: 100 * horse.Millisecond,
		Sizes:   horse.FixedSize(1e6), TCPFraction: 0.5, CBRRateBps: 2e7,
	})
	return topo, tr
}

// failureWorkload is the scripted-failure parity scenario: a dual-spine
// leaf-spine under proactive forwarding with one core link dying
// mid-traffic and recovering.
func failureWorkload() (*horse.Topology, horse.Trace, *horse.Scenario) {
	topo := horse.LeafSpine(4, 2, 2, horse.Gig, horse.TenGig)
	gen := horse.NewGenerator(91)
	tr := gen.PoissonArrivals(horse.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 150, Horizon: 2 * horse.Second,
		Sizes: horse.Pareto{XMin: 1e5, Alpha: 1.5}, TCPFraction: 0.5, CBRRateBps: 1e7,
	})
	leaf0 := topo.MustLookup("leaf0")
	spine0 := topo.MustLookup("spine0")
	core := topo.LinkAt(leaf0, topo.PortToward(leaf0, spine0)).ID
	tl := horse.NewScenario().
		LinkOutage(horse.Time(500*horse.Millisecond), horse.Time(1200*horse.Millisecond), core)
	return topo, tr, tl
}

// assertCollectorsEqual pins byte-identical output: records, link series,
// reroute times, and every counter.
func assertCollectorsEqual(t *testing.T, name string, want, got *horse.Collector) {
	t.Helper()
	if !reflect.DeepEqual(want.Flows(), got.Flows()) {
		t.Errorf("%s: flow records differ (%d vs %d)", name, len(want.Flows()), len(got.Flows()))
	}
	if !reflect.DeepEqual(want.LinkSeries(), got.LinkSeries()) {
		t.Errorf("%s: link series differ", name)
	}
	if !reflect.DeepEqual(want.RerouteTimes(), got.RerouteTimes()) {
		t.Errorf("%s: reroute times differ", name)
	}
	type counters struct {
		started, completed, dropped, looped           uint64
		packetIns, flowMods, rateChanges, pathChanges uint64
		packetsLost                                   uint64
	}
	w := counters{want.FlowsStarted, want.FlowsCompleted, want.FlowsDropped, want.FlowsLooped,
		want.PacketIns, want.FlowMods, want.RateChanges, want.PathChanges, want.PacketsLost}
	g := counters{got.FlowsStarted, got.FlowsCompleted, got.FlowsDropped, got.FlowsLooped,
		got.PacketIns, got.FlowMods, got.RateChanges, got.PathChanges, got.PacketsLost}
	if w != g {
		t.Errorf("%s: counters differ: want %+v, got %+v", name, w, g)
	}
}

// TestWithShardsIsSerial pins the compatibility contract of WithShards:
// any shard count runs the serial engine, so records and counters match a
// run without the option on both fidelities that accept it.
func TestWithShardsIsSerial(t *testing.T) {
	window := horse.Time(2 * horse.Second)
	for _, fid := range []horse.Fidelity{horse.Flow, horse.Packet} {
		run := func(extra ...horse.Option) *horse.Collector {
			topo, tr := fatTreeWorkload()
			opts := []horse.Option{
				horse.WithFidelity(fid),
				horse.WithController(horse.NewChain(&horse.ProactiveMAC{})),
				horse.WithMiss(horse.MissController),
			}
			eng, err := horse.New(topo, append(opts, extra...)...)
			if err != nil {
				t.Fatal(err)
			}
			eng.Load(tr)
			col, err := eng.Run(context.Background(), window)
			if err != nil {
				t.Fatal(err)
			}
			return col
		}
		assertCollectorsEqual(t, fid.String()+"/shards=4", run(), run(horse.WithShards(4)))
	}
}

// TestRecordSinkStreamsIdenticalRecords pins the streaming contract: the
// sink receives exactly the records, in exactly the order, an in-memory
// run of the identical scenario retains.
func TestRecordSinkStreamsIdenticalRecords(t *testing.T) {
	window := horse.Time(10 * horse.Second)
	run := func(sink func(horse.FlowRecord)) *horse.Collector {
		topo, tr, tl := failureWorkload()
		opts := []horse.Option{
			horse.WithController(horse.NewChain(&horse.ECMPLoadBalancer{})),
			horse.WithMiss(horse.MissController),
			horse.WithScenario(tl),
		}
		if sink != nil {
			opts = append(opts, horse.WithRecordSink(sink))
		}
		eng, err := horse.New(topo, opts...)
		if err != nil {
			t.Fatal(err)
		}
		eng.Load(tr)
		col, err := eng.Run(context.Background(), window)
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	want := run(nil).Flows()
	var got []horse.FlowRecord
	col := run(func(r horse.FlowRecord) { got = append(got, r) })
	if len(col.Flows()) != 0 {
		t.Errorf("sink run retained %d records", len(col.Flows()))
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("streamed records differ from in-memory run: %d vs %d", len(got), len(want))
	}
}

// TestHybridMidRunCollectorDoesNotDuplicateSink: a Collector() snapshot
// taken from a mid-run hook (Collector is on the Engine interface, so
// progress/observer callbacks can reach it) must not stream records to
// the sink — records reach it once each, from the emitter.
func TestHybridMidRunCollectorDoesNotDuplicateSink(t *testing.T) {
	window := horse.Time(10 * horse.Second)
	run := func(peek bool) []horse.FlowRecord {
		topo, tr, tl := failureWorkload()
		var streamed []horse.FlowRecord
		var eng horse.Engine
		opts := []horse.Option{
			horse.WithFidelity(horse.Hybrid),
			horse.WithController(horse.NewChain(&horse.ProactiveMAC{})),
			horse.WithMiss(horse.MissController),
			horse.WithPacketFraction(0.5),
			horse.WithScenario(tl),
			horse.WithRecordSink(func(r horse.FlowRecord) { streamed = append(streamed, r) }),
		}
		if peek {
			opts = append(opts, horse.WithProgressEvery(200*horse.Millisecond, func(horse.Progress) {
				_ = eng.Collector().FlowsStarted // mid-run snapshot
			}))
		}
		var err error
		eng, err = horse.New(topo, opts...)
		if err != nil {
			t.Fatal(err)
		}
		eng.Load(tr)
		if _, err := eng.Run(context.Background(), window); err != nil {
			t.Fatal(err)
		}
		return streamed
	}
	clean := run(false)
	peeked := run(true)
	if len(clean) == 0 {
		t.Fatal("sink received nothing")
	}
	if !reflect.DeepEqual(clean, peeked) {
		t.Errorf("mid-run Collector() perturbed the record stream: %d records vs %d", len(peeked), len(clean))
	}
}

// synthFlows streams a synthetic single-packet UDP workload demand by
// demand — the input side of the bounded-memory contract: the 1M-demand
// trace never materializes.
type synthFlows struct {
	hosts []horse.NodeID
	n, i  int
}

func (g *synthFlows) Next() (horse.Demand, error) {
	if g.i >= g.n {
		return horse.Demand{}, io.EOF
	}
	i := g.i
	g.i++
	src, dst := g.hosts[i%len(g.hosts)], g.hosts[(i+1)%len(g.hosts)]
	return horse.Demand{
		Key:      udpKey(src, dst, uint16(30000+i%1000)),
		Src:      src,
		Dst:      dst,
		Start:    horse.Time(i) * horse.Time(10*horse.Microsecond),
		SizeBits: 1e4, RateBps: 1e9,
	}, nil
}

// TestRecordSinkMillionFlows is the scale contract, per fidelity: a
// ≥1M-flow fully streamed run (trace reader in, record sink out)
// completes with no retained []FlowRecord anywhere and peak heap under a
// pinned budget — memory stays O(live flows), not O(workload). The
// budgets are several times the steady-state observed at the time of
// pinning (tens of MB, dominated by topology + GC slack), far below the
// hundreds of MB a retained 1M-flow run costs; a regression to retention
// on either side of any engine blows straight through them.
func TestRecordSinkMillionFlows(t *testing.T) {
	const n = 1_000_000
	cases := []struct {
		fidelity horse.Fidelity
		budget   uint64 // peak HeapAlloc, bytes
	}{
		{horse.Flow, 192 << 20},
		{horse.Packet, 192 << 20},
		{horse.Hybrid, 256 << 20}, // two engines + merge reorder buffer
	}
	for _, tc := range cases {
		t.Run(tc.fidelity.String(), func(t *testing.T) {
			topo := horse.Star(4, horse.Gig)
			streamed, completed := 0, 0
			var peak uint64
			sample := func() {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
			opts := []horse.Option{
				horse.WithFidelity(tc.fidelity),
				horse.WithController(horse.NewChain(&horse.ProactiveMAC{})),
				horse.WithMiss(horse.MissController),
				horse.WithTraceReader(&synthFlows{hosts: topo.Hosts(), n: n}),
				// Records stream in finalize order (the order Flows() would
				// hold them — pinned by the stream equivalence battery);
				// here only the scale contract matters.
				horse.WithRecordSink(func(r horse.FlowRecord) {
					streamed++
					if r.Completed {
						completed++
					}
				}),
				horse.WithProgressEvery(100*horse.Millisecond, func(horse.Progress) { sample() }),
			}
			if tc.fidelity == horse.Hybrid {
				opts = append(opts, horse.WithPacketFraction(0.5))
			}
			eng, err := horse.New(topo, opts...)
			if err != nil {
				t.Fatal(err)
			}
			col, err := eng.Run(context.Background(), horse.Never)
			if err != nil {
				t.Fatal(err)
			}
			sample()
			if streamed != n {
				t.Errorf("streamed %d records, want %d", streamed, n)
			}
			if len(col.Flows()) != 0 {
				t.Errorf("collector retained %d records in sink mode", len(col.Flows()))
			}
			if completed != n {
				t.Errorf("completed %d of %d", completed, n)
			}
			if col.FlowsCompleted != n {
				t.Errorf("FlowsCompleted = %d, want %d", col.FlowsCompleted, n)
			}
			if peak > tc.budget {
				t.Errorf("peak heap %d MiB exceeds the %d MiB budget",
					peak>>20, tc.budget>>20)
			}
			t.Logf("peak heap %d MiB (budget %d MiB)", peak>>20, tc.budget>>20)
		})
	}
}

// udpKey builds a UDP flow key on the repo's addressing plan (host n has
// MAC n+1).
func udpKey(src, dst horse.NodeID, sport uint16) horse.FlowKey {
	var k horse.FlowKey
	sv, dv := uint64(src)+1, uint64(dst)+1
	for i := 5; i >= 0; i-- {
		k.EthSrc[i] = byte(sv)
		k.EthDst[i] = byte(dv)
		sv >>= 8
		dv >>= 8
	}
	k.EthType = 0x0800
	k.Proto = 17
	k.SrcPort, k.DstPort = sport, 80
	return k
}

// TestRunCancellationFlow: cancelling the context mid-run returns
// promptly with ctx.Err() and a partial, consistent collector (every
// arrived flow settled and recorded).
func TestRunCancellationFlow(t *testing.T) {
	topo := horse.LeafSpine(2, 2, 2, horse.Gig, horse.TenGig)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng, err := horse.New(topo,
		horse.WithController(horse.NewChain(&horse.ECMPLoadBalancer{})),
		horse.WithMiss(horse.MissController),
		// Cancel deterministically from the progress callback partway in.
		horse.WithProgressEvery(100*horse.Millisecond, func(p horse.Progress) {
			if p.Now >= horse.Time(500*horse.Millisecond) {
				cancel()
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	gen := horse.NewGenerator(3)
	eng.Load(gen.PoissonArrivals(horse.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 200, Horizon: 5 * horse.Second,
		Sizes: horse.FixedSize(1e7), TCPFraction: 0.5, CBRRateBps: 1e7,
	}))
	col, err := eng.Run(ctx, horse.Never)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if now := eng.Now(); now < horse.Time(500*horse.Millisecond) || now >= horse.Time(5*horse.Second) {
		t.Errorf("stopped at %v; want shortly after the 500ms cancel, far before the 5s workload end", now)
	}
	if len(col.Flows()) == 0 {
		t.Error("partial collector has no records")
	}
	for _, r := range col.Flows() {
		if r.End > eng.Now() {
			t.Errorf("flow %d recorded beyond the stop instant: %v > %v", r.ID, r.End, eng.Now())
		}
	}
}

// TestSecondRunPanics: Run may be called once, at every fidelity alike —
// one run driver owns the lifecycle — and a second call panics instead
// of re-running a finished engine.
func TestSecondRunPanics(t *testing.T) {
	topo, tr := fatTreeWorkload()
	for _, c := range []struct {
		name string
		opts []horse.Option
	}{
		{"flow", []horse.Option{horse.WithFidelity(horse.Flow)}},
		{"packet", []horse.Option{horse.WithFidelity(horse.Packet)}},
		{"hybrid", []horse.Option{horse.WithFidelity(horse.Hybrid), horse.WithPacketFraction(0.5)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, err := horse.New(topo, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			horse.InstallMACRoutes(eng.Network())
			eng.Load(tr[:10])
			if _, err := eng.Run(context.Background(), horse.Never); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if recover() == nil {
					t.Error("a second Run did not panic")
				}
			}()
			eng.Run(context.Background(), horse.Never)
		})
	}
}

// TestNewAllocs bounds what building an engine allocates on a k=8 fat
// tree (80 switches). The switches' flow, group and meter tables make
// their maps on first insert, and port liveness is a value rather than a
// closure per node: New allocates 639 objects at flow fidelity, 617 at
// packet and 665 at hybrid. The ceiling is the flow count plus 10 %.
func TestNewAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instruments allocation")
	}
	topo := horse.FatTree(8, horse.Gig)
	for _, c := range []struct {
		name string
		fid  horse.Fidelity
	}{{"flow", horse.Flow}, {"packet", horse.Packet}, {"hybrid", horse.Hybrid}} {
		n := testing.AllocsPerRun(10, func() {
			if _, err := horse.New(topo, horse.WithFidelity(c.fid)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations", c.name, n)
		if n > 703 {
			t.Errorf("%s: New allocates %.0f objects, want at most 703", c.name, n)
		}
	}
}

// TestRunCancellationShardedPacket: a packet run built with WithShards —
// the serial engine — whose context is already cancelled stops at the
// first cancellation poll and still records every flow that started by
// then (as unfinished), and no demand that had yet to start.
func TestRunCancellationShardedPacket(t *testing.T) {
	topo, tr := fatTreeWorkload()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng, err := horse.New(topo,
		horse.WithFidelity(horse.Packet),
		horse.WithMiss(horse.MissDrop),
		horse.WithShards(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	horse.InstallMACRoutes(eng.Network())
	eng.Load(tr)
	col, err := eng.Run(ctx, horse.Time(2*horse.Second))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if got, want := uint64(len(col.Flows())), col.FlowsStarted; got != want || got == 0 || got == uint64(len(tr)) {
		t.Errorf("partial collector records %d flows, want the %d of %d loaded that started", got, want, len(tr))
	}
	for _, r := range col.Flows() {
		if r.Arrival > eng.Now() {
			t.Errorf("flow %d starts at %v, after the stop instant %v", r.ID, r.Arrival, eng.Now())
		}
	}
}

// TestProgressReports pins the progress lifecycle: monotone virtual
// times, non-decreasing event counts, roughly one report per period.
func TestProgressReports(t *testing.T) {
	topo := horse.LeafSpine(2, 2, 2, horse.Gig, horse.TenGig)
	var reports []horse.Progress
	eng, err := horse.New(topo,
		horse.WithController(horse.NewChain(&horse.ECMPLoadBalancer{})),
		horse.WithMiss(horse.MissController),
		horse.WithProgressEvery(100*horse.Millisecond, func(p horse.Progress) {
			reports = append(reports, p)
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	gen := horse.NewGenerator(5)
	eng.Load(gen.PoissonArrivals(horse.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 100, Horizon: horse.Second,
		Sizes: horse.FixedSize(1e6), TCPFraction: 0.5, CBRRateBps: 1e7,
	}))
	if _, err := eng.Run(context.Background(), horse.Never); err != nil {
		t.Fatal(err)
	}
	if len(reports) < 5 {
		t.Fatalf("got %d progress reports over ~1s at 100ms period", len(reports))
	}
	for i := 1; i < len(reports); i++ {
		if reports[i].Now <= reports[i-1].Now || reports[i].Events < reports[i-1].Events {
			t.Fatalf("non-monotone progress: %+v after %+v", reports[i], reports[i-1])
		}
	}
}

// TestObserveAcrossFidelities pins the Observe hook: the same scripted
// outage reports the same observation sequence from the flow and packet
// engines.
func TestObserveAcrossFidelities(t *testing.T) {
	window := horse.Time(5 * horse.Second)
	observe := func(fidelity horse.Fidelity) []horse.Observation {
		topo, tr, tl := failureWorkload()
		opts := []horse.Option{
			horse.WithFidelity(fidelity),
			horse.WithController(horse.NewChain(&horse.ProactiveMAC{})),
			horse.WithMiss(horse.MissController),
			horse.WithScenario(tl),
		}
		var obs []horse.Observation
		opts = append(opts, horse.WithObserver(func(o horse.Observation) { obs = append(obs, o) }))
		eng, err := horse.New(topo, opts...)
		if err != nil {
			t.Fatal(err)
		}
		eng.Load(tr)
		if _, err := eng.Run(context.Background(), window); err != nil {
			t.Fatal(err)
		}
		return obs
	}
	flowObs := observe(horse.Flow)
	pktObs := observe(horse.Packet)
	if len(flowObs) != 2 {
		t.Fatalf("flow observations = %v, want down+up", flowObs)
	}
	if flowObs[0].Kind != horse.ObsLinkChange || flowObs[0].Up ||
		flowObs[1].Kind != horse.ObsLinkChange || !flowObs[1].Up {
		t.Fatalf("flow observations = %v", flowObs)
	}
	if !reflect.DeepEqual(flowObs, pktObs) {
		t.Errorf("observation sequences differ across fidelities: flow %v vs packet %v", flowObs, pktObs)
	}
}

// TestBuildErrors pins the eager-validation contract: bad arguments and
// fidelity-incompatible options fail New with a typed *BuildError.
func TestBuildErrors(t *testing.T) {
	topo := horse.Star(2, horse.Gig)
	cases := []struct {
		name string
		opts []horse.Option
	}{
		{"nil topology", nil},
		{"fraction out of range", []horse.Option{horse.WithPacketFraction(1.5)}},
		{"fraction on flow engine", []horse.Option{horse.WithPacketFraction(0.5)}},
		{"tcp on packet engine", []horse.Option{horse.WithFidelity(horse.Packet), horse.WithTCP(horse.TCPParams{RTT: horse.Millisecond})}},
		{"shards on hybrid", []horse.Option{horse.WithFidelity(horse.Hybrid), horse.WithPacketFraction(0.5), horse.WithShards(2)}},
		{"negative shards", []horse.Option{horse.WithShards(-1)}},
		{"negative stats period", []horse.Option{horse.WithStatsEvery(-horse.Second)}},
		{"nil controller", []horse.Option{horse.WithController(nil)}},
		{"nil sink", []horse.Option{horse.WithRecordSink(nil)}},
		{"unknown fidelity", []horse.Option{horse.WithFidelity(horse.Fidelity(9))}},
		{"full recompute on packet", []horse.Option{horse.WithFidelity(horse.Packet), horse.WithFullRecompute()}},
		{"queue on flow", []horse.Option{horse.WithQueuePackets(10)}},
		{"scenario with unknown link", []horse.Option{horse.WithScenario(horse.NewScenario().LinkDown(0, 99))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp := topo
			if tc.name == "nil topology" {
				tp = nil
			}
			eng, err := horse.New(tp, tc.opts...)
			if err == nil {
				t.Fatal("New accepted an invalid configuration")
			}
			if eng != nil {
				t.Error("New returned both an engine and an error")
			}
			var be *horse.BuildError
			var se *horse.ScenarioEventError
			if !errors.As(err, &be) && !errors.As(err, &se) {
				t.Errorf("error %T (%v) is neither *BuildError nor *ScenarioEventError", err, err)
			}
		})
	}
	// Options validate independently of order: fidelity last still wins.
	if _, err := horse.New(topo, horse.WithPacketFraction(0.5), horse.WithFidelity(horse.Hybrid)); err != nil {
		t.Errorf("option order mattered: %v", err)
	}
}
