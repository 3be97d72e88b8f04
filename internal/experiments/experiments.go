// Package experiments implements the evaluation of the paper: every
// experiment the poster commits to (Section 2: an IXP-scale model, traffic
// replay, and simulation time/accuracy under multiple policy
// configurations) plus the Figure-1 policy-failure scenarios and the
// design-choice ablations recorded in DESIGN.md. Each experiment returns a
// Table whose rows the CLI (cmd/horsebench) prints and whose shape
// EXPERIMENTS.md records against the paper's claims.
//
// Execution is data-driven: each experiment compiles its grid — leaf
// counts and arrival rates in E2, member counts in E4, config rows in E5,
// ablation arms in E6 — into a []runner.Cell of closures with stable IDs.
// Every cell is a self-contained simulation (it builds its own topology,
// trace, and simulator), so cells fan out across a bounded worker pool
// (Options.Parallel) and the assembled tables are byte-identical for any
// worker count: rows follow cell order, never completion order.
package experiments

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"horse"
	"horse/internal/addr"
	"horse/internal/controller"
	"horse/internal/dataplane"
	"horse/internal/flowsim"
	"horse/internal/header"
	"horse/internal/hybrid"
	"horse/internal/ixp"
	"horse/internal/metrics"
	"horse/internal/netgraph"
	"horse/internal/packetsim"
	"horse/internal/runner"
	"horse/internal/scenario"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/tcpmodel"
	"horse/internal/traffic"
)

// mustEngine unwraps a horse.New result inside an experiment cell. Every
// grid cell builds from compile-time-constant options, so a build error
// is a programming error; panicking propagates it through the runner pool
// as a *runner.CellPanic.
func mustEngine(eng horse.Engine, err error) horse.Engine {
	if err != nil {
		panic(err)
	}
	return eng
}

// Options controls how the experiment grid executes.
type Options struct {
	// Parallel bounds the worker pool that fans out experiment cells.
	// Zero or negative means runtime.GOMAXPROCS(0).
	Parallel int

	// Now is the clock used for wall-time columns. Nil means time.Now.
	// Tests inject a frozen clock to make tables fully deterministic.
	Now func() time.Time
}

func (o Options) now() time.Time {
	if o.Now != nil {
		return o.Now()
	}
	return time.Now()
}

func (o Options) since(t0 time.Time) time.Duration { return o.now().Sub(t0) }

// Table is one experiment's result.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// Notes records the qualitative shape the paper predicts and whether
	// the run reproduced it.
	Notes []string `json:"notes,omitempty"`
}

// Fprint renders the table to a writer-ish function (the CLI passes
// fmt.Printf-compatible sinks).
func (t *Table) Fprint(printf func(format string, args ...interface{})) {
	printf("\n== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for i, c := range t.Columns {
		printf("%-*s  ", widths[i], c)
	}
	printf("\n")
	for _, r := range t.Rows {
		for i, c := range r {
			printf("%-*s  ", widths[i], c)
		}
		printf("\n")
	}
	for _, n := range t.Notes {
		printf("note: %s\n", n)
	}
}

// spec is one experiment compiled to a table skeleton plus the cells that
// produce its rows. A cell returns the rows it contributes (possibly
// none); assembly concatenates them in cell order.
type spec struct {
	table *Table
	cells []runner.Cell[[][]string]
}

// cell appends one unit of work to the spec's grid.
func (sp *spec) cell(id string, run func() [][]string) {
	sp.cells = append(sp.cells, runner.Cell[[][]string]{
		ID: sp.table.ID + "/" + id, Run: run,
	})
}

// runSpecs flattens every spec's cells into one pool, fans them out, and
// assembles the tables. Row order — and therefore the rendered bytes —
// depends only on cell order, not on scheduling.
func runSpecs(o Options, specs []*spec) []*Table {
	var all []runner.Cell[[][]string]
	for _, sp := range specs {
		all = append(all, sp.cells...)
	}
	results := runner.Run(all, o.Parallel)
	tables := make([]*Table, len(specs))
	i := 0
	for si, sp := range specs {
		for range sp.cells {
			sp.table.Rows = append(sp.table.Rows, results[i]...)
			i++
		}
		tables[si] = sp.table
	}
	return tables
}

func row(cols ...string) [][]string { return [][]string{cols} }

func f2(v float64) string       { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string       { return fmt.Sprintf("%.3f", v) }
func di(v uint64) string        { return fmt.Sprintf("%d", v) }
func ms(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }

func cbrDemand(src, dst netgraph.NodeID, start simtime.Time, sizeBits, rateBps float64, sport uint16) traffic.Demand {
	return traffic.Demand{
		Key: addr.FlowKeyBetween(src, dst, header.ProtoUDP, sport, 80),
		Src: src, Dst: dst, Start: start,
		SizeBits: sizeBits, RateBps: rateBps,
	}
}

// runFlowSim executes one flow-level simulation through the unified
// engine API and times it with the options' clock.
func (o Options) runFlowSim(topo *netgraph.Topology, ctrl flowsim.Controller, tr traffic.Trace, statsEvery simtime.Duration) (*stats.Collector, time.Duration) {
	eng := mustEngine(horse.New(topo,
		horse.WithController(ctrl),
		horse.WithMiss(dataplane.MissController),
		horse.WithStatsEvery(statsEvery),
	))
	eng.Load(tr)
	start := o.now()
	col, _ := eng.Run(context.Background(), simtime.Time(10*simtime.Minute))
	return col, o.since(start)
}

// e1Spec reproduces the Figure-1 fabric: four edge switches, two core
// switches, and all five policy classes active at once. It quantifies the
// paper's three failure narratives: a misconfigured load balancer
// congesting the core, an inefficient source route, and a rate limiter
// degrading TCP.
func e1Spec(o Options) *spec {
	sp := &spec{table: &Table{
		ID:      "E1",
		Title:   "Policy coexistence on the Figure-1 fabric (4 edges, 2 cores)",
		Columns: []string{"scenario", "mean-core-util", "mean-FCT-s", "p99-FCT-s", "dropped", "punts"},
	}}

	// The fabric is deliberately core-oversubscribed (10G member ports,
	// 1G core links) so that where the load balancer sends flows decides
	// whether the core congests — the Figure-1 narrative.
	build := func() (*netgraph.Topology, []netgraph.NodeID, []netgraph.NodeID) {
		topo := netgraph.New()
		cores := []netgraph.NodeID{topo.AddSwitch("c1"), topo.AddSwitch("c2")}
		var edges []netgraph.NodeID
		for i := 1; i <= 4; i++ {
			e := topo.AddSwitch(fmt.Sprintf("e%d", i))
			edges = append(edges, e)
			for _, c := range cores {
				topo.Connect(e, c, 1e9, 50*simtime.Microsecond) // congestible core
			}
		}
		for i := 0; i < 8; i++ {
			h := topo.AddHost(fmt.Sprintf("h%d", i))
			topo.Connect(edges[i%4], h, 1e10, 50*simtime.Microsecond)
		}
		return topo, edges, cores
	}

	workload := func(topo *netgraph.Topology) traffic.Trace {
		g := traffic.NewGenerator(5)
		return g.PoissonArrivals(traffic.PoissonConfig{
			Hosts: topo.Hosts(), Lambda: 1500, Horizon: 5 * simtime.Second,
			Sizes: traffic.Pareto{XMin: 1e6, Alpha: 1.5}, TCPFraction: 0,
			CBRRateBps: 5e7,
		})
	}

	scenario := func(name string, mk func(topo *netgraph.Topology, edges, cores []netgraph.NodeID) flowsim.Controller) {
		sp.cell(name, func() [][]string {
			topo, edges, cores := build()
			ctrl := mk(topo, edges, cores)
			eng := mustEngine(horse.New(topo,
				horse.WithController(ctrl),
				horse.WithMiss(dataplane.MissController),
				horse.WithStatsEvery(100*simtime.Millisecond),
			))
			eng.Load(workload(topo))
			col, _ := eng.Run(context.Background(), simtime.Time(time.Minute))
			var coreSum float64
			var coreN int
			util := col.MeanLinkUtilization()
			for _, d := range linkDirs(util) {
				l := topo.Link(d.Link)
				if topo.Node(l.A).Kind == netgraph.KindSwitch && topo.Node(l.B).Kind == netgraph.KindSwitch {
					coreSum += util[d]
					coreN++
				}
			}
			meanCore := 0.0
			if coreN > 0 {
				meanCore = coreSum / float64(coreN)
			}
			fcts := col.FCTs()
			return row(
				name, f2(meanCore), f3(metrics.Mean(fcts)), f3(metrics.Percentile(fcts, 99)),
				di(col.FlowsDropped), di(col.PacketIns),
			)
		})
	}

	scenario("ecmp-balanced", func(topo *netgraph.Topology, edges, cores []netgraph.NodeID) flowsim.Controller {
		return controller.NewChain(&controller.ECMPLoadBalancer{})
	})
	scenario("misconfigured-lb", func(topo *netgraph.Topology, edges, cores []netgraph.NodeID) flowsim.Controller {
		return controller.NewChain(&controller.MisconfiguredLoadBalancer{})
	})
	scenario("all-policies", func(topo *netgraph.Topology, edges, cores []netgraph.NodeID) flowsim.Controller {
		h5 := topo.MustLookup("h5")
		h6 := topo.MustLookup("h6")
		sw1, _ := topo.AttachedSwitch(topo.MustLookup("h0"))
		return controller.NewChain(
			&controller.ECMPLoadBalancer{},
			&controller.Blackhole{Matches: []header.Match{header.Match{}.WithEthDst(addr.HostMAC(h5))}},
			&controller.RateLimiter{Rules: []controller.RateLimitRule{{
				Match: header.Match{}.WithEthDst(addr.HostMAC(h6)), RateBps: 5e7, At: sw1,
			}}},
			&controller.AppPeering{Rules: []controller.PeeringRule{{
				Ingress: edges[0], Egress: edges[2],
				AppMatch: header.Match{}.WithProto(header.ProtoTCP).WithDstPort(header.PortHTTP),
			}}},
			&controller.Monitor{Every: simtime.Second},
		)
	})

	sp.table.Notes = append(sp.table.Notes,
		"expected shape: misconfigured-lb has higher FCTs than ecmp-balanced at similar offered load (core congestion)",
		"expected shape: all-policies drops blackholed traffic and punts nothing extra (policies coexist)",
	)
	return sp
}

// e2Spec measures simulation time versus topology size and flow count —
// the scalability motivation ("Mininet is not scalable").
func e2Spec(o Options, leafCounts []int, lambdas []float64) *spec {
	sp := &spec{table: &Table{
		ID:      "E2",
		Title:   "Scalability: wall time vs fabric size and flow count",
		Columns: []string{"leaves", "spines", "hosts", "flows", "events", "wall-ms", "events/ms"},
	}}
	for _, leaves := range leafCounts {
		leaves := leaves
		sp.cell(fmt.Sprintf("leaves=%d", leaves), func() [][]string {
			spines := leaves / 2
			if spines < 2 {
				spines = 2
			}
			topo := netgraph.LeafSpine(leaves, spines, 4, netgraph.Gig, netgraph.TenGig)
			g := traffic.NewGenerator(11)
			tr := g.PoissonArrivals(traffic.PoissonConfig{
				Hosts: topo.Hosts(), Lambda: 500, Horizon: 2 * simtime.Second,
				Sizes: traffic.Pareto{XMin: 1e5, Alpha: 1.4}, TCPFraction: 0.5, CBRRateBps: 1e7,
			})
			col, wall := o.runFlowSim(topo, controller.NewChain(&controller.ECMPLoadBalancer{}), tr, 0)
			return row(
				fmt.Sprintf("%d", leaves), fmt.Sprintf("%d", spines),
				fmt.Sprintf("%d", len(topo.Hosts())), fmt.Sprintf("%d", len(tr)),
				di(col.EventsRun), ms(wall), f2(float64(col.EventsRun)/(float64(wall.Microseconds())/1000)),
			)
		})
	}
	// Flow-count sweep on a fixed fabric.
	for _, lambda := range lambdas {
		lambda := lambda
		sp.cell(fmt.Sprintf("lambda=%g", lambda), func() [][]string {
			topo := netgraph.LeafSpine(8, 4, 4, netgraph.Gig, netgraph.TenGig)
			g := traffic.NewGenerator(13)
			tr := g.PoissonArrivals(traffic.PoissonConfig{
				Hosts: topo.Hosts(), Lambda: lambda, Horizon: 2 * simtime.Second,
				Sizes: traffic.Pareto{XMin: 1e5, Alpha: 1.4}, TCPFraction: 0.5, CBRRateBps: 1e7,
			})
			col, wall := o.runFlowSim(topo, controller.NewChain(&controller.ECMPLoadBalancer{}), tr, 0)
			return row(
				"8", "4", fmt.Sprintf("%d", len(topo.Hosts())), fmt.Sprintf("%d", len(tr)),
				di(col.EventsRun), ms(wall), f2(float64(col.EventsRun)/(float64(wall.Microseconds())/1000)),
			)
		})
	}
	sp.table.Notes = append(sp.table.Notes, "expected shape: wall time grows ~linearly with event count; thousands of flows per second of wall time")
	return sp
}

// e3Spec compares the flow-level simulator against the packet-level
// baseline on identical pre-installed state and workload: per-flow FCT
// error, link-utilization error, and the speedup.
func e3Spec(o Options) *spec {
	sp := &spec{table: &Table{
		ID:    "E3",
		Title: "Flow-level vs packet-level: accuracy and speedup",
		Columns: []string{
			"scenario", "flows", "fct-W1-s", "fct-relerr", "util-MAE",
			"flow-wall-ms", "pkt-wall-ms", "speedup", "pkt-queue-drops",
		},
	}}
	// The dumbbell demands start 1 ms in. The flow run's proactive installs
	// land 1 µs in, so a demand at t = 0 would miss the empty table there
	// and be dropped, while the packet run, whose routes are pre-installed,
	// carries it. leafspine-mix's first arrival is 27 ms in.
	const first = simtime.Time(simtime.Millisecond)
	scenarios := []struct {
		name   string
		rtt    simtime.Duration // flow-level TCP model RTT, matched to the topology
		window simtime.Duration // run + sampling window
		mkTopo func() *netgraph.Topology
		mkTr   func(topo *netgraph.Topology) traffic.Trace
	}{
		{
			name:   "cbr-dumbbell",
			rtt:    2200 * simtime.Microsecond,
			window: 2 * simtime.Second,
			mkTopo: func() *netgraph.Topology {
				return netgraph.Dumbbell(4, 4, netgraph.Gig, netgraph.LinkSpec{BandwidthBps: 2e8, Delay: simtime.Millisecond})
			},
			mkTr: func(topo *netgraph.Topology) traffic.Trace {
				var tr traffic.Trace
				for i := 0; i < 4; i++ {
					src := topo.MustLookup(fmt.Sprintf("h%d", i))
					dst := topo.MustLookup(fmt.Sprintf("r%d", i))
					tr = append(tr, cbrDemand(src, dst, first+simtime.Time(i)*simtime.Time(100*simtime.Millisecond), 2e7, 1e8, uint16(30000+i)))
				}
				return tr
			},
		},
		{
			name:   "tcp-dumbbell",
			rtt:    2200 * simtime.Microsecond,
			window: 2 * simtime.Second,
			mkTopo: func() *netgraph.Topology {
				return netgraph.Dumbbell(4, 4, netgraph.Gig, netgraph.LinkSpec{BandwidthBps: 2e8, Delay: simtime.Millisecond})
			},
			mkTr: func(topo *netgraph.Topology) traffic.Trace {
				var tr traffic.Trace
				for i := 0; i < 4; i++ {
					src := topo.MustLookup(fmt.Sprintf("h%d", i))
					dst := topo.MustLookup(fmt.Sprintf("r%d", i))
					d := cbrDemand(src, dst, first+simtime.Time(i)*simtime.Time(50*simtime.Millisecond), 1e7, math.Inf(1), uint16(31000+i))
					d.TCP = true
					d.Key.Proto = header.ProtoTCP
					tr = append(tr, d)
				}
				return tr
			},
		},
		{
			name:   "leafspine-mix",
			rtt:    500 * simtime.Microsecond,
			window: 2 * simtime.Second,
			mkTopo: func() *netgraph.Topology {
				return netgraph.LeafSpine(3, 2, 3, netgraph.Gig, netgraph.TenGig)
			},
			mkTr: func(topo *netgraph.Topology) traffic.Trace {
				g := traffic.NewGenerator(21)
				return g.PoissonArrivals(traffic.PoissonConfig{
					Hosts: topo.Hosts(), Lambda: 30, Horizon: simtime.Second,
					Sizes: traffic.FixedSize(4e6), TCPFraction: 0.5, CBRRateBps: 2e7,
				})
			},
		},
	}

	for _, sc := range scenarios {
		sc := sc
		sp.cell(sc.name, func() [][]string {
			var trF traffic.Trace
			// Flow-level run (proactive state so both sides see identical rules).
			colF, wallF := o.minWall(e3Runs, func() (*stats.Collector, time.Duration) {
				topoF := sc.mkTopo()
				trF = sc.mkTr(topoF)
				startF := o.now()
				engF := mustEngine(horse.New(topoF,
					horse.WithController(&controller.ProactiveMAC{}),
					horse.WithMiss(dataplane.MissDrop),
					// The installs land after 1 µs of control latency, before
					// the first demand, so both simulators forward every flow
					// on identical rules.
					horse.WithControlLatency(simtime.Microsecond),
					horse.WithStatsEvery(100*simtime.Millisecond),
					horse.WithTCP(tcpmodel.Params{RTT: sc.rtt, MSS: 1500, InitialWindow: 10}),
				))
				engF.Load(trF)
				col, _ := engF.Run(context.Background(), simtime.Time(sc.window))
				return col, o.since(startF)
			})

			// Packet-level run with identical pre-installed state.
			colP, wallP := o.minWall(e3Runs, func() (*stats.Collector, time.Duration) {
				topoP := sc.mkTopo()
				trP := sc.mkTr(topoP)
				engP := mustEngine(horse.New(topoP,
					horse.WithFidelity(horse.Packet),
					horse.WithMiss(dataplane.MissDrop),
					horse.WithStatsEvery(100*simtime.Millisecond),
				))
				dataplane.InstallMACRoutes(engP.Network())
				startP := o.now()
				engP.Load(trP)
				col, _ := engP.Run(context.Background(), simtime.Time(sc.window))
				return col, o.since(startP)
			})

			w1 := metrics.W1Distance(colF.FCTs(), colP.FCTs())
			relerr := fctRelErr(colF.Flows(), colP.Flows())
			utilErr := utilMAE(colF, colP)
			speedup := float64(wallP) / math.Max(float64(wallF), 1)
			return row(
				sc.name, fmt.Sprintf("%d", len(trF)), f3(w1), f3(relerr), f3(utilErr),
				ms(wallF), ms(wallP), f2(speedup), di(colP.PacketsQueueDropped),
			)
		})
	}
	sp.table.Notes = append(sp.table.Notes,
		"measured: fct-relerr 0.006 on cbr-dumbbell, 0.823 on tcp-dumbbell and 0.550 on leafspine-mix; the test gates CBR below 0.05 and TCP below 1.0, far from fs-sdn's 10-20% (ROADMAP E/F: the packet reference's loss recovery and the fluid TCP model)",
		"expected shape: packet-level wall time one to two orders of magnitude above flow-level",
	)
	return sp
}

// e3Runs is how many times E3 runs each side of a row. Runs are
// deterministic, so only the wall differs between them, and the reported
// wall is the smallest: host load can only inflate a wall, so one busy
// moment cannot invert the speedup column.
const e3Runs = 5

// minWall calls run n times and returns the last run's collector with the
// smallest wall any run took.
func (o Options) minWall(n int, run func() (*stats.Collector, time.Duration)) (*stats.Collector, time.Duration) {
	col, best := run()
	for i := 1; i < n; i++ {
		var wall time.Duration
		col, wall = run()
		best = min(best, wall)
	}
	return col, best
}

// fctRelErr is the mean per-flow FCT relative error |F − R| / R of recs
// against the reference run ref, over the flow IDs completed in both.
func fctRelErr(recs, ref []stats.FlowRecord) float64 {
	refFCT := make(map[int64]float64, len(ref))
	for _, r := range ref {
		if r.Completed {
			refFCT[r.ID] = r.FCT().Seconds()
		}
	}
	var sum float64
	var n int
	for _, r := range recs {
		if fr, ok := refFCT[r.ID]; ok && r.Completed && fr > 0 {
			sum += math.Abs(r.FCT().Seconds()-fr) / fr
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// completed counts the completed records.
func completed(recs []stats.FlowRecord) int {
	n := 0
	for _, r := range recs {
		if r.Completed {
			n++
		}
	}
	return n
}

// utilMAE computes the mean absolute error between mean link utilizations
// of the two runs over the links both observed.
func utilMAE(a, b *stats.Collector) float64 {
	ma, mb := a.MeanLinkUtilization(), b.MeanLinkUtilization()
	var sum float64
	var n int
	for _, k := range linkDirs(ma) {
		if vb, ok := mb[k]; ok {
			sum += math.Abs(ma[k] - vb)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// linkDirs returns m's keys in (link, direction) order, so a float sum over
// them does not depend on Go's map iteration order.
func linkDirs(m map[stats.LinkDir]float64) []stats.LinkDir {
	ks := make([]stats.LinkDir, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	key := func(d stats.LinkDir) int64 {
		if d.Forward {
			return 2*int64(d.Link) + 1
		}
		return 2 * int64(d.Link)
	}
	slices.SortFunc(ks, func(a, b stats.LinkDir) int { return cmp.Compare(key(a), key(b)) })
	return ks
}

// e4Spec runs the paper's headline evaluation: an IXP-scale fabric with
// diurnal gravity traffic replayed over a simulated day.
func e4Spec(o Options, memberCounts []int, hours int) *spec {
	sp := &spec{table: &Table{
		ID:      "E4",
		Title:   fmt.Sprintf("IXP replay: %dh diurnal gravity traffic", hours),
		Columns: []string{"members", "switches", "epoch-flows", "events", "sim-hours", "wall-ms", "peak-fabric-util"},
	}}
	for _, members := range memberCounts {
		members := members
		sp.cell(fmt.Sprintf("members=%d", members), func() [][]string {
			prof := ixp.LargeIXP(members)
			fab, err := ixp.Build(prof)
			if err != nil {
				return nil
			}
			agg := float64(members) * 1e9 // ~1 Gbps mean per member (busy IXP)
			tr := fab.ReplayTrace(agg, 0.2, simtime.Hour, simtime.Duration(hours)*simtime.Hour, 9)
			eng := mustEngine(horse.New(fab.Topo,
				horse.WithController(controller.NewChain(&controller.ECMPLoadBalancer{})),
				horse.WithMiss(dataplane.MissController),
				horse.WithStatsEvery(10*simtime.Minute),
			))
			eng.Load(tr)
			start := o.now()
			col, _ := eng.Run(context.Background(), simtime.Time(simtime.Duration(hours+1)*simtime.Hour))
			wall := o.since(start)
			peak := 0.0
			for d, u := range col.PeakLinkUtilization() {
				l := fab.Topo.Link(d.Link)
				if fab.Topo.Node(l.A).Kind == netgraph.KindSwitch && fab.Topo.Node(l.B).Kind == netgraph.KindSwitch && u > peak {
					peak = u
				}
			}
			return row(
				fmt.Sprintf("%d", members), fmt.Sprintf("%d", len(fab.Topo.Switches())),
				fmt.Sprintf("%d", len(tr)), di(col.EventsRun),
				fmt.Sprintf("%d", hours), ms(wall), f2(peak),
			)
		})
	}
	sp.table.Notes = append(sp.table.Notes, "expected shape: a simulated day at IXP scale completes in seconds of wall time; events scale ~linearly with members²·density")
	return sp
}

// e5Spec is the paper's "multiple configurations, from basic forwarding
// based on source and destination MAC, to more complex combination of
// policies": identical fabric and workload under increasingly rich policy
// configurations.
func e5Spec(o Options) *spec {
	sp := &spec{table: &Table{
		ID:      "E5",
		Title:   "Policy configuration sweep on a fixed IXP fabric",
		Columns: []string{"config", "flows", "events", "flowmods", "packetins", "wall-ms", "mean-FCT-s"},
	}}
	configs := []struct {
		name string
		mk   func(fab *ixp.Fabric) flowsim.Controller
	}{
		{"mac-forwarding", func(*ixp.Fabric) flowsim.Controller {
			return controller.NewChain(&controller.ProactiveMAC{})
		}},
		{"reactive-mac", func(*ixp.Fabric) flowsim.Controller {
			return controller.NewChain(&controller.ReactiveMAC{IdleTimeout: 30 * simtime.Second})
		}},
		{"+load-balancing", func(*ixp.Fabric) flowsim.Controller {
			return controller.NewChain(&controller.ECMPLoadBalancer{})
		}},
		{"+app-peering", func(fab *ixp.Fabric) flowsim.Controller {
			return controller.NewChain(
				&controller.ECMPLoadBalancer{},
				&controller.AppPeering{Rules: []controller.PeeringRule{{
					Ingress: fab.Edges[0], Egress: fab.Edges[2],
					AppMatch: header.Match{}.WithProto(header.ProtoTCP).WithDstPort(header.PortHTTP),
				}}},
			)
		}},
		{"+rate-limit+blackhole", func(fab *ixp.Fabric) flowsim.Controller {
			return controller.NewChain(
				&controller.ECMPLoadBalancer{},
				&controller.AppPeering{Rules: []controller.PeeringRule{{
					Ingress: fab.Edges[0], Egress: fab.Edges[2],
					AppMatch: header.Match{}.WithProto(header.ProtoTCP).WithDstPort(header.PortHTTP),
				}}},
				&controller.RateLimiter{Rules: []controller.RateLimitRule{{
					Match: header.Match{}.WithEthDst(addr.HostMAC(fab.Members[1])), RateBps: 2e8, At: fab.Edges[1],
				}}},
				&controller.Blackhole{Matches: []header.Match{
					header.Match{}.WithEthDst(addr.HostMAC(fab.Members[2])),
				}},
				&controller.Monitor{Every: simtime.Second},
			)
		}},
	}
	for _, cfg := range configs {
		cfg := cfg
		sp.cell(cfg.name, func() [][]string {
			fab, err := ixp.Build(ixp.SmallIXP())
			if err != nil {
				return nil
			}
			tr := fab.ReplayTrace(4e9, 0.3, simtime.Minute, 10*simtime.Minute, 31)
			col, wall := o.runFlowSim(fab.Topo, cfg.mk(fab), tr, 0)
			return row(
				cfg.name, fmt.Sprintf("%d", len(tr)), di(col.EventsRun),
				di(col.FlowMods), di(col.PacketIns), ms(wall), f3(metrics.Mean(col.FCTs())),
			)
		})
	}
	sp.table.Notes = append(sp.table.Notes,
		"expected shape: reactive-mac installs per flow, several times mac-forwarding's flowmods; every config punts the same table misses (equal packetins), so configs differ in flowmods, events and wall time",
	)
	return sp
}

// e6SharedFabric builds workload A: one shared fabric — every flow shares
// links with every other, so the dirty component is the whole network and
// incremental solving pays pure overhead.
func e6SharedFabric() (*netgraph.Topology, traffic.Trace) {
	topo := netgraph.LeafSpine(6, 3, 6, netgraph.Gig, netgraph.TenGig)
	g := traffic.NewGenerator(77)
	tr := g.PoissonArrivals(traffic.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 2000, Horizon: simtime.Second,
		Sizes: traffic.Pareto{XMin: 1e5, Alpha: 1.5}, TCPFraction: 0.5, CBRRateBps: 1e7,
	})
	return topo, tr
}

// e6Islands builds workload B: 24 disjoint islands in one topology —
// flows never share links across islands, so components stay small and
// incremental solving touches ~1/24 of the flows per event.
func e6Islands() (*netgraph.Topology, traffic.Trace) {
	const islands = 24
	topo := netgraph.New()
	var islandHosts [islands][]netgraph.NodeID
	for i := 0; i < islands; i++ {
		sw := topo.AddSwitch(fmt.Sprintf("isw%d", i))
		for j := 0; j < 4; j++ {
			h := topo.AddHost(fmt.Sprintf("ih%d_%d", i, j))
			topo.Connect(sw, h, 1e9, 50*simtime.Microsecond)
			islandHosts[i] = append(islandHosts[i], h)
		}
	}
	var tr traffic.Trace
	for i := 0; i < islands; i++ {
		g := traffic.NewGenerator(int64(100 + i))
		tr = append(tr, g.PoissonArrivals(traffic.PoissonConfig{
			Hosts: islandHosts[i], Lambda: 100, Horizon: simtime.Second,
			Sizes: traffic.Pareto{XMin: 1e5, Alpha: 1.5}, TCPFraction: 0.5, CBRRateBps: 1e7,
		})...)
	}
	tr.Sort()
	return topo, tr
}

// e6Spec benchmarks the fair-share recompute strategy, incremental
// against full, on a high-churn workload. The variant names keep the
// queue prefix of the retired event-queue arms, so the cells stay
// comparable with older reports.
func e6Spec(o Options) *spec {
	sp := &spec{table: &Table{
		ID:      "E6",
		Title:   "Ablations: fair-share recompute strategy",
		Columns: []string{"workload", "variant", "events", "rate-changes", "wall-ms"},
	}}
	variants := []struct {
		name string
		full bool
	}{
		{"wheel+incremental", false},
		{"wheel+full-recompute", true},
	}
	workloads := []struct {
		name  string
		build func() (*netgraph.Topology, traffic.Trace)
	}{
		{"shared-fabric", e6SharedFabric},
		{"24-islands", e6Islands},
	}
	for _, wl := range workloads {
		for _, v := range variants {
			wl, v := wl, v
			sp.cell(wl.name+"/"+v.name, func() [][]string {
				topo, tr := wl.build()
				opts := []horse.Option{
					horse.WithController(controller.NewChain(&controller.ECMPLoadBalancer{})),
					horse.WithMiss(dataplane.MissController),
				}
				if v.full {
					opts = append(opts, horse.WithFullRecompute())
				}
				eng := mustEngine(horse.New(topo, opts...))
				eng.Load(tr)
				start := o.now()
				col, _ := eng.Run(context.Background(), simtime.Time(10*simtime.Minute))
				wall := o.since(start)
				return row(wl.name, v.name, di(col.EventsRun), di(col.RateChanges), ms(wall))
			})
		}
	}
	sp.table.Notes = append(sp.table.Notes,
		"expected shape: full recompute wins when traffic is one component (shared fabric); incremental wins when traffic decomposes (islands)",
	)
	return sp
}

// e7Scenario builds the fixed reactive scenario every E7 arm replays: a
// dumbbell with a congestible core and a mixed CBR/TCP Poisson workload
// under reactive MAC forwarding — every flow must punt before it moves, so
// the control plane is exercised at every fidelity.
func e7Scenario() (*netgraph.Topology, traffic.Trace) {
	topo := netgraph.Dumbbell(4, 4, netgraph.Gig,
		netgraph.LinkSpec{BandwidthBps: 2e8, Delay: simtime.Millisecond})
	g := traffic.NewGenerator(55)
	tr := g.PoissonArrivals(traffic.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 40, Horizon: 500 * simtime.Millisecond,
		Sizes: traffic.FixedSize(2e6), TCPFraction: 0.5, CBRRateBps: 2e7,
	})
	return topo, tr
}

func e7Controller() flowsim.Controller {
	return controller.NewChain(&controller.ReactiveMAC{})
}

const e7Window = simtime.Time(30 * simtime.Second)

// e7Spec is the hybrid-engine evaluation: one reactive scenario swept from
// pure flow-level to pure packet-level fidelity under a single controller,
// charting accuracy (per-flow FCT error against the standalone packet
// engine) against simulation work (events/sec).
func e7Spec(o Options, fractions []float64) *spec {
	sp := &spec{table: &Table{
		ID:    "E7",
		Title: "Hybrid fidelity sweep: packet-level share vs accuracy vs events/sec",
		Columns: []string{
			"mode", "pkt-flows", "flow-flows", "completed", "pkt-hops",
			"events", "wall-ms", "events/ms", "fct-relerr", "pkt-parity",
		},
	}}
	// One cell: the sweep compares every arm against the in-cell packet
	// reference, so rows assemble sequentially (and the table stays
	// byte-identical for any -parallel by construction).
	sp.cell("sweep", func() [][]string {
		var rows [][]string

		// Reference: the standalone controller-attached packet engine.
		topoR, trR := e7Scenario()
		engR := mustEngine(horse.New(topoR,
			horse.WithFidelity(horse.Packet),
			horse.WithMiss(dataplane.MissController),
			horse.WithController(e7Controller()),
			horse.WithControlLatency(simtime.Millisecond),
		))
		simR := engR.(*packetsim.Simulator)
		engR.Load(trR)
		startR := o.now()
		colR, _ := engR.Run(context.Background(), e7Window)
		wallR := o.since(startR)
		ref := colR.Flows()
		evR := simR.Kernel().Dispatched()
		rows = append(rows, []string{
			"pkt-engine", fmt.Sprintf("%d", len(trR)), "0",
			fmt.Sprintf("%d", completed(ref)), di(simR.PacketsForwarded()),
			di(evR), ms(wallR), f2(float64(evR) / math.Max(float64(wallR.Microseconds())/1000, 1)),
			"0.000", "ref",
		})

		for _, p := range fractions {
			topo, tr := e7Scenario()
			eng := mustEngine(horse.New(topo,
				horse.WithFidelity(horse.Hybrid),
				horse.WithMiss(dataplane.MissController),
				horse.WithController(e7Controller()),
				horse.WithControlLatency(simtime.Millisecond),
				// Flow-level TCP RTT matched to the dumbbell (the E3
				// methodology), so the accuracy column measures fidelity,
				// not a mis-set fluid model.
				horse.WithTCP(tcpmodel.Params{RTT: 2200 * simtime.Microsecond, MSS: 1500, InitialWindow: 10}),
				horse.WithPacketFraction(p),
			))
			hyb := eng.(*hybrid.Simulator)
			eng.Load(tr)
			start := o.now()
			col, _ := eng.Run(context.Background(), e7Window)
			wall := o.since(start)
			recs := col.Flows()

			// Parity: the 100% arm must reproduce the reference run
			// exactly — same completion set, outcomes, end times, bytes.
			parity := "-"
			if p >= 1 {
				parity = "identical"
				if len(recs) != len(ref) {
					parity = "DIVERGED"
				} else {
					for i := range recs {
						if recs[i].ID != ref[i].ID || recs[i].Completed != ref[i].Completed ||
							recs[i].Outcome != ref[i].Outcome || recs[i].End != ref[i].End ||
							recs[i].SentBits != ref[i].SentBits {
							parity = "DIVERGED"
							break
						}
					}
				}
			}

			pktN, flowN := hyb.Split()
			rows = append(rows, []string{
				fmt.Sprintf("hybrid-%d%%", int(p*100+0.5)),
				fmt.Sprintf("%d", pktN), fmt.Sprintf("%d", flowN),
				fmt.Sprintf("%d", completed(recs)), di(hyb.PacketsForwarded()),
				di(col.EventsRun), ms(wall),
				f2(float64(col.EventsRun) / math.Max(float64(wall.Microseconds())/1000, 1)),
				f3(fctRelErr(recs, ref)), parity,
			})
		}
		return rows
	})
	sp.table.Notes = append(sp.table.Notes,
		"expected shape: events (and wall time) grow with the packet-level share; fct-relerr shrinks toward 0 at 100%",
		"contract: the 100% arm reports pkt-parity=identical — the hybrid at full fidelity IS the standalone packet engine",
	)
	return sp
}

// e8Policies are the controller policies the resilience sweep contrasts:
// single-path forwarding reconverges through the controller (flush +
// recompute after PortStatus), while ECMP load balancing also has group
// watch-port failover in the data plane.
var e8Policies = []struct {
	name string
	mk   func() flowsim.Controller
}{
	{"forwarding", func() flowsim.Controller { return controller.NewChain(&controller.ProactiveMAC{}) }},
	{"loadbalance", func() flowsim.Controller { return controller.NewChain(&controller.ECMPLoadBalancer{}) }},
}

// e8Scenario builds the fixed fabric and workload every E8 arm disturbs: a
// dual-spine leaf–spine (so every leaf pair has an alternate path) under a
// mixed CBR/TCP Poisson load.
func e8Scenario() (*netgraph.Topology, traffic.Trace) {
	topo := netgraph.LeafSpine(4, 2, 2, netgraph.Gig, netgraph.TenGig)
	g := traffic.NewGenerator(91)
	tr := g.PoissonArrivals(traffic.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 150, Horizon: 2 * simtime.Second,
		Sizes: traffic.Pareto{XMin: 1e5, Alpha: 1.5}, TCPFraction: 0.5, CBRRateBps: 1e7,
	})
	return topo, tr
}

const e8Window = simtime.Time(10 * simtime.Minute)

// e8Spec is the dynamic-network evaluation: a seed-reproducible random
// link failure/recovery process (scenario.RandomLinkFailures) swept over
// MTBF × recovery time × controller policy, measuring what each
// disruption level costs — reconvergence latency, flows lost, rule churn,
// and FCT stretch against a failure-free baseline of the identical
// workload.
func e8Spec(o Options, mtbfs, recoveries []simtime.Duration) *spec {
	sp := &spec{table: &Table{
		ID:    "E8",
		Title: "Resilience sweep: MTBF × recovery × policy under random link failures",
		Columns: []string{
			"policy", "mtbf-s", "recovery-s", "failures", "reroutes",
			"reroute-ms", "completed", "lost", "rule-churn", "fct-stretch",
		},
	}}
	// One cell per policy: the failure-free baseline depends only on the
	// policy, so it is simulated once and shared by every (mtbf,
	// recovery) arm — rows still assemble in grid order, so the table
	// stays byte-identical for any -parallel.
	for _, pol := range e8Policies {
		pol := pol
		sp.cell(pol.name, func() [][]string {
			topoB, trB := e8Scenario()
			engB := mustEngine(horse.New(topoB,
				horse.WithController(pol.mk()),
				horse.WithMiss(dataplane.MissController),
			))
			engB.Load(trB)
			colB, _ := engB.Run(context.Background(), e8Window)

			var rows [][]string
			for _, mtbf := range mtbfs {
				for _, rec := range recoveries {
					// Disturbed run: reproducible failures on core links,
					// compiled onto the engine at build time (WithScenario
					// validates and applies before any Load).
					topo, tr := e8Scenario()
					tl := scenario.RandomLinkFailures(topo, scenario.FailureConfig{
						Seed: 7, MTBF: mtbf, Recovery: rec,
						Horizon: simtime.Time(2 * simtime.Second), CoreOnly: true,
					})
					eng := mustEngine(horse.New(topo,
						horse.WithController(pol.mk()),
						horse.WithMiss(dataplane.MissController),
						horse.WithScenario(tl),
					))
					eng.Load(tr)
					col, _ := eng.Run(context.Background(), e8Window)

					out := scenario.Evaluate(tl, col, colB)
					rows = append(rows, []string{
						pol.name, f2(mtbf.Seconds()), f2(rec.Seconds()),
						fmt.Sprintf("%d", out.Failures), fmt.Sprintf("%d", out.Reroutes),
						ms(time.Duration(out.RerouteLatency)),
						fmt.Sprintf("%d", out.FlowsCompleted), fmt.Sprintf("%d", out.FlowsLost),
						di(out.RuleChurn), f2(out.FCTStretch),
					})
				}
			}
			return rows
		})
	}
	sp.table.Notes = append(sp.table.Notes,
		"expected shape: shorter MTBF / longer recovery raise lost flows, rule churn, and fct-stretch",
		"expected shape: loadbalance reroutes at the failure instant (watch-port failover); forwarding pays the controller round trip",
	)
	return sp
}

// parity byte-compares an arm's flow records against the cell's
// reference run.
func parity(recs, ref []stats.FlowRecord) string {
	if len(recs) != len(ref) {
		return "DIVERGED"
	}
	for i := range recs {
		if recs[i] != ref[i] {
			return "DIVERGED"
		}
	}
	return "identical"
}

// e10Model is one degradation arm of the E10 sweep.
type e10Model struct {
	name, param string
	m           horse.LinkModel
}

// e10Models is the report-scale model grid: light and heavy Bernoulli
// loss, a bursty Gilbert–Elliott channel, and SNR-stepped adaptive rate.
func e10Models() []e10Model {
	return []e10Model{
		{"bernoulli", "p=0.01", horse.BernoulliLoss{P: 0.01}},
		{"bernoulli", "p=0.05", horse.BernoulliLoss{P: 0.05}},
		{"gilbert-elliott", "burst", horse.GilbertElliott{
			PGoodBad: 0.05, PBadGood: 0.3, LossGood: 0.001, LossBad: 0.5,
		}},
		{"adaptive-rate", "4-level", horse.AdaptiveRate{
			Levels: 4, Floor: 0.25, Every: 10 * simtime.Millisecond,
		}},
	}
}

// e10QuickModels is the quick grid's reduced model set.
func e10QuickModels() []e10Model {
	return []e10Model{
		{"bernoulli", "p=0.02", horse.BernoulliLoss{P: 0.02}},
		{"adaptive-rate", "4-level", horse.AdaptiveRate{
			Levels: 4, Floor: 0.25, Every: 10 * simtime.Millisecond,
		}},
	}
}

// e10Window bounds every E10 run.
const e10Window = simtime.Time(2 * simtime.Second)

// e10Scenario builds the fixed fabric and workload every E10 arm
// degrades: a k=4 fat-tree under a cross-pod CBR/TCP Poisson load at a
// gentle arrival rate, so loss — not queueing — is the dominant effect
// being measured.
func e10Scenario() (*netgraph.Topology, traffic.Trace) {
	topo := netgraph.FatTree(4, netgraph.Gig)
	g := traffic.NewGenerator(107)
	tr := g.PoissonArrivals(traffic.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 20 * float64(len(topo.Hosts())),
		Horizon: 200 * simtime.Millisecond,
		Sizes:   traffic.FixedSize(1e6), TCPFraction: 0.5, CBRRateBps: 2e7,
	})
	return topo, tr
}

// e10Spec is the lossy-link evaluation: the link-degradation models
// (internal/linkmodel) swept across loss regimes and all three fidelities,
// measuring goodput, retransmit ratio, corruption drops, and FCT stretch
// against a pristine-link baseline of the identical workload — with
// in-cell byte-parity against a second run of the same seed, since the
// linkmodel contract is "same records for the same seed, models on".
func e10Spec(o Options, models []e10Model) *spec {
	sp := &spec{table: &Table{
		ID:    "E10",
		Title: "Degraded links: loss model × fidelity, vs pristine baseline",
		Columns: []string{
			"model", "param", "fidelity",
			"completed", "goodput-mbps", "retx-ratio", "corrupted", "fct-stretch", "parity",
			"queue-drops",
		},
	}}

	// One run of the scenario at one fidelity. The E3 identical-state
	// methodology: proactive MAC rules installed before the first arrival,
	// so every fidelity forwards on the same paths and the deltas below
	// measure the link models, not the control plane.
	run := func(fid horse.Fidelity, m horse.LinkModel) *stats.Collector {
		topo, tr := e10Scenario()
		opts := []horse.Option{
			horse.WithFidelity(fid),
			horse.WithMiss(dataplane.MissDrop),
			horse.WithController(controller.NewChain(&controller.ProactiveMAC{})),
			horse.WithControlLatency(simtime.Microsecond),
		}
		if fid != horse.Packet {
			// The fluid TCP model, RTT-matched to the fat-tree; the packet
			// engine models TCP per packet and rejects the option.
			opts = append(opts, horse.WithTCP(tcpmodel.Params{RTT: 500 * simtime.Microsecond, MSS: 1500, InitialWindow: 10}))
		}
		if fid == horse.Hybrid {
			opts = append(opts, horse.WithPacketFraction(0.5))
		}
		if m != nil {
			opts = append(opts, horse.WithLinkModel(m), horse.WithLinkModelSeed(7))
		}
		eng := mustEngine(horse.New(topo, opts...))
		eng.Load(tr)
		col, _ := eng.Run(context.Background(), e10Window)
		return col
	}

	// goodput in Mbps over the workload horizon, from completed flows.
	goodput := func(col *stats.Collector) float64 {
		var bits float64
		for _, r := range col.Flows() {
			if r.Completed {
				bits += r.SentBits
			}
		}
		return bits / e10Window.Seconds() / 1e6
	}
	retxRatio := func(col *stats.Collector) float64 {
		if col.PacketsSent == 0 {
			return 0
		}
		return float64(col.Retransmits) / float64(col.PacketsSent)
	}

	// One cell per (model, fidelity): the pristine baseline and two runs
	// with the model on, the second compared against the first; rows
	// assemble in grid order, so the table stays byte-identical for any
	// -parallel.
	for _, mdl := range models {
		for _, fid := range []horse.Fidelity{horse.Flow, horse.Packet, horse.Hybrid} {
			mdl, fid := mdl, fid
			sp.cell(fmt.Sprintf("%s-%s/%s", mdl.name, mdl.param, fid), func() [][]string {
				cleanFCT := metrics.Mean(run(fid, nil).FCTs())
				col := run(fid, mdl.m)
				stretch := 0.0
				if cleanFCT > 0 {
					stretch = metrics.Mean(col.FCTs()) / cleanFCT
				}
				return row(mdl.name, mdl.param, fid.String(),
					fmt.Sprintf("%d", completed(col.Flows())), f2(goodput(col)),
					f3(retxRatio(col)), di(col.PacketsCorrupted), f2(stretch),
					parity(run(fid, mdl.m).Flows(), col.Flows()), di(col.PacketsQueueDropped))
			})
		}
	}
	sp.table.Notes = append(sp.table.Notes,
		"expected shape: goodput falls and retx-ratio/fct-stretch rise with loss; adaptive-rate degrades goodput with no corruption drops",
		"contract: parity stays identical across two runs of one seed with models enabled — the linkmodel streams are seed-deterministic",
	)
	return sp
}

// grid is the E-suite: every experiment's ID and the spec it compiles to
// at quick and at report scale. Run executes it in this order.
var grid = []struct {
	id          string
	quick, full func(Options) *spec
}{
	{"E1", e1Spec, e1Spec},
	{"E2",
		func(o Options) *spec { return e2Spec(o, []int{4}, []float64{200}) },
		func(o Options) *spec { return e2Spec(o, []int{4, 8, 16, 32}, []float64{200, 1000, 5000}) }},
	{"E3", e3Spec, e3Spec},
	{"E4",
		func(o Options) *spec { return e4Spec(o, []int{100}, 6) },
		func(o Options) *spec { return e4Spec(o, []int{100, 200, 400}, 24) }},
	{"E5", e5Spec, e5Spec},
	{"E6", e6Spec, e6Spec},
	{"E7",
		func(o Options) *spec { return e7Spec(o, []float64{0, 0.5, 1}) },
		func(o Options) *spec { return e7Spec(o, []float64{0, 0.25, 0.5, 0.75, 1}) }},
	{"E8",
		func(o Options) *spec {
			return e8Spec(o, []simtime.Duration{500 * simtime.Millisecond}, []simtime.Duration{200 * simtime.Millisecond})
		},
		func(o Options) *spec {
			return e8Spec(o, []simtime.Duration{500 * simtime.Millisecond, 2 * simtime.Second},
				[]simtime.Duration{100 * simtime.Millisecond, 400 * simtime.Millisecond})
		}},
	{"E10",
		func(o Options) *spec { return e10Spec(o, e10QuickModels()) },
		func(o Options) *spec { return e10Spec(o, e10Models()) }},
}

// Run executes the E-suite at quick or report scale: every experiment, or
// only the one whose ID matches only (case-insensitive). All cells fan out
// across one worker pool. An unknown ID is an error and runs nothing.
func Run(o Options, quick bool, only string) ([]*Table, error) {
	var specs []*spec
	for _, e := range grid {
		if only != "" && !strings.EqualFold(only, e.id) {
			continue
		}
		if quick {
			specs = append(specs, e.quick(o))
		} else {
			specs = append(specs, e.full(o))
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("unknown experiment %q", only)
	}
	return runSpecs(o, specs), nil
}
