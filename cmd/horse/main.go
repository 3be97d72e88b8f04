// Command horse runs one Horse simulation scenario: a topology, a policy
// configuration (Figure-2 style JSON), and a workload (CSV trace or a
// generated one), and reports flow and link statistics.
//
// Usage:
//
//	horse -topo leafspine -leaves 8 -spines 4 -hosts 4 \
//	      -policy policy.json -lambda 500 -horizon 10s \
//	      -flows flows.csv -links links.csv
//
//	horse -topo ixp -members 200 -replay 24h -epoch 1h
//
// The experiments subcommand runs the E-suite (E1–E8, E10) on a worker
// pool and can emit the machine-readable bench report:
//
//	horse experiments -quick -parallel 8 -json BENCH_experiments.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"horse"
	"horse/internal/benchcli"
	"horse/internal/controller"
	"horse/internal/flowsim"
	"horse/internal/ixp"
	"horse/internal/metrics"
	"horse/internal/netgraph"
	"horse/internal/policy"
	"horse/internal/simtime"
	"horse/internal/traffic"
)

func main() {
	// The experiments subcommand shares cmd/horsebench's driver so the
	// two binaries expose the identical E1–E8 grid and flags.
	if len(os.Args) > 1 && os.Args[1] == "experiments" {
		os.Exit(benchcli.Main("horse", os.Args[2:], os.Stdout, os.Stderr))
	}
	runScenario()
}

func runScenario() {
	var (
		topoKind = flag.String("topo", "leafspine", "topology: leafspine|fattree|ring|linear|dumbbell|ixp")
		leaves   = flag.Int("leaves", 4, "leaf switches (leafspine)")
		spines   = flag.Int("spines", 2, "spine switches (leafspine)")
		hosts    = flag.Int("hosts", 4, "hosts per leaf / switches in ring")
		k        = flag.Int("k", 4, "fat-tree arity")
		members  = flag.Int("members", 100, "IXP members")

		policyPath = flag.String("policy", "", "policy JSON file (default: proactive MAC forwarding)")
		validate   = flag.Bool("validate", true, "run policy composition validation")

		tracePath = flag.String("trace", "", "CSV trace to replay (overrides generator)")
		lambda    = flag.Float64("lambda", 200, "Poisson arrival rate (flows/s)")
		horizon   = flag.Duration("horizon", 5*time.Second, "workload horizon (virtual)")
		tcpFrac   = flag.Float64("tcp", 0.7, "fraction of TCP flows")
		seed      = flag.Int64("seed", 1, "workload seed")

		replay = flag.Duration("replay", 0, "IXP replay horizon (enables matrix replay)")
		epoch  = flag.Duration("epoch", time.Hour, "IXP replay epoch")
		aggGbs = flag.Float64("agg-gbps", 50, "IXP aggregate traffic (Gbps)")

		until      = flag.Duration("until", 0, "virtual-time bound (0 = run until traffic drains; required sense when monitoring polls forever)")
		statsEvery = flag.Duration("stats-every", 100*time.Millisecond, "utilization sampling period")
		flowsOut   = flag.String("flows", "", "write per-flow CSV here")
		linksOut   = flag.String("links", "", "write link-utilization CSV here")
	)
	flag.Parse()

	topo, fab, err := buildTopo(*topoKind, *leaves, *spines, *hosts, *k, *members)
	if err != nil {
		fatal(err)
	}

	ctrl, cfg, err := buildController(topo, *policyPath, *validate)
	if err != nil {
		fatal(err)
	}

	eng, err := horse.New(topo,
		horse.WithController(ctrl),
		horse.WithMiss(horse.MissController),
		horse.WithStatsEvery(simtime.FromSeconds(statsEvery.Seconds())),
	)
	if err != nil {
		fatal(err)
	}

	tr, err := buildWorkload(topo, fab, *tracePath, *lambda, *horizon, *tcpFrac, *seed, *replay, *epoch, *aggGbs)
	if err != nil {
		fatal(err)
	}
	eng.Load(tr)

	// A monitoring policy polls forever, so an open-ended run would never
	// drain; bound it at the workload end plus a grace period.
	bound := simtime.Never
	if *until > 0 {
		bound = simtime.AtSeconds(until.Seconds())
	} else if cfg != nil && cfg.Monitoring != nil {
		var end simtime.Time
		for _, d := range tr {
			t := d.Start.Add(d.Duration)
			if t > end {
				end = t
			}
		}
		bound = end.Add(30 * simtime.Second)
		fmt.Fprintf(os.Stderr, "horse: monitoring enabled; bounding run at %v (override with -until)\n", bound)
	}

	// Ctrl-C cancels the run through the engine lifecycle: the simulation
	// stops promptly and reports the partial (but consistent) statistics
	// accumulated up to the interrupt.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	col, runErr := eng.Run(ctx, bound)
	wall := time.Since(start)
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "horse: run interrupted (%v); reporting partial statistics\n", runErr)
	}

	fmt.Printf("topology: %d switches, %d hosts, %d links\n",
		len(topo.Switches()), len(topo.Hosts()), topo.NumLinks())
	fmt.Printf("workload: %d flows\n", len(tr))
	fmt.Printf("run:      %d events in %v (%.0f events/s)\n",
		col.EventsRun, wall.Round(time.Millisecond), float64(col.EventsRun)/wall.Seconds())
	fmt.Printf("flows:    %d completed, %d dropped, %d looped, %d packet-ins, %d flow-mods\n",
		col.FlowsCompleted, col.FlowsDropped, col.FlowsLooped, col.PacketIns, col.FlowMods)
	s := metrics.Summarize(col.FCTs())
	fmt.Printf("fct:      n=%d mean=%.4fs p50=%.4fs p90=%.4fs p99=%.4fs max=%.4fs\n",
		s.N, s.Mean, s.P50, s.P90, s.P99, s.Max)
	top := col.TopLinks(5)
	mean := col.MeanLinkUtilization()
	for _, d := range top {
		fmt.Printf("busy:     %s mean-util=%.3f\n", d, mean[d])
	}

	if *flowsOut != "" {
		if err := writeFile(*flowsOut, col.WriteFlowsCSV); err != nil {
			fatal(err)
		}
	}
	if *linksOut != "" {
		if err := writeFile(*linksOut, col.WriteLinkSeriesCSV); err != nil {
			fatal(err)
		}
	}
}

func buildTopo(kind string, leaves, spines, hosts, k, members int) (*netgraph.Topology, *ixp.Fabric, error) {
	switch kind {
	case "leafspine":
		return netgraph.LeafSpine(leaves, spines, hosts, netgraph.Gig, netgraph.TenGig), nil, nil
	case "fattree":
		return netgraph.FatTree(k, netgraph.Gig), nil, nil
	case "ring":
		return netgraph.Ring(hosts, netgraph.Gig, netgraph.TenGig), nil, nil
	case "linear":
		return netgraph.Linear(hosts, netgraph.Gig, netgraph.TenGig), nil, nil
	case "dumbbell":
		return netgraph.Dumbbell(hosts, hosts, netgraph.Gig, netgraph.TenGig), nil, nil
	case "ixp":
		fab, err := ixp.Build(ixp.LargeIXP(members))
		if err != nil {
			return nil, nil, err
		}
		return fab.Topo, fab, nil
	}
	return nil, nil, fmt.Errorf("unknown topology %q", kind)
}

func buildController(topo *netgraph.Topology, path string, validate bool) (flowsim.Controller, *policy.Config, error) {
	if path == "" {
		return controller.NewChain(&controller.ProactiveMAC{}), nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	cfg, err := policy.Parse(f)
	if err != nil {
		return nil, nil, err
	}
	if validate {
		for _, c := range cfg.Validate(topo) {
			fmt.Fprintf(os.Stderr, "policy validation: %s\n", c)
		}
	}
	chain, err := cfg.Compile(topo)
	if err != nil {
		return nil, nil, err
	}
	return chain, cfg, nil
}

func buildWorkload(topo *netgraph.Topology, fab *ixp.Fabric, tracePath string,
	lambda float64, horizon time.Duration, tcpFrac float64, seed int64,
	replay, epoch time.Duration, aggGbps float64) (traffic.Trace, error) {
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return traffic.ReadCSV(f)
	}
	if replay > 0 {
		if fab == nil {
			return nil, fmt.Errorf("-replay requires -topo ixp")
		}
		return fab.ReplayTrace(aggGbps*1e9, 0.2,
			simtime.FromSeconds(epoch.Seconds()),
			simtime.FromSeconds(replay.Seconds()), seed), nil
	}
	g := traffic.NewGenerator(seed)
	return g.PoissonArrivals(traffic.PoissonConfig{
		Hosts:       topo.Hosts(),
		Lambda:      lambda,
		Horizon:     simtime.FromSeconds(horizon.Seconds()),
		Sizes:       traffic.Pareto{XMin: 1e5, Alpha: 1.3},
		TCPFraction: tcpFrac,
		CBRRateBps:  1e7,
	}), nil
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "horse:", err)
	os.Exit(1)
}
