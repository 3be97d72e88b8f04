package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"horse"
	"horse/api/wire"
	"horse/internal/dataplane"
	"horse/internal/eventq"
	"horse/internal/fairshare"
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simcore"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

// Layer probes time calls into one package's exported functions, on
// inputs taken from the workload being measured: its topology, its flow
// keys in trace order, its records, and the event-queue backend and
// live-flow population it runs with. They give the unit costs the ledger
// multiplies by the run's own counts.

// probeInputs is what a workload hands the probes.
type probeInputs struct {
	topo    *horse.Topology
	trace   horse.Trace
	records []horse.FlowRecord
	// backend is the queue the workload runs on (the library default).
	backend eventq.Backend
	// population is the workload's peak concurrent flow count, estimated
	// from the trace's nominal durations.
	population int
	seed       int64
	// scale shrinks the probes' op counts with the workload (the go test
	// smoke runs at 0.01).
	scale float64
	// genNsPerDemand is the cost of producing one demand with the
	// workload's own generator, timed by the caller.
	genNsPerDemand float64
	csvSource      bool
}

const (
	probeDemandCap   = 50_000
	probeFairCap     = 20_000
	probeQueueOps    = 1_000_000
	probeDispatchOps = 1_000_000
	probeStatsOps    = 1_000_000
	probeWireOps     = 200_000
)

// accessBps is the capacity of a host's access link.
func accessBps(topo *horse.Topology, host horse.NodeID) float64 {
	sw, port := topo.AttachedSwitch(host)
	if sw < 0 {
		return math.Inf(1)
	}
	return topo.LinkAt(sw, port).BandwidthBps
}

// nominalEnd estimates when a demand finishes if nothing slows it: its
// stated duration, or its size at the lesser of its offered rate and its
// access link.
func nominalEnd(topo *horse.Topology, d horse.Demand) simtime.Time {
	if d.Duration > 0 {
		return d.Start.Add(d.Duration)
	}
	rate := math.Min(d.RateBps, accessBps(topo, d.Src))
	return d.Start.Add(simtime.TransferTime(d.SizeBits, rate))
}

// livePopulation is the peak number of demands whose nominal lifetimes
// overlap.
func livePopulation(topo *horse.Topology, tr horse.Trace) int {
	type edge struct {
		at    simtime.Time
		delta int
	}
	edges := make([]edge, 0, 2*len(tr))
	for _, d := range tr {
		edges = append(edges, edge{d.Start, 1}, edge{nominalEnd(topo, d), -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	live, peak := 0, 1
	for _, e := range edges {
		live += e.delta
		peak = max(peak, live)
	}
	return peak
}

type probeEvent struct{ t simtime.Time }

func (e *probeEvent) Time() simtime.Time { return e.t }
func (e *probeEvent) Fire()              {}
func (e *probeEvent) Release()           {}

// probeEventq runs the hold model on the workload's backend at the
// workload's population: each op pops the earliest event and pushes it
// back a random increment later; every fourth op instead re-arms a timer
// (PushCancelable a far-future event, Cancel the one armed 64 timer-ops
// ago), the pattern completion timers and RTOs produce.
func probeEventq(b eventq.Backend, population int, seed int64, ops int) (nsPerOp, allocsPerOp float64) {
	q := eventq.New(b)
	qc := q.(eventq.Canceler) // every backend implements it
	rng := rand.New(rand.NewSource(seed))
	var incs [4096]simtime.Duration
	for i := range incs {
		incs[i] = simtime.Duration(rng.ExpFloat64()*1000) + 1
	}
	events := make([]probeEvent, population)
	for i := range events {
		events[i].t = simtime.Time(incs[i%len(incs)])
		q.Push(&events[i])
	}
	const timers = 64
	// Far enough out that no timer fires before its cancel: virtual time
	// advances about one mean increment per population ops.
	timeout := simtime.Duration(1000 * (8*timers/population + 8))
	var timerEvents [timers]probeEvent
	var handles [timers]eventq.Handle
	now := simtime.Time(0)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		if i%4 == 3 {
			k := (i / 4) % timers
			qc.Cancel(handles[k])
			timerEvents[k].t = now.Add(timeout)
			handles[k] = qc.PushCancelable(&timerEvents[k])
			continue
		}
		ev := q.Pop().(*probeEvent)
		if ev.t > now {
			now = ev.t
		}
		ev.t = now.Add(incs[i%len(incs)])
		q.Push(ev)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(ops), float64(m1.Mallocs-m0.Mallocs) / float64(ops)
}

// probeDispatch times Kernel.Schedule plus Run over no-op events, in
// waves of the workload's population.
func probeDispatch(b eventq.Backend, population, ops int) float64 {
	k := simcore.New(simcore.Config{Backend: b})
	wave := max(population, 1024)
	events := make([]probeEvent, wave)
	done := 0
	t0 := time.Now()
	for done < ops {
		base := k.Now()
		for i := range events {
			events[i].t = base.Add(simtime.Duration(i + 1))
			k.Schedule(&events[i])
		}
		k.Run(simtime.Never)
		done += wave
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(done)
}

// linkResources lists the fair-share resources a delivered path crosses:
// the source's access link, then each hop's egress link, by direction.
func linkResources(topo *horse.Topology, src horse.NodeID, hops []dataplane.Hop) []fairshare.ResourceID {
	res := make([]fairshare.ResourceID, 0, len(hops)+1)
	dir := func(l *netgraph.Link, from netgraph.NodeID) fairshare.ResourceID {
		id := fairshare.ResourceID(l.ID) * 2
		if l.A != from {
			id++
		}
		return id
	}
	if sw, port := topo.AttachedSwitch(src); sw >= 0 {
		res = append(res, dir(topo.LinkAt(sw, port), src))
	}
	for _, h := range hops {
		if h.Link != nil {
			res = append(res, dir(h.Link, h.Switch))
		}
	}
	return res
}

// probeFairshare replays the trace against a bare allocator over the
// workload's link set: flows join at their start and leave at their
// nominal end, and — as the flow engine does — one Recompute settles all
// the changes of an instant.
func probeFairshare(in probeInputs, net *dataplane.Network) (nsPerRecompute, changedPerRecompute float64) {
	tr := in.trace
	if len(tr) > probeFairCap {
		tr = tr[:probeFairCap]
	}
	a := fairshare.New()
	a.Epsilon = 0.01 // the engines' default rate epsilon
	for _, l := range in.topo.Links() {
		a.SetCapacity(fairshare.ResourceID(l.ID)*2, l.BandwidthBps)
		a.SetCapacity(fairshare.ResourceID(l.ID)*2+1, l.BandwidthBps)
	}
	type op struct {
		at  simtime.Time
		add bool
		i   int
	}
	ops := make([]op, 0, 2*len(tr))
	routes := make([][]fairshare.ResourceID, len(tr))
	for i, d := range tr {
		pr := net.Walk(d.Key, d.Src, d.Dst)
		routes[i] = linkResources(in.topo, d.Src, pr.Hops)
		ops = append(ops, op{d.Start, true, i}, op{nominalEnd(in.topo, d), false, i})
	}
	sort.SliceStable(ops, func(i, j int) bool {
		if ops[i].at != ops[j].at {
			return ops[i].at < ops[j].at
		}
		return !ops[i].add && ops[j].add
	})
	var spent time.Duration
	var recomputes, changed int
	for i := 0; i < len(ops); {
		at := ops[i].at
		for ; i < len(ops) && ops[i].at == at; i++ {
			o := ops[i]
			if o.add {
				a.AddFlow(fairshare.FlowID(o.i), tr[o.i].RateBps, routes[o.i])
			} else {
				a.RemoveFlow(fairshare.FlowID(o.i))
			}
		}
		t0 := time.Now()
		ch := a.Recompute()
		spent += time.Since(t0)
		recomputes++
		changed += len(ch)
	}
	if recomputes == 0 {
		return 0, 0
	}
	return float64(spent.Nanoseconds()) / float64(recomputes), float64(changed) / float64(recomputes)
}

// probeDataplane times the read path (a whole-path Walk and a single
// ingress-switch Process per trace key, on MAC routes) and the write path
// (one destination-MAC FlowAdd per trace key on a fresh network, the rule
// the reactive apps install).
func probeDataplane(in probeInputs, net *dataplane.Network) (nsPerWalk, nsPerLookup, nsPerFlowMod float64) {
	tr := in.trace
	n := float64(len(tr))
	t0 := time.Now()
	for _, d := range tr {
		net.Walk(d.Key, d.Src, d.Dst)
	}
	nsPerWalk = float64(time.Since(t0).Nanoseconds()) / n

	type ingress struct {
		sw   *dataplane.Switch
		live dataplane.PortLive
		out  netgraph.PortNum
	}
	at := map[netgraph.NodeID]ingress{}
	fresh := dataplane.NewNetwork(in.topo, dataplane.MissController)
	for _, h := range in.topo.Hosts() {
		sw, port := in.topo.AttachedSwitch(h)
		at[h] = ingress{sw: net.Switches[sw], live: net.PortLiveFunc(sw), out: port}
	}
	t0 = time.Now()
	for _, d := range tr {
		g := at[d.Src]
		g.sw.Process(d.Key, g.live)
	}
	nsPerLookup = float64(time.Since(t0).Nanoseconds()) / n

	t0 = time.Now()
	for _, d := range tr {
		g := at[d.Dst]
		fresh.Switches[g.sw.Node].Apply(&openflow.FlowMod{
			Switch: g.sw.Node, Op: openflow.FlowAdd, Priority: 10,
			Match: header.Match{}.WithEthDst(d.Key.EthDst),
			Instr: openflow.Apply(openflow.Output(g.out)),
		}, 0)
	}
	nsPerFlowMod = float64(time.Since(t0).Nanoseconds()) / n
	return
}

// probeCSVReader times Reader.Next over the trace's CSV encoding.
func probeCSVReader(tr horse.Trace) float64 {
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		return 0
	}
	r, err := traffic.NewCSVReader(&buf, 0)
	if err != nil {
		return 0
	}
	n := 0
	t0 := time.Now()
	for {
		if _, err := r.Next(); err != nil {
			if err != io.EOF {
				return 0
			}
			break
		}
		n++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(max(n, 1))
}

// probeStats times Collector.AddFlow into a counting sink.
func probeStats(records []horse.FlowRecord, ops int) float64 {
	c := stats.NewCollector(0)
	n := 0
	c.SetFlowSink(func(stats.FlowRecord) { n++ })
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		c.AddFlow(records[i%len(records)])
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

// probeWire times what the daemon does per streamed record: FromRecord,
// then the push frame's two JSON encodes and its newline.
func probeWire(records []horse.FlowRecord, ops int) (nsPerRecord, bytesPerRecord float64) {
	var total int
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		rec := wire.FromRecord(records[i%len(records)])
		data, _ := json.Marshal(&rec) // a Record always encodes
		b, _ := json.Marshal(&wire.Frame{V: wire.V1, Event: wire.EventRecord, Session: "s1", Data: data})
		total += len(b) + 1
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(ops), float64(total) / float64(ops)
}

// runProbes runs every probe once and returns the unit costs by metric
// name.
func runProbes(in probeInputs) map[string]float64 {
	if len(in.trace) > probeDemandCap {
		in.trace = in.trace[:probeDemandCap]
	}
	out := map[string]float64{}
	ops := func(n int) int { return scaled(n, in.scale, 2000) }
	out["eventq.ns_per_op"], out["eventq.allocs_per_op"] = probeEventq(in.backend, in.population, in.seed, ops(probeQueueOps))
	out["simcore.ns_per_dispatch"] = probeDispatch(in.backend, in.population, ops(probeDispatchOps))

	net := dataplane.NewNetwork(in.topo, dataplane.MissDrop)
	dataplane.InstallMACRoutes(net)
	out["fairshare.ns_per_recompute"], out["fairshare.changed_per_recompute"] = probeFairshare(in, net)
	out["dataplane.ns_per_walk"], out["openflow.ns_per_lookup"], out["dataplane.ns_per_flowmod"] = probeDataplane(in, net)

	out["traffic.csv_ns_per_demand"] = probeCSVReader(in.trace)
	out["traffic.gen_ns_per_demand"] = in.genNsPerDemand
	out["traffic.ns_per_demand"] = in.genNsPerDemand
	if in.csvSource {
		out["traffic.ns_per_demand"] = out["traffic.csv_ns_per_demand"]
	}
	out["stats.ns_per_record"] = probeStats(in.records, ops(probeStatsOps))
	out["wire.ns_per_record"], out["wire.bytes_per_record"] = probeWire(in.records, ops(probeWireOps))
	return out
}
