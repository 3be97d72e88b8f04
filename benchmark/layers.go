package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"horse"
	"horse/internal/eventq"
)

// perLayerMetrics is the fixed list a -trace 1 run reports for every
// workload. A layer a workload does not exercise reads 0: no controller
// means controller.span_ms is 0, an in-process run has no service.* time.
var perLayerMetrics = []metricDef{
	{name: "trace_overhead", unit: "x", better: "lower"},
	{name: "run.self_ms", unit: "ms", better: "lower"},
	{name: "controller.span_ms", unit: "ms", better: "lower"},
	{name: "reader.span_ms", unit: "ms", better: "lower"},
	{name: "sink.span_ms", unit: "ms", better: "lower"},
	{name: "flowsim.ns_per_event", unit: "ns", better: "lower"},
	{name: "packetsim.ns_per_event", unit: "ns", better: "lower"},
	{name: "packetsim.ns_per_hop", unit: "ns", better: "lower"},
	{name: "hybrid.ns_per_event", unit: "ns", better: "lower"},
	{name: "shard.speedup", unit: "x", better: "higher"},
	{name: "shard.imbalance", unit: "x", better: "lower"},
	{name: "service.submit_ms", unit: "ms", better: "lower"},
	{name: "service.first_record_ms", unit: "ms", better: "lower"},
	{name: "service.records_per_s", unit: "1/s", better: "higher"},
	{name: "eventq.ns_per_op", unit: "ns", better: "lower"},
	{name: "eventq.allocs_per_op", unit: "count", better: "lower"},
	{name: "simcore.ns_per_dispatch", unit: "ns", better: "lower"},
	{name: "fairshare.ns_per_recompute", unit: "ns", better: "lower"},
	{name: "fairshare.changed_per_recompute", unit: "count", better: "lower"},
	{name: "dataplane.ns_per_walk", unit: "ns", better: "lower"},
	{name: "openflow.ns_per_lookup", unit: "ns", better: "lower"},
	{name: "dataplane.ns_per_flowmod", unit: "ns", better: "lower"},
	{name: "traffic.ns_per_demand", unit: "ns", better: "lower"},
	{name: "stats.ns_per_record", unit: "ns", better: "lower"},
	{name: "wire.ns_per_record", unit: "ns", better: "lower"},
	{name: "wire.bytes_per_record", unit: "B", better: "lower"},
	{name: "engine.unattributed_share", unit: "ratio", better: "lower"},
}

// ledgerRow is one modelled share of wall time: how often the run used a
// layer, times what the probe says one use costs, over the untraced wall.
// Shares are modelled, overlap (simcore's dispatch cost contains eventq's)
// and need not sum to 1.
type ledgerRow struct {
	Layer    string  `json:"layer"`
	Count    float64 `json:"count"`
	CountOf  string  `json:"count_of"`
	UnitNs   float64 `json:"unit_ns"`
	EstShare float64 `json:"est_share"`
	// InSum is false for a row another row already contains.
	InSum bool `json:"in_sum"`
}

// layerReport is the traced pass's output.
type layerReport struct {
	Metrics map[string]metricValue `json:"metrics"`
	// Extra holds numbers the fixed list has no slot for (maxima, the
	// second traffic source, bytes on the wire).
	Extra map[string]float64 `json:"extra"`
	// Spans aggregates the last traced run by span name.
	Spans         map[string]spanStat `json:"spans"`
	Ledger        []ledgerRow         `json:"ledger"`
	TracedRuns    int                 `json:"traced_runs"`
	UntracedWallS float64             `json:"untraced_wall_s"`
	TracedWallS   float64             `json:"traced_wall_s"`
	Population    int                 `json:"population"`
	ProgressSteps int                 `json:"progress_steps"`
}

// maxTracedRuns bounds span memory: a streamed run records two spans per
// flow.
const maxTracedRuns = 3

// measureLayers alternates untraced and traced iterations for half the
// time budget, then runs the probes, and fills rep.Layers. End-to-end
// metrics are never taken from here.
func measureLayers(r, parity *runner, c config, rep *childReport, ref iterResult, keep *collected) ([]iterResult, error) {
	t := newTracer()
	var untraced, traced []iterResult
	var serialWall []float64
	pairs := maxTracedRuns
	if c.runs > 0 {
		pairs = min(c.runs, maxTracedRuns)
	}
	start := time.Now()
	for len(traced) < pairs && (len(traced) == 0 || c.runs > 0 || time.Since(start).Seconds() < c.seconds/2) {
		if parity != nil {
			it, err := parity.iterate(nil, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", parity.w.name, err)
			}
			serialWall = append(serialWall, it.WallS)
		}
		it, err := r.iterate(nil, nil)
		if err != nil {
			return nil, fmt.Errorf("%s untraced run: %w", r.w.name, err)
		}
		untraced = append(untraced, it)
		t.run = int32(len(traced))
		it, err = r.iterate(t, nil)
		if err != nil {
			return nil, fmt.Errorf("%s traced run: %w", r.w.name, err)
		}
		traced = append(traced, it)
	}
	if err := t.check(); err != nil {
		rep.Checks = append(rep.Checks, check{Name: "spans-nest", OK: false, Detail: err.Error()})
	} else {
		rep.Checks = append(rep.Checks, check{Name: "spans-nest", OK: true})
	}

	walls := func(its []iterResult) []float64 {
		xs := make([]float64, len(its))
		for i, it := range its {
			xs[i] = it.WallS
		}
		return xs
	}
	lr := &layerReport{
		Metrics: map[string]metricValue{}, Extra: map[string]float64{},
		TracedRuns: len(traced), UntracedWallS: median(walls(untraced)), TracedWallS: median(walls(traced)),
		ProgressSteps: len(t.progress),
	}
	vals := map[string]float64{"trace_overhead": lr.TracedWallS / lr.UntracedWallS}

	// Span-derived rows: medians over the traced runs.
	root := "Engine.Run"
	if r.w.eng == nil {
		root = "Stream.drain"
	}
	var self, ctrl, reader, sink []float64
	for run := range traced {
		agg := t.aggregate(int32(run))
		self = append(self, agg[root].SelfS)
		ctrl = append(ctrl, agg["Controller.Start"].TotalS+agg["Controller.Handle"].TotalS)
		reader = append(reader, agg["traffic.Reader.Next"].TotalS)
		sink = append(sink, agg["record.sink"].TotalS)
		lr.Spans = agg
	}
	selfS := median(self)
	vals["run.self_ms"] = selfS * 1e3
	vals["controller.span_ms"] = median(ctrl) * 1e3
	vals["reader.span_ms"] = median(reader) * 1e3
	vals["sink.span_ms"] = median(sink) * 1e3
	last := traced[len(traced)-1]
	if r.w.eng != nil && last.Events > 0 {
		vals[r.w.layer+".ns_per_event"] = selfS * 1e9 / float64(last.Events)
		if r.w.layer == "packetsim" && last.Hops > 0 {
			vals["packetsim.ns_per_hop"] = selfS * 1e9 / float64(last.Hops)
		}
	}
	if len(serialWall) > 0 {
		vals["shard.speedup"] = median(serialWall) / lr.UntracedWallS
	}
	if loads := untraced[len(untraced)-1].ShardLoads; len(loads) > 0 {
		var sum, peak float64
		for _, l := range loads {
			sum += float64(l)
			peak = math.Max(peak, float64(l))
		}
		if sum > 0 {
			vals["shard.imbalance"] = peak / (sum / float64(len(loads)))
		}
	}
	if r.w.eng == nil {
		var submit, first, rate []float64
		for _, it := range untraced {
			submit = append(submit, it.SubmitMs)
			first = append(first, it.FirstRecordMs)
			rate = append(rate, float64(it.Records)/it.WallS)
		}
		vals["service.submit_ms"] = median(submit)
		vals["service.first_record_ms"] = median(first)
		vals["service.records_per_s"] = median(rate)
		lr.Extra["service.submit_ms.max"] = slices.Max(submit)
		lr.Extra["service.first_record_ms.max"] = slices.Max(first)
		lr.Extra["service.sessions"] = float64(len(untraced))
		lr.Extra["wire.bytes_read"] = float64(last.ConnRead)
		lr.Extra["wire.bytes_written"] = float64(last.ConnWritten)
	}

	if c.probes {
		in, err := r.probeInputs(keep.records)
		if err != nil {
			return nil, err
		}
		lr.Population = in.population
		for k, v := range runProbes(in) {
			if isPerLayer(k) {
				vals[k] = v
			} else {
				lr.Extra[k] = v
			}
		}
		lr.Ledger = ledger(r.w, ref, vals, lr.UntracedWallS)
		share := 1.0
		for _, row := range lr.Ledger {
			if row.InSum {
				share -= row.EstShare
			}
		}
		// Modelled shares can overshoot; the remainder is floored at 0
		// rather than reported as negative time.
		vals["engine.unattributed_share"] = math.Max(0, share)
	}
	for _, m := range perLayerMetrics {
		lr.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	rep.Layers = lr

	if c.traceOut != "" {
		if err := t.write(c.traceOut, r.w.name, r.seed); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return append(untraced, traced...), nil
}

func isPerLayer(name string) bool {
	for _, m := range perLayerMetrics {
		if m.name == name {
			return true
		}
	}
	return false
}

// probeInputs rebuilds the workload's own topology and trace (outside
// any timed region) and times its generator on the way.
func (r *runner) probeInputs(records []horse.FlowRecord) (probeInputs, error) {
	in := probeInputs{records: records, backend: eventq.BackendHeap, seed: r.seed, scale: r.scale}
	var gen time.Duration
	if w := r.w.eng; w != nil {
		var aux any
		in.topo, aux = w.topo(r.seed, r.scale)
		t0 := time.Now()
		in.trace = w.trace(in.topo, aux, r.seed, r.scale)
		gen = time.Since(t0)
		in.csvSource = w.csvStream
	} else {
		spec := horsedSpec(r.seed, r.scale)
		var err error
		if in.topo, err = spec.Topology.Build(); err != nil {
			return in, err
		}
		t0 := time.Now()
		in.trace, err = spec.Workload.Trace(in.topo)
		gen = time.Since(t0)
		if err != nil {
			return in, err
		}
	}
	in.genNsPerDemand = float64(gen.Nanoseconds()) / float64(max(len(in.trace), 1))
	in.population = livePopulation(in.topo, in.trace)
	if len(in.records) == 0 {
		return in, fmt.Errorf("%s: warm-up kept no records for the probes", r.w.name)
	}
	return in, nil
}

// ledger multiplies the warm-up run's counts by the probes' unit costs.
func ledger(w *workload, ref iterResult, vals map[string]float64, wallS float64) []ledgerRow {
	row := func(layer string, count float64, of string, unitNs float64, inSum bool) ledgerRow {
		return ledgerRow{Layer: layer, Count: count, CountOf: of, UnitNs: unitNs,
			EstShare: count * unitNs / 1e9 / wallS, InSum: inSum}
	}
	events, records := float64(ref.Events), float64(ref.Records)
	walks := records + float64(ref.PacketIns)
	rows := []ledgerRow{
		row("eventq", events, "sim.events (inside simcore's row)", vals["eventq.ns_per_op"], false),
		row("simcore", events, "sim.events", vals["simcore.ns_per_dispatch"], true),
	}
	switch w.layer {
	case "packetsim":
		rows = append(rows, row("openflow", float64(ref.Hops), "sim.pkt_hops", vals["openflow.ns_per_lookup"], true))
	default:
		solves := float64(ref.Solves)
		of := "allocator solves"
		if solves == 0 {
			// Hybrid and daemon runs do not expose the allocator; a flow
			// joins and leaves once each.
			solves, of = 2*records, "2 x records (allocator not exposed)"
		}
		rows = append(rows,
			row("fairshare", solves, of, vals["fairshare.ns_per_recompute"], true),
			row("dataplane.walk", walks, "records + packet-ins", vals["dataplane.ns_per_walk"], true),
			row("dataplane.flowmod", float64(ref.FlowMods), "sim.flow_mods", vals["dataplane.ns_per_flowmod"], true),
		)
		if w.layer == "hybrid" {
			rows = append(rows, row("openflow", float64(ref.Hops), "sim.pkt_hops", vals["openflow.ns_per_lookup"], true))
		}
	}
	if w.eng != nil && w.eng.csvStream {
		rows = append(rows, row("traffic", records, "demands read inside Run", vals["traffic.ns_per_demand"], true))
	}
	rows = append(rows, row("stats", records, "records", vals["stats.ns_per_record"], true))
	if w.eng == nil {
		rows = append(rows, row("wire", records, "records", vals["wire.ns_per_record"], true))
	}
	return rows
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (lr *layerReport) print() {
	fmt.Printf("   layers: %d traced run(s), wall %.4f s traced vs %.4f s untraced; live-flow population %d\n",
		lr.TracedRuns, lr.TracedWallS, lr.UntracedWallS, lr.Population)
	for _, m := range perLayerMetrics {
		fmt.Printf("   %-32s %14.6g %s\n", m.name, lr.Metrics[m.name].Value, m.unit)
	}
	for _, k := range sortedKeys(lr.Extra) {
		fmt.Printf("   %-32s %14.6g\n", k, lr.Extra[k])
	}
	for _, k := range sortedKeys(lr.Spans) {
		s := lr.Spans[k]
		fmt.Printf("   span %-27s n=%-8d total %.6f s  self %.6f s\n", k, s.Count, s.TotalS, s.SelfS)
	}
	for _, row := range lr.Ledger {
		fmt.Printf("   ledger %-18s est_share %6.3f (modelled)  = %.0f %s x %.1f ns\n", row.Layer, row.EstShare, row.Count, row.CountOf, row.UnitNs)
	}
}
