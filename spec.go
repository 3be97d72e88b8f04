package horse

import (
	"fmt"

	"horse/api/wire"
	"horse/internal/controller"
	"horse/internal/simtime"
	"horse/internal/tcpmodel"
)

// This file is the bridge between the wire protocol's serializable
// session specs (api/wire) and the functional-options builder: the
// option-spec side of the service daemon. Every spec field maps onto the
// exact With* option a local caller would write, so spec-built engines
// inherit the builder's eager validation — a bad spec fails with a typed
// *BuildError (or *wire.SpecError) before any engine state exists, which
// the daemon surfaces as a wire error at Submit time.

// SpecFidelity parses a wire fidelity name ("" defaults to Flow).
func SpecFidelity(name string) (Fidelity, error) {
	switch name {
	case "", wire.FidelityFlow:
		return Flow, nil
	case wire.FidelityPacket:
		return Packet, nil
	case wire.FidelityHybrid:
		return Hybrid, nil
	}
	return 0, &BuildError{Option: "WithFidelity", Reason: fmt.Sprintf("unknown fidelity name %q", name)}
}

// SpecController builds the controller chain a spec names (nil when the
// spec names no apps).
func SpecController(apps []wire.AppSpec) (Controller, error) {
	if len(apps) == 0 {
		return nil, nil
	}
	var chain []App
	for i, a := range apps {
		switch a.Kind {
		case wire.AppProactiveMAC:
			chain = append(chain, &controller.ProactiveMAC{})
		case wire.AppReactiveMAC:
			chain = append(chain, &controller.ReactiveMAC{IdleTimeout: simtime.Duration(a.IdleTimeoutNs)})
		case wire.AppECMP:
			chain = append(chain, &controller.ECMPLoadBalancer{})
		default:
			return nil, &BuildError{Option: "WithController", Reason: fmt.Sprintf("controller[%d]: unknown app kind %q", i, a.Kind)}
		}
	}
	return NewChain(chain...), nil
}

// SpecOptions converts a serialized option set into the equivalent
// functional options. Zero-valued spec fields yield no option, so the
// builder's defaults apply; set fields validate through the same eager
// path as hand-written options.
func SpecOptions(o wire.OptionsSpec) ([]Option, error) {
	fid, err := SpecFidelity(o.Fidelity)
	if err != nil {
		return nil, err
	}
	opts := []Option{WithFidelity(fid)}
	ctrl, err := SpecController(o.Controller)
	if err != nil {
		return nil, err
	}
	if ctrl != nil {
		opts = append(opts, WithController(ctrl))
	}
	switch o.Miss {
	case "", "drop":
		// The default.
	case "controller":
		opts = append(opts, WithMiss(MissController))
	default:
		return nil, &BuildError{Option: "WithMiss", Reason: fmt.Sprintf("unknown miss behavior %q", o.Miss)}
	}
	if o.ControlLatencyNs != 0 {
		opts = append(opts, WithControlLatency(Duration(o.ControlLatencyNs)))
	}
	if o.TCPRTTNs != 0 || o.TCPMSS != 0 || o.TCPInitialWindow != 0 {
		opts = append(opts, WithTCP(tcpmodel.Params{
			RTT:           Duration(o.TCPRTTNs),
			MSS:           o.TCPMSS,
			InitialWindow: o.TCPInitialWindow,
		}))
	}
	if o.StatsEveryNs != 0 {
		opts = append(opts, WithStatsEvery(Duration(o.StatsEveryNs)))
	}
	if o.RateEpsilon != nil {
		opts = append(opts, WithRateEpsilon(*o.RateEpsilon))
	}
	if o.FullRecompute {
		opts = append(opts, WithFullRecompute())
	}
	// o.CalendarQueue and the "calendar"/"auto" names are horse-wire/v1
	// aliases for the default wheel: those backends are gone, and every
	// backend yields byte-identical records, so old specs keep running.
	switch o.EventQueue {
	case "", wire.EventQueueWheel, "calendar", "auto":
		// The default (wheel) — no option.
	case wire.EventQueueHeap:
		opts = append(opts, WithEventQueue(EventQueueHeap))
	default:
		return nil, &BuildError{Option: "WithEventQueue", Reason: fmt.Sprintf("unknown event queue %q", o.EventQueue)}
	}
	// Shards, ShardWorkers and ShardBalancing are horse-wire/v1 fields of
	// the removed sharded executor: accepted and ignored, so old specs
	// keep running (serially, with the records they always had). The rules
	// v1 put on them still hold, so a spec it rejected is still rejected.
	if o.Shards != 0 {
		opts = append(opts, WithShards(o.Shards))
	}
	if o.ShardWorkers != nil && (*o.ShardWorkers < 0 || fid != Packet) {
		return nil, &BuildError{Option: "WithShardWorkers", Reason: fmt.Sprintf("worker count %d: must be non-negative, on the Packet engine", *o.ShardWorkers)}
	}
	switch o.ShardBalancing {
	case "":
	case wire.BalanceUniform, wire.BalanceWeighted, wire.BalanceSteal:
		if fid != Packet || o.Shards == 0 {
			return nil, &BuildError{Option: "WithShardBalancing", Reason: "balancing applies to sharded Packet runs; add shards"}
		}
	default:
		return nil, &BuildError{Option: "WithShardBalancing", Reason: fmt.Sprintf("unknown balancing mode %q", o.ShardBalancing)}
	}
	if o.QueuePackets != nil {
		opts = append(opts, WithQueuePackets(*o.QueuePackets))
	}
	if o.RTOMinNs != nil {
		opts = append(opts, WithRTOMin(Duration(*o.RTOMinNs)))
	}
	if o.PacketFraction != nil {
		opts = append(opts, WithPacketFraction(*o.PacketFraction))
	}
	if o.LinkModel != nil {
		m, err := o.LinkModel.Model("options.link_model")
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithLinkModel(m))
	}
	if o.LinkModelSeed != 0 {
		opts = append(opts, WithLinkModelSeed(o.LinkModelSeed))
	}
	// Per-link entries (OptionsSpec.LinkModelFor) reference links by node
	// name and resolve in NewFromSpec, where the topology exists.
	return opts, nil
}

// NewFromSpec builds a fully loaded engine from a serialized session
// spec: topology construction, option bridging, workload ingestion, then
// scenario application. The workload never materializes: explicit demands
// Load in the given order, and the Poisson generator streams in through
// WithTraceReader as the run reaches each arrival (WorkloadSpec.Stream is
// an ignored v1 field). Scenario surge demands Load after the explicit
// ones, and the stream follows both: that is the load order the Packet
// and Hybrid engines number records by, and the order in which a
// hand-built Load of the demands, Timeline.Apply and a WithTraceReader of
// the generator reproduce a spec-built engine exactly. extra options
// append after the spec's, for run-lifecycle attachments the daemon adds
// (record sinks, progress hooks).
//
// The returned horizon is the spec's Until (simtime.Never when unset);
// run the engine with eng.Run(ctx, until). Errors are *BuildError,
// *wire.SpecError, or *ScenarioEventError — all validation, no partial
// engine state.
func NewFromSpec(spec *wire.SessionSpec, extra ...Option) (Engine, Time, error) {
	if spec == nil {
		return nil, 0, &BuildError{Option: "NewFromSpec", Reason: "nil SessionSpec"}
	}
	topo, err := spec.Topology.Build()
	if err != nil {
		return nil, 0, err
	}
	opts, err := SpecOptions(spec.Options)
	if err != nil {
		return nil, 0, err
	}
	for i, lm := range spec.Options.LinkModelFor {
		link, m, err := lm.Resolve(topo, i)
		if err != nil {
			return nil, 0, err
		}
		opts = append(opts, WithLinkModelFor(link, m))
	}
	opts = append(opts, extra...)
	w := spec.Workload
	var tr Trace
	if len(w.Demands) > 0 || w.Poisson == nil {
		// With no generator either, Trace reports the empty workload.
		if tr, err = (wire.WorkloadSpec{Demands: w.Demands}).Trace(topo); err != nil {
			return nil, 0, err
		}
	}
	if w.Poisson != nil {
		r, err := wire.WorkloadSpec{Poisson: w.Poisson}.Reader(topo)
		if err != nil {
			return nil, 0, err
		}
		opts = append(opts, WithTraceReader(r))
	}
	tl, err := wire.Timeline(spec.Scenario, topo)
	if err != nil {
		return nil, 0, err
	}
	until := spec.Until()
	eng, err := New(topo, opts...)
	if err != nil {
		return nil, 0, err
	}
	if tr != nil {
		eng.Load(tr)
	}
	if tl != nil {
		if err := tl.Apply(eng, until); err != nil {
			return nil, 0, err
		}
	}
	return eng, until, nil
}
