package horse

import (
	"fmt"

	"horse/internal/flowsim"
	"horse/internal/hybrid"
	"horse/internal/linkmodel"
	"horse/internal/packetsim"
	"horse/internal/scenario"
	"horse/internal/simevent"
)

// Engine is the one simulator surface of Horse, implemented by all three
// fidelities. Build one with New, feed it with Load (and, optionally, a
// Scenario), execute with Run — which honors context cancellation and
// deadlines, and may be called once — and inspect it through Topology /
// Network / Kernel / Collector / Now. Every method is written once, on
// the run driver each fidelity's engine type embeds; the engines differ
// only in how a demand is simulated. The concrete type behind the
// interface is *Simulator, *PacketSimulator, or *HybridSimulator per the
// configured fidelity; type-assert when an engine-specific accessor
// (e.g. HybridSimulator's Split) is needed.
type Engine = scenario.Engine

// Fidelity selects the engine granularity behind New: the dial the
// simulator is named for.
type Fidelity uint8

// Fidelities.
const (
	// Flow simulates at data-flow granularity (the Horse engine proper):
	// max–min fair-shared rates, orders of magnitude fewer events.
	Flow Fidelity = iota
	// Packet simulates every packet: store-and-forward switching,
	// drop-tail queues, window-based TCP. The accuracy baseline.
	Packet
	// Hybrid runs flagged flows packet-by-packet and the rest at flow
	// level, under one clock and one control plane (WithPacketFraction).
	Hybrid
)

func (f Fidelity) String() string {
	switch f {
	case Flow:
		return "flow"
	case Packet:
		return "packet"
	case Hybrid:
		return "hybrid"
	}
	return fmt.Sprintf("fidelity(%d)", uint8(f))
}

// BuildError is the typed error New returns for an invalid configuration:
// which option (or argument) is at fault, and why. Options validate
// eagerly — New fails before any engine state exists, instead of an
// engine panicking mid-construction or mid-run.
type BuildError struct {
	// Option names the offending option, e.g. "WithPacketFraction".
	Option string
	// Reason says what is wrong with it.
	Reason string
}

func (e *BuildError) Error() string {
	return fmt.Sprintf("horse: %s: %s", e.Option, e.Reason)
}

// Observation surface of a running engine (the Observe hook / the
// WithObserver option).
type (
	// Observation is one applied network-dynamics occurrence: a link or
	// switch state flip, or a controller detach/reattach.
	Observation = simevent.Observation
	// Observer receives observations on the simulation goroutine.
	Observer = simevent.Observer
	// ObsKind discriminates observations.
	ObsKind = simevent.Kind
	// Progress is one progress report of a running engine.
	Progress = simevent.Progress
	// ProgressFunc receives progress reports (WithProgress).
	ProgressFunc = simevent.ProgressFunc
)

// Observation kinds.
const (
	ObsLinkChange       = simevent.LinkChange
	ObsSwitchChange     = simevent.SwitchChange
	ObsControllerChange = simevent.ControllerChange
	ObsLinkDegrade      = simevent.LinkDegrade
)

// DefaultProgressEvery is the reporting period WithProgress uses: one
// report per virtual second (WithProgressEvery overrides).
const DefaultProgressEvery = Second

// New builds a simulation engine over topo from functional options:
//
//	eng, err := horse.New(topo,
//		horse.WithController(horse.NewChain(&horse.ECMPLoadBalancer{})),
//		horse.WithMiss(horse.MissController),
//		horse.WithFidelity(horse.Flow),
//	)
//	if err != nil { ... }
//	eng.Load(trace)
//	col, err := eng.Run(ctx, horse.Never)
//
// Every option validates eagerly: New returns a *BuildError (and no
// engine) for out-of-range arguments or options that do not apply to the
// selected fidelity, instead of panicking deep inside a constructor.
// The record sink, trace reader, progress reporting and observers go to
// the engine's run driver, which owns ingestion, the run and record
// order at every fidelity.
// Defaults match the engines' zero-value Configs: Flow fidelity, no
// controller, MissDrop, 1 ms control latency, no stats sampling.
func New(topo *Topology, opts ...Option) (Engine, error) {
	if topo == nil {
		return nil, &BuildError{Option: "New", Reason: "nil Topology"}
	}
	var o options
	for _, opt := range opts {
		if opt == nil {
			return nil, &BuildError{Option: "New", Reason: "nil Option"}
		}
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if err := o.validate(); err != nil {
		return nil, err
	}

	// Link-degradation registry: built once here and handed to whichever
	// engine(s) the fidelity selects, so all fidelities read one Set.
	var links *linkmodel.Set
	if o.linkSet {
		links = linkmodel.NewSet(o.linkSeed, topo.NumLinks())
		if o.linkDefault != nil {
			links.SetDefault(o.linkDefault)
		}
		for _, p := range o.linkPer {
			if int(p.link) < 0 || int(p.link) >= topo.NumLinks() {
				return nil, &BuildError{Option: "WithLinkModelFor", Reason: fmt.Sprintf("unknown link %d", p.link)}
			}
			links.SetLink(p.link, p.m)
		}
	}

	// Every fidelity runs on one flowsim.Driver, which its engine type
	// embeds; the run-lifecycle attachments go to it directly.
	var eng Engine
	var d *flowsim.Driver
	switch o.fidelity {
	case Flow:
		s := flowsim.New(flowsim.Config{
			Topology:       topo,
			Controller:     o.controller,
			Miss:           o.miss,
			ControlLatency: o.controlLat,
			TCP:            o.tcp,
			StatsEvery:     o.statsEvery,
			FullRecompute:  o.fullRecompute,
			RateEpsilon:    o.rateEpsilon,
			Links:          links,
		})
		eng, d = s, s.Driver
	case Packet:
		s := packetsim.New(packetsim.Config{
			Topology:       topo,
			QueuePackets:   o.queuePackets,
			Miss:           o.miss,
			StatsEvery:     o.statsEvery,
			RTOMin:         o.rtoMin,
			Controller:     o.controller,
			ControlLatency: o.controlLat,
			Links:          links,
		})
		eng, d = s, s.Driver
	case Hybrid:
		s := hybrid.New(hybrid.Config{
			Topology:       topo,
			Controller:     o.controller,
			Miss:           o.miss,
			ControlLatency: o.controlLat,
			TCP:            o.tcp,
			StatsEvery:     o.statsEvery,
			RateEpsilon:    o.rateEpsilon,
			QueuePackets:   o.queuePackets,
			RTOMin:         o.rtoMin,
			PacketLevel:    o.packetLevel,
			Links:          links,
		})
		eng, d = s, s.Driver
	}

	if o.sink != nil {
		d.SetRecordSink(o.sink)
	}
	if o.reader != nil {
		d.SetTraceReader(o.reader)
	}
	d.SetProgress(o.progressEvery, o.progressFn)
	for _, fn := range o.observers {
		d.Observe(fn)
	}
	if o.timeline != nil {
		// The run horizon is not known at build time; Apply validates
		// event times and subjects against the topology (horizon checks
		// are available through Scenario.Validate / Apply directly).
		if err := o.timeline.Apply(eng, Never); err != nil {
			return nil, err
		}
	}
	return eng, nil
}
