package horse

import (
	"fmt"

	"horse/internal/eventq"
	"horse/internal/flowsim"
	"horse/internal/hybrid"
	"horse/internal/linkmodel"
	"horse/internal/packetsim"
	"horse/internal/scenario"
	"horse/internal/simevent"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

// Engine is the one simulator surface of Horse, implemented by all three
// fidelities. Build one with New, feed it with Load (and, optionally, a
// Scenario), execute with Run — which honors context cancellation and
// deadlines — and inspect it through Topology / Network / Kernel /
// Collector / Now. The concrete type behind the interface is *Simulator,
// *PacketSimulator, or *HybridSimulator per the configured fidelity;
// type-assert when an engine-specific accessor (e.g. HybridSimulator's
// Split) is needed.
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

	var eng Engine
	switch o.fidelity {
	case Flow:
		eng = flowsim.New(flowsim.Config{
			Topology:       topo,
			Controller:     o.controller,
			Miss:           o.miss,
			ControlLatency: o.controlLat,
			TCP:            o.tcp,
			StatsEvery:     o.statsEvery,
			FullRecompute:  o.fullRecompute,
			EventQueue:     eventq.Backend(o.eventQueue),
			RateEpsilon:    o.rateEpsilon,
			Links:          links,
		})
	case Packet:
		eng = packetsim.New(packetsim.Config{
			Topology:       topo,
			QueuePackets:   o.queuePackets,
			Miss:           o.miss,
			StatsEvery:     o.statsEvery,
			RTOMin:         o.rtoMin,
			Controller:     o.controller,
			ControlLatency: o.controlLat,
			EventQueue:     eventq.Backend(o.eventQueue),
			Links:          links,
		})
	case Hybrid:
		eng = hybrid.New(hybrid.Config{
			Topology:       topo,
			Controller:     o.controller,
			Miss:           o.miss,
			ControlLatency: o.controlLat,
			TCP:            o.tcp,
			StatsEvery:     o.statsEvery,
			EventQueue:     eventq.Backend(o.eventQueue),
			RateEpsilon:    o.rateEpsilon,
			QueuePackets:   o.queuePackets,
			RTOMin:         o.rtoMin,
			PacketLevel:    o.packetLevel,
			Links:          links,
		})
	}

	// Run-lifecycle attachments. Every engine implements both side
	// interfaces; they stay off Engine so the interface carries only the
	// simulation surface.
	if o.sink != nil {
		eng.(interface {
			SetRecordSink(func(stats.FlowRecord))
		}).SetRecordSink(o.sink)
	}
	if o.reader != nil {
		eng.(interface {
			SetTraceReader(traffic.Reader)
		}).SetTraceReader(o.reader)
	}
	if o.progressFn != nil {
		eng.(interface {
			SetProgress(simtime.Duration, simevent.ProgressFunc)
		}).SetProgress(o.progressEvery, o.progressFn)
	}
	for _, fn := range o.observers {
		eng.Observe(fn)
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
