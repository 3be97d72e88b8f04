// Package scenario is the timeline engine for dynamic networks: a
// deterministic, seed-reproducible script of topology and control-plane
// events — link failures and recoveries, switch crashes and restarts with
// table wipes, controller detach/reattach, and demand surges — that
// compiles onto any simulation engine through one shared interface. The
// flow-level engine, the packet-level engine, and the hybrid coupler all
// implement Engine, so the same scripted failure drives all three
// fidelities event-for-event (the fs-style scripted-trace idea applied to
// topology dynamics rather than traffic alone).
//
// A Timeline is built with chainable calls:
//
//	tl := scenario.New().
//		LinkOutage(3*simtime.Second, 8*simtime.Second, direct).
//		SwitchOutage(4*simtime.Second, 5*simtime.Second, spine0).
//		ControllerOutage(6*simtime.Second, 7*simtime.Second)
//	tl.Apply(sim, horizon) // any of flowsim / packetsim / hybrid
//
// or generated: RandomLinkFailures draws a reproducible failure/recovery
// process (exponential inter-failure times, fixed repair time) over the
// eligible links. After the run, Evaluate summarizes what the scripted
// disruption cost: reroute latency, flows and packets lost, rule churn,
// and FCT stretch against a failure-free baseline.
package scenario

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"horse/internal/dataplane"
	"horse/internal/linkmodel"
	"horse/internal/metrics"
	"horse/internal/netgraph"
	"horse/internal/simcore"
	"horse/internal/simevent"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

// Kind discriminates timeline events.
type Kind uint8

// Timeline event kinds.
const (
	// LinkDown fails a link; queued and in-flight packets on it are lost.
	LinkDown Kind = iota
	// LinkUp recovers a failed link.
	LinkUp
	// SwitchFail crashes a switch: attached links drop and its OpenFlow
	// state is wiped.
	SwitchFail
	// SwitchRestart brings a crashed switch back with empty tables.
	SwitchRestart
	// ControllerDetach severs the switch↔controller channel.
	ControllerDetach
	// ControllerReattach restores the channel; parked work re-announces.
	ControllerReattach
	// DemandSurge injects an extra traffic burst at the event time.
	DemandSurge
	// LinkDegrade installs a degradation model (loss, burst, rate
	// adaptation) on both directions of a link. The link stays up: the
	// model shapes how well it carries traffic, composing with scripted
	// outages through dataplane.FailureState.
	LinkDegrade
	// LinkRestore clears a degraded link back to pristine.
	LinkRestore
)

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case SwitchFail:
		return "switch-fail"
	case SwitchRestart:
		return "switch-restart"
	case ControllerDetach:
		return "controller-detach"
	case ControllerReattach:
		return "controller-reattach"
	case DemandSurge:
		return "demand-surge"
	case LinkDegrade:
		return "link-degrade"
	case LinkRestore:
		return "link-restore"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one scripted occurrence on a timeline.
type Event struct {
	At   simtime.Time
	Kind Kind
	// Link is the subject of LinkDown/LinkUp/LinkDegrade/LinkRestore.
	Link netgraph.LinkID
	// Model is the degradation installed by LinkDegrade (required there,
	// unused elsewhere).
	Model linkmodel.Model
	// Switch is the subject of SwitchFail/SwitchRestart.
	Switch netgraph.NodeID
	// Demands is the DemandSurge burst; each demand's Start is relative
	// to the event time.
	Demands traffic.Trace
}

// Engine is the one simulator surface of Horse: every engine — the
// flow-level simulator, the packet-level simulator, and the hybrid
// coupler — implements it, each mapping the same calls to its own
// fidelity's semantics. It is the interface the public façade exposes as
// horse.Engine (this package hosts it because the timeline compiler is
// its lowest-level consumer): feed with Load and the Schedule*Change
// methods (or a Timeline), execute with Run, inspect through Topology /
// Network / Kernel / Collector / Now, and hook dynamics with Observe.
type Engine interface {
	// Topology returns the simulated network graph.
	Topology() *netgraph.Topology
	// Network returns the shared OpenFlow data-plane state (switch
	// tables), e.g. for pre-installing rules.
	Network() *dataplane.Network
	// Kernel returns the discrete-event kernel driving the engine.
	Kernel() *simcore.Kernel
	// Collector returns the engine's statistics collector.
	Collector() *stats.Collector
	// Now returns the current virtual time.
	Now() simtime.Time
	// Load schedules every demand in the trace. The engine may read tr
	// until the run ends, so it must not be modified after Load.
	Load(tr traffic.Trace)
	// Run executes until the event queue drains, virtual time exceeds
	// until (simtime.Never = no bound), or ctx is cancelled — in which
	// case the returned collector is partial but consistent and the
	// error is ctx.Err(). Run may be called once.
	Run(ctx context.Context, until simtime.Time) (*stats.Collector, error)
	// ScheduleLinkChange schedules a link failure (up=false) or recovery.
	ScheduleLinkChange(at simtime.Time, link netgraph.LinkID, up bool)
	// ScheduleSwitchChange schedules a switch crash (up=false) or restart.
	ScheduleSwitchChange(at simtime.Time, sw netgraph.NodeID, up bool)
	// ScheduleControllerChange schedules a controller detach
	// (attached=false) or reattach.
	ScheduleControllerChange(at simtime.Time, attached bool)
	// ScheduleLinkDegrade schedules a link-model change: m installs a
	// degradation model on both directions of the link (nil restores the
	// pristine link). Orthogonal to ScheduleLinkChange: FailureState still
	// decides up/down, and the model shapes traffic only while up.
	ScheduleLinkDegrade(at simtime.Time, link netgraph.LinkID, m linkmodel.Model)
	// Observe registers an observer of applied network dynamics.
	Observe(fn simevent.Observer)
}

// Timeline is an ordered script of network events. Build with New and the
// chainable adders, then Apply it to an engine before Run.
type Timeline struct {
	events []Event
}

// New returns an empty timeline.
func New() *Timeline { return &Timeline{} }

func (t *Timeline) add(e Event) *Timeline {
	t.events = append(t.events, e)
	return t
}

// LinkDown scripts a link failure at time at.
func (t *Timeline) LinkDown(at simtime.Time, link netgraph.LinkID) *Timeline {
	return t.add(Event{At: at, Kind: LinkDown, Link: link})
}

// LinkUp scripts a link recovery at time at.
func (t *Timeline) LinkUp(at simtime.Time, link netgraph.LinkID) *Timeline {
	return t.add(Event{At: at, Kind: LinkUp, Link: link})
}

// LinkOutage scripts a failure at `from` with recovery at `to`.
func (t *Timeline) LinkOutage(from, to simtime.Time, link netgraph.LinkID) *Timeline {
	return t.LinkDown(from, link).LinkUp(to, link)
}

// SwitchFail scripts a switch crash (links down, tables wiped) at at.
func (t *Timeline) SwitchFail(at simtime.Time, sw netgraph.NodeID) *Timeline {
	return t.add(Event{At: at, Kind: SwitchFail, Switch: sw})
}

// SwitchRestart scripts a switch restart (links up, tables empty) at at.
func (t *Timeline) SwitchRestart(at simtime.Time, sw netgraph.NodeID) *Timeline {
	return t.add(Event{At: at, Kind: SwitchRestart, Switch: sw})
}

// SwitchOutage scripts a crash at `from` with restart at `to`.
func (t *Timeline) SwitchOutage(from, to simtime.Time, sw netgraph.NodeID) *Timeline {
	return t.SwitchFail(from, sw).SwitchRestart(to, sw)
}

// ControllerDetach scripts the control channel failing at at.
func (t *Timeline) ControllerDetach(at simtime.Time) *Timeline {
	return t.add(Event{At: at, Kind: ControllerDetach})
}

// ControllerReattach scripts the control channel returning at at.
func (t *Timeline) ControllerReattach(at simtime.Time) *Timeline {
	return t.add(Event{At: at, Kind: ControllerReattach})
}

// ControllerOutage scripts a detach at `from` with reattach at `to`.
func (t *Timeline) ControllerOutage(from, to simtime.Time) *Timeline {
	return t.ControllerDetach(from).ControllerReattach(to)
}

// LinkDegrade scripts a degradation model installing on link at time at.
func (t *Timeline) LinkDegrade(at simtime.Time, link netgraph.LinkID, m linkmodel.Model) *Timeline {
	return t.add(Event{At: at, Kind: LinkDegrade, Link: link, Model: m})
}

// LinkRestore scripts a degraded link returning to pristine at time at.
func (t *Timeline) LinkRestore(at simtime.Time, link netgraph.LinkID) *Timeline {
	return t.add(Event{At: at, Kind: LinkRestore, Link: link})
}

// DegradeWindow scripts a degradation at `from` with restore at `to`.
func (t *Timeline) DegradeWindow(from, to simtime.Time, link netgraph.LinkID, m linkmodel.Model) *Timeline {
	return t.LinkDegrade(from, link, m).LinkRestore(to, link)
}

// Surge scripts a traffic burst: every demand in tr is injected with its
// Start shifted by at (a demand with Start 0 arrives exactly at at).
func (t *Timeline) Surge(at simtime.Time, tr traffic.Trace) *Timeline {
	return t.add(Event{At: at, Kind: DemandSurge, Demands: tr})
}

// Events returns the timeline sorted by time (the stable sort keeps
// insertion order on ties), as Apply schedules it. The returned slice is
// a copy.
func (t *Timeline) Events() []Event {
	out := append([]Event(nil), t.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// EventError reports a timeline event that cannot be scheduled: a
// negative time, an unknown link or switch, or an instant beyond the run
// horizon. Index is the event's position in time order (what Events
// returns).
type EventError struct {
	Index  int
	Event  Event
	Reason string
}

func (e *EventError) Error() string {
	return fmt.Sprintf("scenario: event %d (%s at %v): %s", e.Index, e.Event.Kind, e.Event.At, e.Reason)
}

// Validate checks every timeline event against a topology and a run
// horizon (simtime.Never disables the horizon check): event times must be
// non-negative and at or before the horizon, links and switches must
// exist (and switch events must name a switch, not a host), degradations
// must carry a valid model, and no two link events may target the same
// link at the same instant (same-instant duplicates would apply in
// insertion order — a silent race in the script, rejected loudly
// instead). It returns the first offending event, in time order.
func (t *Timeline) Validate(topo *netgraph.Topology, horizon simtime.Time) error {
	type linkInstant struct {
		at   simtime.Time
		link netgraph.LinkID
	}
	seen := make(map[linkInstant]Kind)
	for i, e := range t.Events() {
		fail := func(reason string) error {
			return &EventError{Index: i, Event: e, Reason: reason}
		}
		if e.At < 0 {
			return fail("negative event time")
		}
		if horizon != simtime.Never && e.At > horizon {
			return fail(fmt.Sprintf("scheduled after the run horizon %v", horizon))
		}
		switch e.Kind {
		case LinkDown, LinkUp, LinkDegrade, LinkRestore:
			if int(e.Link) < 0 || int(e.Link) >= topo.NumLinks() {
				return fail(fmt.Sprintf("unknown link %d", e.Link))
			}
			key := linkInstant{e.At, e.Link}
			if prev, dup := seen[key]; dup {
				return fail(fmt.Sprintf("duplicate same-instant event on link %d (already has %s at %v)",
					e.Link, prev, e.At))
			}
			seen[key] = e.Kind
			if e.Kind == LinkDegrade {
				if e.Model == nil {
					return fail("LinkDegrade without a model")
				}
				if err := linkmodel.Validate(e.Model); err != nil {
					return fail(err.Error())
				}
			}
		case SwitchFail, SwitchRestart:
			if int(e.Switch) < 0 || int(e.Switch) >= topo.NumNodes() {
				return fail(fmt.Sprintf("unknown switch %d", e.Switch))
			}
			if topo.Node(e.Switch).Kind != netgraph.KindSwitch {
				return fail(fmt.Sprintf("node %d is not a switch", e.Switch))
			}
		}
	}
	return nil
}

// Apply compiles the timeline onto an engine: every event becomes a
// scheduled simulator event (and surges become loaded demands). The
// timeline is validated first — against the engine's topology and the run
// horizon the caller will pass to Run (simtime.Never for an unbounded
// run) — and nothing schedules on error, so a mistyped link ID or an
// event beyond the horizon fails loudly instead of silently
// mis-scheduling. Call it before Run, alongside the workload Load; it may
// be applied to any number of engines, which is how cross-fidelity
// comparisons script one failure story for all three.
func (t *Timeline) Apply(eng Engine, horizon simtime.Time) error {
	if err := t.Validate(eng.Topology(), horizon); err != nil {
		return err
	}
	for _, e := range t.Events() {
		switch e.Kind {
		case LinkDown:
			eng.ScheduleLinkChange(e.At, e.Link, false)
		case LinkUp:
			eng.ScheduleLinkChange(e.At, e.Link, true)
		case SwitchFail:
			eng.ScheduleSwitchChange(e.At, e.Switch, false)
		case SwitchRestart:
			eng.ScheduleSwitchChange(e.At, e.Switch, true)
		case ControllerDetach:
			eng.ScheduleControllerChange(e.At, false)
		case ControllerReattach:
			eng.ScheduleControllerChange(e.At, true)
		case LinkDegrade:
			eng.ScheduleLinkDegrade(e.At, e.Link, e.Model)
		case LinkRestore:
			eng.ScheduleLinkDegrade(e.At, e.Link, nil)
		case DemandSurge:
			shifted := make(traffic.Trace, len(e.Demands))
			for i, d := range e.Demands {
				d.Start = e.At.Add(simtime.Duration(d.Start))
				shifted[i] = d
			}
			eng.Load(shifted)
		}
	}
	return nil
}

// Failures counts the disruptive events (link downs, switch crashes,
// controller detaches) on the timeline.
func (t *Timeline) Failures() int {
	n := 0
	for _, e := range t.events {
		switch e.Kind {
		case LinkDown, SwitchFail, ControllerDetach:
			n++
		}
	}
	return n
}

// FirstFailure returns the earliest disruptive event time; ok is false for
// a timeline with no disruptions.
func (t *Timeline) FirstFailure() (at simtime.Time, ok bool) {
	at = simtime.Never
	for _, e := range t.events {
		switch e.Kind {
		case LinkDown, SwitchFail, ControllerDetach:
			if e.At < at {
				at, ok = e.At, true
			}
		}
	}
	return at, ok
}

// FailureConfig parameterizes RandomLinkFailures.
type FailureConfig struct {
	// Seed makes the process reproducible: the same seed over the same
	// topology always yields the same timeline.
	Seed int64
	// MTBF is the mean time between failures per eligible link
	// (exponential inter-failure times).
	MTBF simtime.Duration
	// Recovery is the repair time of every failure.
	Recovery simtime.Duration
	// Horizon bounds failure injection to [0, Horizon); recoveries may
	// land beyond it.
	Horizon simtime.Time
	// CoreOnly restricts failures to switch–switch links, leaving host
	// access links alone (the common fabric-resilience setup).
	CoreOnly bool
}

// RandomLinkFailures draws a seed-reproducible failure/recovery process
// over the topology's links: each eligible link independently alternates
// exponential up-times (mean MTBF) with fixed repair times. Links are
// visited in creation order and share one generator, so the timeline is a
// pure function of (topology, config).
func RandomLinkFailures(topo *netgraph.Topology, cfg FailureConfig) *Timeline {
	tl := New()
	// A negative Recovery would walk `at` backwards and never reach the
	// horizon; reject it like the other degenerate configs.
	if cfg.MTBF <= 0 || cfg.Horizon <= 0 || cfg.Recovery < 0 {
		return tl
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, l := range topo.Links() {
		if cfg.CoreOnly {
			if topo.Node(l.A).Kind != netgraph.KindSwitch || topo.Node(l.B).Kind != netgraph.KindSwitch {
				continue
			}
		}
		at := simtime.Time(rng.ExpFloat64() * float64(cfg.MTBF))
		for at < cfg.Horizon {
			tl.LinkOutage(at, at.Add(cfg.Recovery), l.ID)
			at = at.Add(cfg.Recovery).Add(simtime.Duration(rng.ExpFloat64() * float64(cfg.MTBF)))
		}
	}
	return tl
}

// Outcome summarizes what a scripted disruption cost one run — the
// per-scenario resilience metrics (built on package metrics) that E8
// sweeps.
type Outcome struct {
	// Failures is the number of disruptive events on the timeline.
	Failures int
	// Reroutes counts transmitting-path changes during the run. Path
	// state is a flow-level concept: standalone packetsim runs (which
	// track no per-flow paths) always report 0 here; hybrid runs report
	// the flow engine's reroutes.
	Reroutes int
	// RerouteLatency is the gap between the first failure and the first
	// path change at or after it — how long the first reconvergence took
	// (0 when nothing rerouted; group watch-port failover reroutes at the
	// failure instant). Flow-level only, like Reroutes.
	RerouteLatency simtime.Duration
	// FlowsCompleted and FlowsLost partition the recorded flows: lost
	// covers every non-completed outcome (dropped, stuck waiting,
	// expired).
	FlowsCompleted int
	FlowsLost      int
	// PacketsLost counts packet-engine losses to dead links/switches.
	PacketsLost uint64
	// RuleChurn is the reconvergence write load: table mutations the
	// control plane issued beyond the baseline run's (which carries the
	// initial proactive installation). Without a baseline it is the
	// run's total FlowMods.
	RuleChurn uint64
	// FCTStretch is the mean-FCT ratio against the baseline run over the
	// flows completed in BOTH runs (matched by flow ID, so flows the
	// disruption killed cannot flatter the ratio by dropping out of only
	// one side); +Inf when the baseline completed flows but the
	// disturbed run completed none of them, 1 with no baseline.
	FCTStretch float64
}

// Evaluate computes the Outcome of a run driven by tl. baseline, when
// non-nil, is the collector of an identical run without the timeline; it
// anchors FCTStretch and nets the startup installation out of RuleChurn.
func Evaluate(tl *Timeline, col *stats.Collector, baseline *stats.Collector) Outcome {
	out := Outcome{
		Failures:    tl.Failures(),
		Reroutes:    len(col.RerouteTimes()),
		RuleChurn:   col.FlowMods,
		FCTStretch:  1,
		PacketsLost: col.PacketsLost,
	}
	if baseline != nil {
		if baseline.FlowMods < out.RuleChurn {
			out.RuleChurn -= baseline.FlowMods
		} else {
			out.RuleChurn = 0
		}
	}
	for _, f := range col.Flows() {
		if f.Completed {
			out.FlowsCompleted++
		} else {
			out.FlowsLost++
		}
	}
	if first, ok := tl.FirstFailure(); ok {
		for _, at := range col.RerouteTimes() {
			if at >= first {
				out.RerouteLatency = at.Sub(first)
				break
			}
		}
	}
	if baseline != nil {
		// Match by flow ID (both runs load the identical trace, so IDs
		// align) and compare only flows completed in both — a disruption
		// that kills the slowest flows must not lower the stretch by
		// removing them from one side's mean.
		baseFCT := make(map[int64]float64)
		for _, f := range baseline.Flows() {
			if f.Completed {
				baseFCT[f.ID] = f.FCT().Seconds()
			}
		}
		var sFCTs, bFCTs []float64
		for _, f := range col.Flows() {
			if b, ok := baseFCT[f.ID]; ok && f.Completed {
				sFCTs = append(sFCTs, f.FCT().Seconds())
				bFCTs = append(bFCTs, b)
			}
		}
		out.FCTStretch = metrics.FCTStretch(sFCTs, bFCTs)
		if len(sFCTs) == 0 && len(baseFCT) > 0 {
			out.FCTStretch = math.Inf(1)
		}
	}
	return out
}
