// Package horse is a flow-level, discrete-event simulator of SDN traffic
// dynamics for large-scale networks — a from-scratch Go reproduction of
// "Horse: towards an SDN traffic dynamics simulator for large scale
// networks" (Fernandes, Antichi, Castro, Uhlig — SIGCOMM 2016).
//
// Horse simulates the interaction of SDN control and data planes at the
// granularity of data flows (aggregates of packets sharing header fields,
// with time-varying rates) instead of packets. Flow rates are computed by
// max–min fair sharing across links and meters; controller applications
// translate high-level policies (load balancing, blackholing, rate
// limiting, application-specific peering, source routing) into abstracted
// OpenFlow state with no protocol connections, only latency-modeled
// message events.
//
// Quickstart — one constructor, one Engine interface, fidelity as a dial:
//
//	topo := horse.LeafSpine(4, 2, 8, horse.Gig, horse.TenGig)
//	eng, err := horse.New(topo,
//		horse.WithController(horse.NewChain(&horse.ECMPLoadBalancer{})),
//		horse.WithMiss(horse.MissController),
//	)
//	if err != nil {
//		log.Fatal(err)
//	}
//	gen := horse.NewGenerator(42)
//	eng.Load(gen.PoissonArrivals(horse.PoissonConfig{
//		Hosts: topo.Hosts(), Lambda: 500, Horizon: 10 * horse.Second,
//		Sizes: horse.Pareto{XMin: 1e5, Alpha: 1.3}, TCPFraction: 0.8,
//	}))
//	col, err := eng.Run(ctx, horse.Never)
//	fmt.Println(horse.Summarize(col.FCTs()))
//
// Swap horse.WithFidelity(horse.Packet) or horse.WithFidelity(horse.Hybrid)
// in and the same program runs at packet granularity, or with a
// packet-level foreground over a fluid background — same Engine surface,
// same Run lifecycle (context cancellation, WithProgress reports), same
// streaming results path (WithRecordSink).
//
// The package is a façade over the internal building blocks; beyond the
// New builder, everything below is a type alias or thin constructor, so
// the full documentation lives on the aliased types.
package horse

import (
	"horse/internal/controller"
	"horse/internal/dataplane"
	"horse/internal/fairshare"
	"horse/internal/flowsim"
	"horse/internal/header"
	"horse/internal/hybrid"
	"horse/internal/ixp"
	"horse/internal/linkmodel"
	"horse/internal/metrics"
	"horse/internal/netgraph"
	"horse/internal/packetsim"
	"horse/internal/policy"
	"horse/internal/scenario"
	"horse/internal/simcore"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/tcpmodel"
	"horse/internal/traffic"
)

// Virtual time.
type (
	// Time is an instant in virtual time (ns since simulation start).
	Time = simtime.Time
	// Duration is a span of virtual time.
	Duration = simtime.Duration
)

// Time constants.
const (
	Nanosecond  = simtime.Nanosecond
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
	Minute      = simtime.Minute
	Hour        = simtime.Hour
	// Never is a Time beyond any reachable instant (no deadline).
	Never = simtime.Never
)

// Topology.
type (
	// Topology is the network graph of switches, hosts and links.
	Topology = netgraph.Topology
	// NodeID identifies a topology node.
	NodeID = netgraph.NodeID
	// LinkID identifies a link.
	LinkID = netgraph.LinkID
	// LinkSpec bundles link capacity and delay for builders.
	LinkSpec = netgraph.LinkSpec
	// Path is a node sequence.
	Path = netgraph.Path
)

// Common link specs.
var (
	// Gig is a 1 Gbps / 50 µs link.
	Gig = netgraph.Gig
	// TenGig is a 10 Gbps / 50 µs link.
	TenGig = netgraph.TenGig
	// HundredGig is a 100 Gbps / 50 µs link.
	HundredGig = netgraph.HundredGig
)

// Topology constructors.
var (
	// NewTopology returns an empty topology.
	NewTopology = netgraph.New
	// Linear builds a switch chain with one host per switch.
	Linear = netgraph.Linear
	// Star builds one switch with n hosts.
	Star = netgraph.Star
	// LeafSpine builds a two-tier Clos fabric.
	LeafSpine = netgraph.LeafSpine
	// FatTree builds a k-ary fat tree.
	FatTree = netgraph.FatTree
	// Ring builds a switch ring with one host per switch.
	Ring = netgraph.Ring
	// RandomConnected builds a seeded random connected graph.
	RandomConnected = netgraph.RandomConnected
	// Dumbbell builds the classic shared-bottleneck scenario.
	Dumbbell = netgraph.Dumbbell
)

// Path cost functions.
var (
	// HopCost counts hops.
	HopCost = netgraph.HopCost
	// DelayCost uses propagation delay.
	DelayCost = netgraph.DelayCost
)

// Headers and policies.
type (
	// FlowKey identifies a data flow by its header fields.
	FlowKey = header.FlowKey
	// Match is an OpenFlow-style wildcard match.
	Match = header.Match
	// MAC is an Ethernet address.
	MAC = header.MAC
	// IPv4 is an IPv4 address.
	IPv4 = header.IPv4
)

// The simulator.
type (
	// Simulator is a flow-level Horse simulation run.
	Simulator = flowsim.Simulator
	// Controller is the control-plane interface.
	Controller = flowsim.Controller
	// Context is the API controllers use to act on the network.
	Context = flowsim.Context
	// MissBehavior selects table-miss handling.
	MissBehavior = dataplane.MissBehavior
	// Collector accumulates run statistics.
	Collector = stats.Collector
	// Counters is a point-in-time copy of a Collector's counters.
	Counters = stats.Counters
	// FlowRecord is the outcome of one data flow.
	FlowRecord = stats.FlowRecord
	// TCPParams tunes the flow-level TCP model.
	TCPParams = tcpmodel.Params
)

// Miss behaviors.
const (
	// MissDrop discards unmatched flows.
	MissDrop = dataplane.MissDrop
	// MissController punts unmatched flows to the controller.
	MissController = dataplane.MissController
)

// Controller applications (the modular policy generator).
type (
	// Chain composes controller apps.
	Chain = controller.Chain
	// App is one modular controller application.
	App = controller.App
	// ProactiveMAC pre-installs MAC shortest-path forwarding.
	ProactiveMAC = controller.ProactiveMAC
	// ReactiveMAC installs MAC forwarding on PacketIn.
	ReactiveMAC = controller.ReactiveMAC
	// ECMPLoadBalancer spreads flows over equal-cost paths.
	ECMPLoadBalancer = controller.ECMPLoadBalancer
	// MisconfiguredLoadBalancer reproduces the Figure-1 failure mode.
	MisconfiguredLoadBalancer = controller.MisconfiguredLoadBalancer
	// Blackhole drops configured traffic.
	Blackhole = controller.Blackhole
	// RateLimiter polices traffic with meters.
	RateLimiter = controller.RateLimiter
	// RateLimitRule is one rate-limiting policy.
	RateLimitRule = controller.RateLimitRule
	// AppPeering steers application classes between edges.
	AppPeering = controller.AppPeering
	// PeeringRule is one application-peering policy.
	PeeringRule = controller.PeeringRule
	// SourceRouting pins host pairs to explicit paths.
	SourceRouting = controller.SourceRouting
	// SourceRoute is one pinned path.
	SourceRoute = controller.SourceRoute
	// Monitor polls port statistics and reports congestion.
	Monitor = controller.Monitor
)

// NewChain composes controller apps into a Controller.
func NewChain(apps ...App) *Chain { return controller.NewChain(apps...) }

// Policy configuration (Figure-2 style JSON).
type (
	// PolicyConfig is the parsed policy document.
	PolicyConfig = policy.Config
	// PolicyConflict is a composition-validation finding.
	PolicyConflict = policy.Conflict
)

// ParsePolicy reads a JSON policy document.
var ParsePolicy = policy.Parse

// Traffic.
type (
	// Demand is one data-flow input event.
	Demand = traffic.Demand
	// Trace is a time-ordered demand set.
	Trace = traffic.Trace
	// Generator produces stochastic traffic deterministically per seed.
	Generator = traffic.Generator
	// PoissonConfig parameterizes Poisson arrivals.
	PoissonConfig = traffic.PoissonConfig
	// Matrix is a traffic matrix.
	Matrix = traffic.Matrix
	// ReplayConfig parameterizes matrix replay.
	ReplayConfig = traffic.ReplayConfig
	// Diurnal is a time-of-day modulation.
	Diurnal = traffic.Diurnal
	// Pareto draws heavy-tailed flow sizes.
	Pareto = traffic.Pareto
	// LogNormal draws log-normal flow sizes.
	LogNormal = traffic.LogNormal
	// FixedSize draws a constant flow size.
	FixedSize = traffic.FixedSize
	// TraceReader streams demands one at a time in nondecreasing Start
	// order — the bounded-memory workload input (WithTraceReader).
	TraceReader = traffic.Reader
)

// Traffic constructors.
var (
	// NewGenerator returns a seeded traffic generator.
	NewGenerator = traffic.NewGenerator
	// GravityMatrix fills a matrix with a gravity model.
	GravityMatrix = traffic.Gravity
	// ParetoWeights draws heavy-tailed member weights.
	ParetoWeights = traffic.ParetoWeights
	// ReadTraceCSV parses a trace file.
	ReadTraceCSV = traffic.ReadCSV
	// NewTraceCSVReader streams a trace file through a bounded reorder
	// window (0 means DefaultTraceWindow) instead of parsing it whole.
	// Under WithTraceReader the engine reads it ahead on a helper
	// goroutine, so its io.Reader is read there, not on Run's goroutine.
	NewTraceCSVReader = traffic.NewCSVReader
	// NewPoissonReader streams the same workload PoissonArrivals would
	// materialize, one demand at a time.
	NewPoissonReader = traffic.NewPoissonReader
	// NewTraceReader adapts an in-memory sorted trace to a TraceReader.
	NewTraceReader = traffic.TraceReader
	// MergeTraceReaders merges sorted streams into one sorted stream.
	MergeTraceReaders = traffic.MergeReaders
	// ErrTraceOrder reports demands out of start-time order beyond the
	// reader's reorder window.
	ErrTraceOrder = traffic.ErrTraceOrder
)

// DefaultTraceWindow is the CSV reader's default reorder window.
const DefaultTraceWindow = traffic.DefaultTraceWindow

// IXP substrate.
type (
	// IXPProfile parameterizes an IXP fabric.
	IXPProfile = ixp.Profile
	// IXPFabric is a built IXP topology with member inventory.
	IXPFabric = ixp.Fabric
)

// IXP constructors.
var (
	// SmallIXP is a laptop-scale IXP profile.
	SmallIXP = ixp.SmallIXP
	// LargeIXP approximates a large European IXP fabric.
	LargeIXP = ixp.LargeIXP
	// BuildIXP constructs the fabric.
	BuildIXP = ixp.Build
)

// Packet-level engine.
type (
	// PacketSimulator is the per-packet engine (baseline comparator, and
	// a controller-attached simulator in its own right).
	PacketSimulator = packetsim.Simulator
	// Network is the shared data-plane state (switch tables) behind an
	// engine, exposed for pre-installing rules.
	Network = dataplane.Network
)

// InstallMACRoutes pre-installs shortest-path MAC forwarding for every
// host on a network's switches — the identical-pre-installed-state
// methodology of the E3 packet baseline.
func InstallMACRoutes(n *Network) { dataplane.InstallMACRoutes(n) }

// Hybrid fidelity: both engines coupled under one kernel.
type (
	// HybridSimulator runs flagged flows packet-by-packet and the rest at
	// flow level, under one clock and one control plane.
	HybridSimulator = hybrid.Simulator
	// Kernel is the shared discrete-event simulation core.
	Kernel = simcore.Kernel
)

// Scenario engine: scripted failures and dynamics across all engines.
type (
	// Scenario is a deterministic timeline of network events (link and
	// switch outages, controller detach, demand surges) that drives any
	// engine — flow-level, packet-level, or hybrid.
	Scenario = scenario.Timeline
	// ScenarioEventError reports a timeline event Apply/Validate rejected.
	ScenarioEventError = scenario.EventError
	// ScenarioOutcome summarizes what a scripted disruption cost a run.
	ScenarioOutcome = scenario.Outcome
	// FailureConfig parameterizes RandomLinkFailures.
	FailureConfig = scenario.FailureConfig
)

// Scenario constructors and evaluation.
var (
	// NewScenario returns an empty timeline.
	NewScenario = scenario.New
	// RandomLinkFailures draws a seed-reproducible failure process.
	RandomLinkFailures = scenario.RandomLinkFailures
	// EvaluateScenario computes resilience metrics for a disturbed run.
	EvaluateScenario = scenario.Evaluate
)

// Link-degradation models (WithLinkModel / Scenario.LinkDegrade): how
// well an up link carries traffic, deterministic and seed-reproducible,
// composed with scripted outages at every fidelity.
type (
	// LinkModel is one link-degradation model: per-frame corruption for
	// the packet engine, a loss rate and capacity scale for the flow
	// engine, both off one per-direction state in hybrid runs.
	LinkModel = linkmodel.Model
	// BernoulliLoss corrupts frames i.i.d. with probability P.
	BernoulliLoss = linkmodel.BernoulliLoss
	// GilbertElliott is the two-state bursty-loss channel.
	GilbertElliott = linkmodel.GilbertElliott
	// AdaptiveRate steps link capacity over discrete rate levels under
	// block fading (SNR-driven rate adaptation).
	AdaptiveRate = linkmodel.AdaptiveRate
)

// ValidateLinkModel reports whether a model's parameters are usable (the
// same check New and Scenario.Validate run).
var ValidateLinkModel = linkmodel.Validate

// Metrics.
type (
	// Summary bundles descriptive statistics of a sample.
	Summary = metrics.Summary
)

// Metric helpers.
var (
	// Summarize computes a Summary.
	Summarize = metrics.Summarize
	// Percentile returns the p-th percentile.
	Percentile = metrics.Percentile
	// MeanRelErr is the mean element-wise relative error.
	MeanRelErr = metrics.MeanRelErr
	// W1Distance is the earth-mover distance between samples.
	W1Distance = metrics.W1Distance
)

// Unlimited is the demand of a backlogged flow (takes all it can get).
var Unlimited = fairshare.Unlimited
