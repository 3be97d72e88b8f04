package wire

import (
	"fmt"
	"math"

	"horse/internal/addr"
	"horse/internal/header"
	"horse/internal/linkmodel"
	"horse/internal/netgraph"
	"horse/internal/scenario"
	"horse/internal/simtime"
	"horse/internal/traffic"
)

// SessionSpec is the full serializable description of one simulation
// session: everything horse.New plus Load plus a Scenario express in
// code, as data. It is the Submit payload of the wire protocol, and the
// contract behind the service's parity guarantee — the daemon builds the
// engine from the spec through the same façade bridge a one-shot caller
// would use, so wire-submitted sessions produce byte-identical records.
type SessionSpec struct {
	Topology TopoSpec     `json:"topology"`
	Workload WorkloadSpec `json:"workload"`
	// Scenario is an optional scripted timeline, applied after Load (the
	// legacy ordering: workload demands keep the low load-order indices).
	Scenario []EventSpec `json:"scenario,omitempty"`
	Options  OptionsSpec `json:"options,omitempty"`
	// UntilNs bounds the run in virtual time; 0 means run until the
	// event queue drains.
	UntilNs int64 `json:"until_ns,omitempty"`
}

// Until returns the run horizon (simtime.Never when unset).
func (s *SessionSpec) Until() simtime.Time {
	if s.UntilNs <= 0 {
		return simtime.Never
	}
	return simtime.Time(s.UntilNs)
}

// SpecError reports an invalid field of a session spec.
type SpecError struct {
	Field  string
	Reason string
}

func (e *SpecError) Error() string { return fmt.Sprintf("wire: spec %s: %s", e.Field, e.Reason) }

func specErr(field, format string, a ...interface{}) error {
	return &SpecError{Field: field, Reason: fmt.Sprintf(format, a...)}
}

// LinkSpec serializes a link class (capacity + propagation delay).
type LinkSpec struct {
	RateBps float64 `json:"rate_bps"`
	DelayNs int64   `json:"delay_ns"`
}

func (l *LinkSpec) netgraph(def netgraph.LinkSpec) netgraph.LinkSpec {
	if l == nil {
		return def
	}
	return netgraph.LinkSpec{BandwidthBps: l.RateBps, Delay: simtime.Duration(l.DelayNs)}
}

func (l *LinkSpec) validate(field string) error {
	if l == nil {
		return nil
	}
	if l.RateBps <= 0 || math.IsInf(l.RateBps, 0) || math.IsNaN(l.RateBps) {
		return specErr(field, "non-positive rate %g bps", l.RateBps)
	}
	if l.DelayNs < 0 {
		return specErr(field, "negative delay %d ns", l.DelayNs)
	}
	return nil
}

// Topology kinds.
const (
	TopoLinear     = "linear"
	TopoStar       = "star"
	TopoLeafSpine  = "leafspine"
	TopoFatTree    = "fattree"
	TopoRing       = "ring"
	TopoDumbbell   = "dumbbell"
	TopoRandom     = "random"
	TopoStarOfFats = "starfattree"
)

// TopoSpec names one of the deterministic topology builders and its
// parameters. Builders are referenced by name rather than shipping an
// arbitrary graph: every builder is seed-deterministic, so the spec
// stays small and the daemon and a local run construct the identical
// network (node IDs, names, link IDs and all).
type TopoSpec struct {
	// Kind selects the builder: linear|star|leafspine|fattree|ring|
	// dumbbell|random|starfattree.
	Kind string `json:"kind"`
	// N is the switch count (linear/ring/random), host count (star),
	// hosts per side (dumbbell), or tree count (starfattree).
	N int `json:"n,omitempty"`
	// Leaves/Spines/Hosts parameterize leafspine (Hosts = hosts per leaf).
	Leaves int `json:"leaves,omitempty"`
	Spines int `json:"spines,omitempty"`
	Hosts  int `json:"hosts,omitempty"`
	// K is the fat-tree arity.
	K int `json:"k,omitempty"`
	// P and Seed parameterize the random builder.
	P    float64 `json:"p,omitempty"`
	Seed int64   `json:"seed,omitempty"`
	// HostLink is the host-facing link class (default 1 Gbps / 50 µs);
	// Trunk the switch-switch class (default 10 Gbps / 50 µs). FatTree
	// uses HostLink for every link, Dumbbell uses Trunk as the
	// bottleneck.
	HostLink *LinkSpec `json:"host_link,omitempty"`
	Trunk    *LinkSpec `json:"trunk,omitempty"`
}

// Build constructs the topology.
func (t TopoSpec) Build() (*netgraph.Topology, error) {
	if err := t.HostLink.validate("topology.host_link"); err != nil {
		return nil, err
	}
	if err := t.Trunk.validate("topology.trunk"); err != nil {
		return nil, err
	}
	host := t.HostLink.netgraph(netgraph.Gig)
	trunk := t.Trunk.netgraph(netgraph.TenGig)
	pos := func(field string, v int) error {
		if v <= 0 {
			return specErr(field, "must be positive, got %d", v)
		}
		return nil
	}
	switch t.Kind {
	case TopoLinear:
		if err := pos("topology.n", t.N); err != nil {
			return nil, err
		}
		return netgraph.Linear(t.N, host, trunk), nil
	case TopoStar:
		if err := pos("topology.n", t.N); err != nil {
			return nil, err
		}
		return netgraph.Star(t.N, host), nil
	case TopoLeafSpine:
		for _, f := range []struct {
			name string
			v    int
		}{{"topology.leaves", t.Leaves}, {"topology.spines", t.Spines}, {"topology.hosts", t.Hosts}} {
			if err := pos(f.name, f.v); err != nil {
				return nil, err
			}
		}
		return netgraph.LeafSpine(t.Leaves, t.Spines, t.Hosts, host, trunk), nil
	case TopoFatTree:
		if t.K < 2 || t.K%2 != 0 {
			return nil, specErr("topology.k", "fat-tree arity must be even and >= 2, got %d", t.K)
		}
		return netgraph.FatTree(t.K, host), nil
	case TopoStarOfFats:
		if err := pos("topology.n", t.N); err != nil {
			return nil, err
		}
		if t.K < 2 || t.K%2 != 0 {
			return nil, specErr("topology.k", "fat-tree arity must be even and >= 2, got %d", t.K)
		}
		return netgraph.StarOfFatTrees(t.N, t.K, host), nil
	case TopoRing:
		if err := pos("topology.n", t.N); err != nil {
			return nil, err
		}
		return netgraph.Ring(t.N, host, trunk), nil
	case TopoDumbbell:
		if err := pos("topology.n", t.N); err != nil {
			return nil, err
		}
		return netgraph.Dumbbell(t.N, t.N, host, trunk), nil
	case TopoRandom:
		if err := pos("topology.n", t.N); err != nil {
			return nil, err
		}
		if t.P <= 0 || t.P > 1 {
			return nil, specErr("topology.p", "edge probability %g outside (0, 1]", t.P)
		}
		return netgraph.RandomConnected(t.N, t.P, t.Seed, host, trunk), nil
	case "":
		return nil, specErr("topology.kind", "missing")
	}
	return nil, specErr("topology.kind", "unknown kind %q", t.Kind)
}

// DemandSpec serializes one demand. Hosts are referenced by topology
// node name (stable across builder invocations); the flow key is derived
// from the canonical addressing plan, with the source port defaulting to
// 40000+index so every demand's key is distinct.
type DemandSpec struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
	// StartNs is the arrival instant (for surge demands: relative to the
	// surge event time).
	StartNs int64 `json:"start_ns"`
	// SizeBits is the transfer volume ("+inf" with DurationNs set means
	// a constant-rate flow of that duration).
	SizeBits Float `json:"size_bits"`
	// RateBps is the offered rate ("+inf" for a backlogged TCP
	// transfer).
	RateBps Float `json:"rate_bps"`
	// DurationNs bounds open-ended flows.
	DurationNs int64 `json:"duration_ns,omitempty"`
	// TCP selects the TCP model rather than fluid CBR.
	TCP bool `json:"tcp,omitempty"`
	// SrcPort/DstPort override the defaults (40000+index, 80).
	SrcPort uint16 `json:"src_port,omitempty"`
	DstPort uint16 `json:"dst_port,omitempty"`
}

// demand resolves the spec against a topology. i is the demand's index
// within its containing list (workload or surge), used for the default
// source port.
func (d DemandSpec) demand(topo *netgraph.Topology, field string, i int) (traffic.Demand, error) {
	resolve := func(sub, name string) (netgraph.NodeID, error) {
		id, ok := topo.Lookup(name)
		if !ok {
			return 0, specErr(fmt.Sprintf("%s[%d].%s", field, i, sub), "unknown node %q", name)
		}
		if topo.Node(id).Kind != netgraph.KindHost {
			return 0, specErr(fmt.Sprintf("%s[%d].%s", field, i, sub), "node %q is not a host", name)
		}
		return id, nil
	}
	src, err := resolve("src", d.Src)
	if err != nil {
		return traffic.Demand{}, err
	}
	dst, err := resolve("dst", d.Dst)
	if err != nil {
		return traffic.Demand{}, err
	}
	if src == dst {
		return traffic.Demand{}, specErr(fmt.Sprintf("%s[%d]", field, i), "src and dst are both %q", d.Src)
	}
	if d.StartNs < 0 {
		return traffic.Demand{}, specErr(fmt.Sprintf("%s[%d].start_ns", field, i), "negative start %d", d.StartNs)
	}
	if d.DurationNs < 0 {
		return traffic.Demand{}, specErr(fmt.Sprintf("%s[%d].duration_ns", field, i), "negative duration %d", d.DurationNs)
	}
	size, rate := float64(d.SizeBits), float64(d.RateBps)
	if size <= 0 || math.IsNaN(size) {
		return traffic.Demand{}, specErr(fmt.Sprintf("%s[%d].size_bits", field, i), "non-positive size %g", size)
	}
	if rate <= 0 || math.IsNaN(rate) {
		return traffic.Demand{}, specErr(fmt.Sprintf("%s[%d].rate_bps", field, i), "non-positive rate %g", rate)
	}
	proto := header.ProtoUDP
	if d.TCP {
		proto = header.ProtoTCP
	}
	sport := d.SrcPort
	if sport == 0 {
		sport = uint16(40000 + i)
	}
	dport := d.DstPort
	if dport == 0 {
		dport = 80
	}
	dem := traffic.Demand{
		Src: src, Dst: dst,
		Start:    simtime.Time(d.StartNs),
		SizeBits: size, RateBps: rate,
		Duration: simtime.Duration(d.DurationNs),
		TCP:      d.TCP,
	}
	dem.Key = addr.FlowKeyBetween(src, dst, proto, sport, dport)
	return dem, nil
}

// Size distribution kinds.
const (
	SizePareto    = "pareto"
	SizeLogNormal = "lognormal"
	SizeFixed     = "fixed"
)

// SizeSpec serializes a flow-size distribution.
type SizeSpec struct {
	Kind string `json:"kind"` // pareto|lognormal|fixed
	// XMin/Alpha parameterize pareto.
	XMin  float64 `json:"x_min,omitempty"`
	Alpha float64 `json:"alpha,omitempty"`
	// Mu/Sigma parameterize lognormal.
	Mu    float64 `json:"mu,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	// Bits is the fixed size.
	Bits float64 `json:"bits,omitempty"`
}

func (s SizeSpec) dist() (traffic.SizeDist, error) {
	switch s.Kind {
	case SizePareto:
		if s.XMin <= 0 || s.Alpha <= 0 {
			return nil, specErr("workload.poisson.size", "pareto needs positive x_min and alpha, got %g/%g", s.XMin, s.Alpha)
		}
		return traffic.Pareto{XMin: s.XMin, Alpha: s.Alpha}, nil
	case SizeLogNormal:
		if s.Sigma < 0 {
			return nil, specErr("workload.poisson.size", "negative sigma %g", s.Sigma)
		}
		return traffic.LogNormal{Mu: s.Mu, Sigma: s.Sigma}, nil
	case SizeFixed:
		if s.Bits <= 0 {
			return nil, specErr("workload.poisson.size", "non-positive fixed size %g", s.Bits)
		}
		return traffic.FixedSize(s.Bits), nil
	case "":
		return nil, specErr("workload.poisson.size.kind", "missing")
	}
	return nil, specErr("workload.poisson.size.kind", "unknown kind %q", s.Kind)
}

// PoissonSpec serializes a generated Poisson workload (seed-reproducible:
// the daemon regenerates the identical trace).
type PoissonSpec struct {
	Seed int64 `json:"seed"`
	// Lambda is the arrival rate in flows/second.
	Lambda float64 `json:"lambda"`
	// HorizonNs bounds arrival times.
	HorizonNs int64 `json:"horizon_ns"`
	// Size draws flow volumes.
	Size SizeSpec `json:"size"`
	// TCPFraction of flows use the TCP model; the rest are CBR at
	// CBRRateBps (generator default when 0).
	TCPFraction float64 `json:"tcp_fraction,omitempty"`
	CBRRateBps  float64 `json:"cbr_rate_bps,omitempty"`
}

// WorkloadSpec serializes the session workload: explicit demands, a
// generated Poisson trace, or both (explicit demands load first).
//
// Stream is a horse-wire/v1 field, accepted and ignored: every session
// Loads its explicit demands and streams its generator, so generated
// workloads of any length build in O(1) input memory.
type WorkloadSpec struct {
	Demands []DemandSpec `json:"demands,omitempty"`
	Poisson *PoissonSpec `json:"poisson,omitempty"`
	Stream  bool         `json:"stream,omitempty"`
}

// config validates the Poisson parameters against a topology.
func (p *PoissonSpec) config(topo *netgraph.Topology) (traffic.PoissonConfig, error) {
	if p.Lambda <= 0 {
		return traffic.PoissonConfig{}, specErr("workload.poisson.lambda", "non-positive rate %g", p.Lambda)
	}
	if p.HorizonNs <= 0 {
		return traffic.PoissonConfig{}, specErr("workload.poisson.horizon_ns", "non-positive horizon %d", p.HorizonNs)
	}
	if p.TCPFraction < 0 || p.TCPFraction > 1 {
		return traffic.PoissonConfig{}, specErr("workload.poisson.tcp_fraction", "fraction %g outside [0, 1]", p.TCPFraction)
	}
	sizes, err := p.Size.dist()
	if err != nil {
		return traffic.PoissonConfig{}, err
	}
	return traffic.PoissonConfig{
		Hosts:       topo.Hosts(),
		Lambda:      p.Lambda,
		Horizon:     simtime.Duration(p.HorizonNs),
		Sizes:       sizes,
		TCPFraction: p.TCPFraction,
		CBRRateBps:  p.CBRRateBps,
	}, nil
}

// Trace materializes the workload against a topology.
func (w WorkloadSpec) Trace(topo *netgraph.Topology) (traffic.Trace, error) {
	var tr traffic.Trace
	for i, d := range w.Demands {
		dem, err := d.demand(topo, "workload.demands", i)
		if err != nil {
			return nil, err
		}
		tr = append(tr, dem)
	}
	if p := w.Poisson; p != nil {
		cfg, err := p.config(topo)
		if err != nil {
			return nil, err
		}
		tr = append(tr, traffic.NewGenerator(p.Seed).PoissonArrivals(cfg)...)
	}
	if len(tr) == 0 {
		return nil, specErr("workload", "empty (need demands or a poisson generator)")
	}
	return tr, nil
}

// Reader streams the workload against a topology in global start-time
// order: explicit demands (sorted) merged with the Poisson generator's
// arrival stream, one demand buffered per source — the bounded-memory
// counterpart of Trace. A Poisson-only workload streams the
// byte-identical sequence Trace materializes.
func (w WorkloadSpec) Reader(topo *netgraph.Topology) (traffic.Reader, error) {
	var rs []traffic.Reader
	if len(w.Demands) > 0 {
		var tr traffic.Trace
		for i, d := range w.Demands {
			dem, err := d.demand(topo, "workload.demands", i)
			if err != nil {
				return nil, err
			}
			tr = append(tr, dem)
		}
		tr.Sort()
		rs = append(rs, traffic.TraceReader(tr))
	}
	if p := w.Poisson; p != nil {
		cfg, err := p.config(topo)
		if err != nil {
			return nil, err
		}
		rs = append(rs, traffic.NewPoissonReader(p.Seed, cfg))
	}
	if len(rs) == 0 {
		return nil, specErr("workload", "empty (need demands or a poisson generator)")
	}
	if len(rs) == 1 {
		return rs[0], nil
	}
	return traffic.MergeReaders(rs...), nil
}

// Scenario event kinds on the wire (the scenario.Kind strings).
const (
	EventLinkDown           = "link-down"
	EventLinkUp             = "link-up"
	EventSwitchFail         = "switch-fail"
	EventSwitchRestart      = "switch-restart"
	EventControllerDetach   = "controller-detach"
	EventControllerReattach = "controller-reattach"
	EventDemandSurge        = "demand-surge"
	EventLinkDegrade        = "link-degrade"
	EventLinkRestore        = "link-restore"
)

// Link-model kinds on the wire (the linkmodel Model names).
const (
	LinkModelBernoulli      = "bernoulli"
	LinkModelGilbertElliott = "gilbert-elliott"
	LinkModelAdaptiveRate   = "adaptive-rate"
)

// LinkModelSpec serializes one link-degradation model (the subject of
// link-degrade events and the options' default link model).
type LinkModelSpec struct {
	// Kind selects the model: bernoulli|gilbert-elliott|adaptive-rate.
	Kind string `json:"kind"`
	// Loss is the per-frame corruption probability (bernoulli).
	Loss float64 `json:"loss,omitempty"`
	// PGoodBad/PBadGood/LossGood/LossBad parameterize gilbert-elliott.
	PGoodBad float64 `json:"p_good_bad,omitempty"`
	PBadGood float64 `json:"p_bad_good,omitempty"`
	LossGood float64 `json:"loss_good,omitempty"`
	LossBad  float64 `json:"loss_bad,omitempty"`
	// Levels/Floor/EveryNs parameterize adaptive-rate.
	Levels  int     `json:"levels,omitempty"`
	Floor   float64 `json:"floor,omitempty"`
	EveryNs int64   `json:"every_ns,omitempty"`
}

// Model compiles the spec into a linkmodel.Model, validating its
// parameters; field names the spec location for error reporting.
func (s LinkModelSpec) Model(field string) (linkmodel.Model, error) {
	var m linkmodel.Model
	switch s.Kind {
	case LinkModelBernoulli:
		m = linkmodel.BernoulliLoss{P: s.Loss}
	case LinkModelGilbertElliott:
		m = linkmodel.GilbertElliott{
			PGoodBad: s.PGoodBad, PBadGood: s.PBadGood,
			LossGood: s.LossGood, LossBad: s.LossBad,
		}
	case LinkModelAdaptiveRate:
		m = linkmodel.AdaptiveRate{
			Levels: s.Levels, Floor: s.Floor, Every: simtime.Duration(s.EveryNs),
		}
	case "":
		return nil, specErr(field+".kind", "missing")
	default:
		return nil, specErr(field+".kind", "unknown kind %q", s.Kind)
	}
	if err := linkmodel.Validate(m); err != nil {
		return nil, specErr(field, "%v", err)
	}
	return m, nil
}

// LinkModelForSpec installs a model on one link, referenced by its
// endpoint node names like link events (OptionsSpec.LinkModelFor).
type LinkModelForSpec struct {
	LinkA string        `json:"link_a"`
	LinkB string        `json:"link_b"`
	Model LinkModelSpec `json:"model"`
}

// Resolve compiles the per-link entry against a topology; i indexes the
// entry within options.link_model_for for error reporting.
func (s LinkModelForSpec) Resolve(topo *netgraph.Topology, i int) (netgraph.LinkID, linkmodel.Model, error) {
	field := fmt.Sprintf("options.link_model_for[%d]", i)
	na, ok := topo.Lookup(s.LinkA)
	if !ok {
		return 0, nil, specErr(field+".link_a", "unknown node %q", s.LinkA)
	}
	nb, ok := topo.Lookup(s.LinkB)
	if !ok {
		return 0, nil, specErr(field+".link_b", "unknown node %q", s.LinkB)
	}
	for _, l := range topo.Links() {
		if (l.A == na && l.B == nb) || (l.A == nb && l.B == na) {
			m, err := s.Model.Model(field + ".model")
			if err != nil {
				return 0, nil, err
			}
			return l.ID, m, nil
		}
	}
	return 0, nil, specErr(field, "no link between %q and %q", s.LinkA, s.LinkB)
}

// EventSpec serializes one scenario timeline event. Links are referenced
// by their endpoint node names (builder-deterministic), switches by
// name.
type EventSpec struct {
	AtNs int64  `json:"at_ns"`
	Kind string `json:"kind"`
	// LinkA/LinkB name the endpoints of the subject link (link events).
	LinkA string `json:"link_a,omitempty"`
	LinkB string `json:"link_b,omitempty"`
	// Switch names the subject switch (switch events).
	Switch string `json:"switch,omitempty"`
	// Surge is the injected burst (demand-surge events); demand starts
	// are relative to AtNs.
	Surge []DemandSpec `json:"surge,omitempty"`
	// Model is the degradation installed by link-degrade events.
	Model *LinkModelSpec `json:"model,omitempty"`
}

// Timeline compiles the event specs into a scenario timeline, resolving
// names against the topology. The returned timeline still runs the
// engine-level Validate on Apply; this resolution step only turns names
// into IDs.
func Timeline(events []EventSpec, topo *netgraph.Topology) (*scenario.Timeline, error) {
	if len(events) == 0 {
		return nil, nil
	}
	tl := scenario.New()
	for i, e := range events {
		at := simtime.Time(e.AtNs)
		switch e.Kind {
		case EventLinkDown, EventLinkUp:
			link, err := lookupLink(topo, e.LinkA, e.LinkB, i)
			if err != nil {
				return nil, err
			}
			if e.Kind == EventLinkDown {
				tl.LinkDown(at, link)
			} else {
				tl.LinkUp(at, link)
			}
		case EventSwitchFail, EventSwitchRestart:
			sw, ok := topo.Lookup(e.Switch)
			if !ok {
				return nil, specErr(fmt.Sprintf("scenario[%d].switch", i), "unknown node %q", e.Switch)
			}
			if e.Kind == EventSwitchFail {
				tl.SwitchFail(at, sw)
			} else {
				tl.SwitchRestart(at, sw)
			}
		case EventLinkDegrade, EventLinkRestore:
			link, err := lookupLink(topo, e.LinkA, e.LinkB, i)
			if err != nil {
				return nil, err
			}
			if e.Kind == EventLinkRestore {
				tl.LinkRestore(at, link)
				break
			}
			if e.Model == nil {
				return nil, specErr(fmt.Sprintf("scenario[%d].model", i), "missing (link-degrade installs a model)")
			}
			m, err := e.Model.Model(fmt.Sprintf("scenario[%d].model", i))
			if err != nil {
				return nil, err
			}
			tl.LinkDegrade(at, link, m)
		case EventControllerDetach:
			tl.ControllerDetach(at)
		case EventControllerReattach:
			tl.ControllerReattach(at)
		case EventDemandSurge:
			var surge traffic.Trace
			for j, d := range e.Surge {
				dem, err := d.demand(topo, fmt.Sprintf("scenario[%d].surge", i), j)
				if err != nil {
					return nil, err
				}
				surge = append(surge, dem)
			}
			if len(surge) == 0 {
				return nil, specErr(fmt.Sprintf("scenario[%d].surge", i), "empty surge")
			}
			tl.Surge(at, surge)
		case "":
			return nil, specErr(fmt.Sprintf("scenario[%d].kind", i), "missing")
		default:
			return nil, specErr(fmt.Sprintf("scenario[%d].kind", i), "unknown kind %q", e.Kind)
		}
	}
	return tl, nil
}

func lookupLink(topo *netgraph.Topology, a, b string, i int) (netgraph.LinkID, error) {
	na, ok := topo.Lookup(a)
	if !ok {
		return 0, specErr(fmt.Sprintf("scenario[%d].link_a", i), "unknown node %q", a)
	}
	nb, ok := topo.Lookup(b)
	if !ok {
		return 0, specErr(fmt.Sprintf("scenario[%d].link_b", i), "unknown node %q", b)
	}
	for _, l := range topo.Links() {
		if (l.A == na && l.B == nb) || (l.A == nb && l.B == na) {
			return l.ID, nil
		}
	}
	return 0, specErr(fmt.Sprintf("scenario[%d]", i), "no link between %q and %q", a, b)
}

// Fidelity names on the wire.
const (
	FidelityFlow   = "flow"
	FidelityPacket = "packet"
	FidelityHybrid = "hybrid"
)

// Event-queue backend names on the wire (OptionsSpec.EventQueue).
const (
	EventQueueWheel = "wheel"
	EventQueueHeap  = "heap"
)

// Shard-balancing mode names v1 defined (OptionsSpec.ShardBalancing).
// They are validated as v1 did and otherwise ignored; any other name is
// rejected.
const (
	BalanceUniform  = "uniform"
	BalanceWeighted = "weighted"
	BalanceSteal    = "steal"
)

// Controller app kinds.
const (
	AppProactiveMAC = "proactive-mac"
	AppReactiveMAC  = "reactive-mac"
	AppECMP         = "ecmp"
)

// AppSpec names one controller application of the chain.
type AppSpec struct {
	Kind string `json:"kind"` // proactive-mac|reactive-mac|ecmp
	// IdleTimeoutNs tunes reactive-mac rule eviction (0 = default).
	IdleTimeoutNs int64 `json:"idle_timeout_ns,omitempty"`
}

// OptionsSpec serializes the builder options of horse.New. Every field
// maps to exactly one functional option; the zero value of a field means
// "option not given", so defaults stay the façade's. The façade bridge
// (horse.SpecOptions) converts a spec to options and so inherits the
// builder's eager *BuildError validation — a bad option combination is
// rejected at Submit, as a wire error, before any engine state exists.
type OptionsSpec struct {
	// Fidelity selects the engine: flow (default) | packet | hybrid.
	Fidelity string `json:"fidelity,omitempty"`
	// Controller chains the named apps (empty = no controller).
	Controller []AppSpec `json:"controller,omitempty"`
	// Miss is the table-miss behavior: "" (default drop) | "drop" |
	// "controller".
	Miss string `json:"miss,omitempty"`
	// ControlLatencyNs delays switch↔controller messages (0 = default).
	ControlLatencyNs int64 `json:"control_latency_ns,omitempty"`
	// TCPRTTNs/TCPMSS/TCPInitialWindow tune the fluid TCP model (all
	// zero = option not given).
	TCPRTTNs         int64 `json:"tcp_rtt_ns,omitempty"`
	TCPMSS           int   `json:"tcp_mss,omitempty"`
	TCPInitialWindow int   `json:"tcp_initial_window,omitempty"`
	// StatsEveryNs samples link utilization at this period.
	StatsEveryNs int64 `json:"stats_every_ns,omitempty"`
	// RateEpsilon sets the fair-share reschedule threshold (pointer so 0
	// is expressible).
	RateEpsilon *float64 `json:"rate_epsilon,omitempty"`
	// FullRecompute disables incremental fair-share solving.
	FullRecompute bool `json:"full_recompute,omitempty"`
	// CalendarQueue is accepted and ignored.
	//
	// Deprecated: the calendar queue is gone; the field stays so v1 specs
	// that set it keep decoding, and they run on the default wheel.
	CalendarQueue bool `json:"calendar_queue,omitempty"`
	// EventQueue selects the kernel's event-queue backend: "" (default
	// wheel) | "wheel" | "heap". "calendar" and "auto", names of removed
	// backends, are accepted as aliases for the wheel. Results are
	// byte-identical across backends; only run time differs.
	EventQueue string `json:"event_queue,omitempty"`
	// Shards, ShardWorkers and ShardBalancing configured a sharded
	// executor that was removed because it ran slower than the serial
	// engine. They are accepted and ignored: specs that set them keep
	// decoding and run serially with unchanged records. The v1 rules on
	// them still hold: a negative count, shards on the hybrid engine,
	// shard_workers or shard_balancing outside a packet spec, balancing
	// without shards, and a balancing name other than "uniform",
	// "weighted" or "steal" are rejected.
	Shards         int    `json:"shards,omitempty"`
	ShardWorkers   *int   `json:"shard_workers,omitempty"`
	ShardBalancing string `json:"shard_balancing,omitempty"`
	// QueuePackets sets the drop-tail queue capacity (pointer so 0 is
	// expressible).
	QueuePackets *int `json:"queue_packets,omitempty"`
	// RTOMinNs sets the packet engine's minimum RTO.
	RTOMinNs *int64 `json:"rto_min_ns,omitempty"`
	// PacketFraction flags ~p of demands for packet-level simulation
	// (hybrid).
	PacketFraction *float64 `json:"packet_fraction,omitempty"`
	// LinkModel installs a degradation model on every link from the
	// start of the run (WithLinkModel).
	LinkModel *LinkModelSpec `json:"link_model,omitempty"`
	// LinkModelFor installs per-link models, layered after LinkModel
	// (WithLinkModelFor); links are referenced by endpoint node names.
	LinkModelFor []LinkModelForSpec `json:"link_model_for,omitempty"`
	// LinkModelSeed seeds the models' corruption streams
	// (WithLinkModelSeed; 0 means the default stream).
	LinkModelSeed uint64 `json:"link_model_seed,omitempty"`
}

// Workers is the session's worker-budget cost: how many workers of the
// daemon's shared budget the session occupies while running. Every engine
// runs on one goroutine, so every session costs one.
func (o OptionsSpec) Workers() int { return 1 }
