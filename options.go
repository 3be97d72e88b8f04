package horse

import (
	"fmt"

	"horse/internal/hybrid"
	"horse/internal/linkmodel"
	"horse/internal/traffic"
)

// Option configures New. Options validate their arguments eagerly and
// surface problems as *BuildError from New; an option that does not apply
// to the selected fidelity (say WithPacketFraction on a Flow engine) is
// an error too, never a silent no-op.
type Option func(*options) error

// options is the resolved configuration New builds from. The "set" flags
// distinguish an explicit zero from an untouched default so cross-option
// validation can tell them apart.
type options struct {
	fidelity      Fidelity
	controller    Controller
	miss          MissBehavior
	controlLat    Duration
	tcp           TCPParams
	tcpSet        bool
	statsEvery    Duration
	rateEpsilon   float64
	rateEpsSet    bool
	fullRecompute bool
	shards        int
	queuePackets  int
	queueSet      bool
	rtoMin        Duration
	rtoSet        bool
	packetLevel   func(i int, d traffic.Demand) bool
	packetSet     bool
	timeline      *Scenario
	linkDefault   LinkModel
	linkPer       []linkModelFor
	linkSeed      uint64
	linkSet       bool
	reader        traffic.Reader
	sink          func(FlowRecord)
	progressFn    ProgressFunc
	progressEvery Duration
	observers     []Observer
}

// validate enforces the cross-option rules once every option has applied
// (so option order never matters).
func (o *options) validate() error {
	bad := func(opt, reason string) error { return &BuildError{Option: opt, Reason: reason} }
	switch o.fidelity {
	case Flow:
		if o.packetSet {
			return bad("WithPacketFraction", "only a Hybrid engine splits the demand stream; set WithFidelity(horse.Hybrid)")
		}
		if o.queueSet {
			return bad("WithQueuePackets", "the Flow engine has no packet queues; applies to Packet and Hybrid")
		}
		if o.rtoSet {
			return bad("WithRTOMin", "the Flow engine has no retransmission timer; applies to Packet and Hybrid")
		}
	case Packet:
		if o.packetSet {
			return bad("WithPacketFraction", "only a Hybrid engine splits the demand stream; set WithFidelity(horse.Hybrid)")
		}
		if o.tcpSet {
			return bad("WithTCP", "the Packet engine models TCP per packet; the fluid TCP parameters apply to Flow and Hybrid")
		}
		if o.rateEpsSet {
			return bad("WithRateEpsilon", "the Packet engine has no fair-share allocator; applies to Flow and Hybrid")
		}
		if o.fullRecompute {
			return bad("WithFullRecompute", "the Packet engine has no fair-share allocator; applies to Flow only")
		}
	case Hybrid:
		if o.shards != 0 {
			return bad("WithShards", "the Hybrid engine never accepted a shard count; applies to Flow and Packet")
		}
		if o.fullRecompute {
			return bad("WithFullRecompute", "applies to Flow only")
		}
	}
	return nil
}

// WithFidelity selects the engine granularity (default Flow).
func WithFidelity(f Fidelity) Option {
	return func(o *options) error {
		if f > Hybrid {
			return &BuildError{Option: "WithFidelity", Reason: fmt.Sprintf("unknown fidelity %d", f)}
		}
		o.fidelity = f
		return nil
	}
}

// WithController attaches the control plane (default: none — pure
// pre-installed-state runs). Combine with WithMiss(MissController) for
// reactive scenarios, where table misses punt to the controller.
func WithController(c Controller) Option {
	return func(o *options) error {
		if c == nil {
			return &BuildError{Option: "WithController", Reason: "nil Controller (omit the option for a controller-less run)"}
		}
		o.controller = c
		return nil
	}
}

// WithMiss sets the table-miss behavior of every switch (default
// MissDrop).
func WithMiss(m MissBehavior) Option {
	return func(o *options) error {
		if m != MissDrop && m != MissController {
			return &BuildError{Option: "WithMiss", Reason: fmt.Sprintf("unknown miss behavior %d", m)}
		}
		o.miss = m
		return nil
	}
}

// WithControlLatency delays every switch↔controller message by d (default
// 1 ms).
func WithControlLatency(d Duration) Option {
	return func(o *options) error {
		if d <= 0 {
			return &BuildError{Option: "WithControlLatency", Reason: fmt.Sprintf("non-positive latency %v", d)}
		}
		o.controlLat = d
		return nil
	}
}

// WithTCP tunes the fluid (flow-level) TCP model — Flow and Hybrid
// fidelities.
func WithTCP(p TCPParams) Option {
	return func(o *options) error {
		if p.RTT < 0 {
			return &BuildError{Option: "WithTCP", Reason: fmt.Sprintf("negative RTT %v", p.RTT)}
		}
		o.tcp = p
		o.tcpSet = true
		return nil
	}
}

// WithStatsEvery samples link utilization at this period (default 0: no
// time series).
func WithStatsEvery(d Duration) Option {
	return func(o *options) error {
		if d < 0 {
			return &BuildError{Option: "WithStatsEvery", Reason: fmt.Sprintf("negative period %v", d)}
		}
		o.statsEvery = d
		return nil
	}
}

// WithRateEpsilon sets the relative rate-change threshold below which
// fair-share changes do not reschedule events (default 1%) — Flow and
// Hybrid fidelities.
func WithRateEpsilon(eps float64) Option {
	return func(o *options) error {
		if eps < 0 || eps >= 1 {
			return &BuildError{Option: "WithRateEpsilon", Reason: fmt.Sprintf("epsilon %g outside [0, 1)", eps)}
		}
		o.rateEpsilon = eps
		o.rateEpsSet = true
		return nil
	}
}

// WithFullRecompute disables incremental fair-share solving (the E6
// ablation switch) — Flow fidelity only.
func WithFullRecompute() Option {
	return func(o *options) error {
		o.fullRecompute = true
		return nil
	}
}

// WithShards is accepted for compatibility and changes nothing: every
// engine runs serial, whatever k. Packet runs once had a sharded
// multi-core executor behind this option; it was slower than the serial
// event loop at every shard count measured and was removed. What the
// option always rejected it still rejects: a negative k, and any k on a
// Hybrid engine.
//
// Deprecated: omit the option.
func WithShards(k int) Option {
	return func(o *options) error {
		if k < 0 {
			return &BuildError{Option: "WithShards", Reason: fmt.Sprintf("negative shard count %d", k)}
		}
		o.shards = k
		return nil
	}
}

// WithQueuePackets sets the per-output-port drop-tail queue capacity
// (default 100) — Packet and Hybrid fidelities.
func WithQueuePackets(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return &BuildError{Option: "WithQueuePackets", Reason: fmt.Sprintf("negative capacity %d", n)}
		}
		o.queuePackets = n
		o.queueSet = true
		return nil
	}
}

// WithRTOMin sets the packet engine's minimum retransmission timeout
// (default 200 ms) — Packet and Hybrid fidelities.
func WithRTOMin(d Duration) Option {
	return func(o *options) error {
		if d < 0 {
			return &BuildError{Option: "WithRTOMin", Reason: fmt.Sprintf("negative timeout %v", d)}
		}
		o.rtoMin = d
		o.rtoSet = true
		return nil
	}
}

// WithPacketFraction flags ~p of the demand stream (spread evenly over
// load order) for packet-level simulation — Hybrid fidelity only. p=0
// flags none, p=1 all. WithPacketSelector replaces the selector wholesale.
func WithPacketFraction(p float64) Option {
	return func(o *options) error {
		if p < 0 || p > 1 {
			return &BuildError{Option: "WithPacketFraction", Reason: fmt.Sprintf("fraction %g outside [0, 1]", p)}
		}
		o.packetLevel = hybrid.Fraction(p)
		o.packetSet = true
		return nil
	}
}

// WithPacketSelector flags demands for packet-level simulation with a
// custom selector (called per loaded demand with its load order) — Hybrid
// fidelity only.
func WithPacketSelector(sel func(i int, d Demand) bool) Option {
	return func(o *options) error {
		if sel == nil {
			return &BuildError{Option: "WithPacketSelector", Reason: "nil selector (omit the option, or use WithPacketFraction)"}
		}
		o.packetLevel = sel
		o.packetSet = true
		return nil
	}
}

// linkModelFor is one WithLinkModelFor installation, applied in option
// order after any WithLinkModel default.
type linkModelFor struct {
	link LinkID
	m    LinkModel
}

// WithLinkModel installs a degradation model on every link from the
// start of the run (any fidelity): the packet engine corrupts frames and
// scales transmitters per the model, the flow engine folds its loss rate
// into TCP demand caps and its rate scale into fair-share capacities,
// and a hybrid run drives both engines off one shared state. The model
// validates eagerly; per-link overrides layer on via WithLinkModelFor,
// and scripted changes via Scenario.LinkDegrade/LinkRestore.
func WithLinkModel(m LinkModel) Option {
	return func(o *options) error {
		if err := linkmodel.Validate(m); err != nil {
			return &BuildError{Option: "WithLinkModel", Reason: err.Error()}
		}
		o.linkDefault = m
		o.linkSet = true
		return nil
	}
}

// WithLinkModelFor installs a degradation model on one link (any
// fidelity); it may repeat, and overrides any WithLinkModel default for
// that link. The link is validated against the topology in New.
func WithLinkModelFor(link LinkID, m LinkModel) Option {
	return func(o *options) error {
		if err := linkmodel.Validate(m); err != nil {
			return &BuildError{Option: "WithLinkModelFor", Reason: err.Error()}
		}
		o.linkPer = append(o.linkPer, linkModelFor{link: link, m: m})
		o.linkSet = true
		return nil
	}
}

// WithLinkModelSeed seeds the link models' corruption streams (default
// 1). Two runs with the same seed, workload, and models draw identical
// per-direction corruption sequences at every fidelity; changing the
// seed redraws them.
func WithLinkModelSeed(seed uint64) Option {
	return func(o *options) error {
		if seed == 0 {
			return &BuildError{Option: "WithLinkModelSeed", Reason: "seed 0 is reserved (the default stream); pick any nonzero seed"}
		}
		o.linkSeed = seed
		o.linkSet = true
		return nil
	}
}

// WithScenario applies a scripted timeline of network dynamics at build
// time: the timeline is validated against the topology (unknown subjects
// and negative times fail New) and compiled onto the engine before it
// returns. Horizon-aware validation is available through
// Scenario.Validate or a direct Apply.
//
// Because the timeline compiles before any subsequent Load call, a
// timeline carrying Surge events loads its surge demands FIRST — ahead
// of the workload. Topology events are unaffected (they order by
// deterministic keys, not schedule order), but anything sensitive to
// demand load order — a Hybrid engine's WithPacketFraction selector,
// load-order record numbering — sees the surge demands at the lowest
// indices. To reproduce a legacy Load-then-Apply ordering exactly, call
// Scenario.Apply(eng, horizon) after Load instead of using this option.
func WithScenario(tl *Scenario) Option {
	return func(o *options) error {
		if tl == nil {
			return &BuildError{Option: "WithScenario", Reason: "nil Scenario"}
		}
		o.timeline = tl
		return nil
	}
}

// WithRecordSink streams every FlowRecord to sink as it finalizes instead
// of accumulating records in the Collector — the bounded-memory results
// path for multi-million-flow runs. The stream carries exactly the
// records, in exactly the order, Collector().Flows() would have held:
// every engine has one delivery path, and a run without a sink is one
// whose sink appends to the Collector. Engines deliver as flows finish
// (and reclaim their state), already numbered by load index at every
// fidelity: Flow in completion order, Packet and Hybrid in ID order.
func WithRecordSink(sink func(FlowRecord)) Option {
	return func(o *options) error {
		if sink == nil {
			return &BuildError{Option: "WithRecordSink", Reason: "nil sink (omit the option to collect in memory)"}
		}
		o.sink = sink
		return nil
	}
}

// WithTraceReader streams the workload in from r instead of an eager
// Load: the engine takes one demand at a time as virtual time reaches
// each start, so arbitrarily long traces ingest with bounded memory —
// the input-side counterpart of WithRecordSink. r must yield demands in
// nondecreasing Start order (NewTraceCSVReader buffers a bounded window
// to absorb local disorder; an out-of-window row fails the run with
// ErrTraceOrder). Streamed runs produce byte-identical records to Load
// of the same sequence at every fidelity. Load may still be called for
// extra demands; they schedule eagerly alongside the stream.
//
// The library's readers — NewTraceCSVReader (and the io.Reader behind
// it), NewPoissonReader, NewTraceReader, and MergeTraceReaders of only
// these — are read ahead during Run on a helper goroutine, a few fixed
// batches at a time, which Run stops before it returns. A reader error
// still ends ingestion after exactly the demands that precede it. Any
// other TraceReader is called one demand at a time on the goroutine
// running Run.
func WithTraceReader(r TraceReader) Option {
	return func(o *options) error {
		if r == nil {
			return &BuildError{Option: "WithTraceReader", Reason: "nil reader (use Load for in-memory traces)"}
		}
		o.reader = r
		return nil
	}
}

// WithProgress reports run progress to fn once per DefaultProgressEvery
// of virtual time, driven off the kernel's pre-advance path. Use
// WithProgressEvery for a different period.
func WithProgress(fn ProgressFunc) Option {
	return WithProgressEvery(DefaultProgressEvery, fn)
}

// WithProgressEvery is WithProgress with an explicit reporting period.
func WithProgressEvery(every Duration, fn ProgressFunc) Option {
	return func(o *options) error {
		if fn == nil {
			return &BuildError{Option: "WithProgress", Reason: "nil callback"}
		}
		if every <= 0 {
			return &BuildError{Option: "WithProgress", Reason: fmt.Sprintf("non-positive period %v", every)}
		}
		o.progressFn = fn
		o.progressEvery = every
		return nil
	}
}

// WithObserver registers an observer of applied network dynamics (link
// and switch flips, controller detach/reattach); it may repeat.
// Equivalent to calling Engine.Observe before Run.
func WithObserver(fn Observer) Option {
	return func(o *options) error {
		if fn == nil {
			return &BuildError{Option: "WithObserver", Reason: "nil observer"}
		}
		o.observers = append(o.observers, fn)
		return nil
	}
}
