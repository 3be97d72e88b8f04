package flowsim

import (
	"context"

	"horse/internal/dataplane"
	"horse/internal/linkmodel"
	"horse/internal/netgraph"
	"horse/internal/simcore"
	"horse/internal/simevent"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

// Driver is the run shell of every fidelity: it owns the run's control
// plane, the Load cursors and the trace reader that feed it, the run
// itself (Begin, the kernel's run, Finish) and the order its records reach
// the collector in. The engines are attachments of its plane: each hands
// the Driver only what its fidelity decides, the key of a demand's first
// event and the function that admits the demand when that event fires
// (Intake). Every engine type embeds its Driver, so the Engine surface is
// written once, here.
type Driver struct {
	plane ControlPlane
	// name prefixes the run's panics and its trace reader's errors.
	name string
	in   Intake

	// emit takes every record the engines finalize: the collector's
	// AddFlow (completion order), or ordered's Put by load index.
	emit    func(stats.FlowRecord)
	ordered *stats.InOrder

	// loaded counts the demands Loaded so far: the next one's load index.
	// loads holds the Load cursors until Run sizes the retained records;
	// reader, when set, becomes an ingestion cursor at Run.
	loaded int
	loads  []*Arrivals
	reader *traffic.Ingest
	begun  bool
}

// Intake is how a fidelity's demands enter its run. Key and Admit are a
// Loaded demand's first-event key and admission, by load index (see
// Arrivals); StreamKey and StreamAdmit are a streamed demand's, and
// default to Key and Admit. Route, when set, sees every Loaded trace, with
// the load index of its first demand, before the trace's cursor starts.
type Intake struct {
	Route              func(tr traffic.Trace, first int)
	Key, StreamKey     func(i int) uint64
	Admit, StreamAdmit func(d *traffic.Demand, i int)
}

// testKernel, when set, is the kernel NewDriver builds on (see OnKernel).
var testKernel *simcore.Kernel

// OnKernel calls build with every Driver it builds running on k instead
// of a kernel of its own: the seam through which a test runs any fidelity
// on the heap oracle, or on a queue that logs its dispatches. No other
// goroutine may build an engine meanwhile.
func OnKernel(k *simcore.Kernel, build func()) {
	prev := testKernel
	testKernel = k
	defer func() { testKernel = prev }()
	build()
}

// NewDriver builds the driver of a run named name, with its control plane
// over cfg.Topology: cfg.Miss at every switch, the cfg.Links registry,
// cfg.Controller behind cfg.ControlLatency, and a collector sampling link
// utilization every cfg.StatsEvery. With inOrder, records reach the
// collector in load order; otherwise as their flows finalize. Engines
// then attach to it (NewOn) and hand it their Intake.
func NewDriver(name string, cfg Config, inOrder bool) *Driver {
	if cfg.Topology == nil {
		panic(name + ": Config.Topology is required")
	}
	k := testKernel
	if k == nil {
		k = simcore.New(simcore.Config{})
	}
	col := stats.NewCollector(cfg.StatsEvery)
	d := &Driver{name: name}
	d.plane.init(k, dataplane.NewNetwork(cfg.Topology, cfg.Miss), cfg.Links, col, cfg.Controller, cfg.ControlLatency)
	if inOrder {
		d.ordered = stats.NewInOrder(col.AddFlow)
		d.emit = d.put
	} else {
		d.emit = col.AddFlow
	}
	return d
}

// put hands a record to the in-order emitter under its load index.
func (d *Driver) put(r stats.FlowRecord) { d.ordered.Put(int(r.ID-1), r) }

// SetIntake installs how the run's demands enter it; call it once the
// engines are attached, before any Load.
func (d *Driver) SetIntake(in Intake) {
	if in.StreamKey == nil {
		in.StreamKey, in.StreamAdmit = in.Key, in.Admit
	}
	d.in = in
}

// Plane returns the run's control plane, which engines attach to.
func (d *Driver) Plane() *ControlPlane { return &d.plane }

// Emitter returns the function the engines hand every finalized record to.
func (d *Driver) Emitter() func(stats.FlowRecord) { return d.emit }

// Load schedules every demand in the trace; tr[i]'s record ID is its load
// index + 1, counted over every Load and then the trace reader. The run
// keeps tr (without copying it) until the last of its demands has
// started, so the caller must not modify it after Load.
//
// Load is an Arrivals cursor: one demand is queued at a time, under the
// sequence number an eager push of the whole trace would have given it,
// so the run is event-for-event identical to one first event per demand
// while the queue holds one per Load.
func (d *Driver) Load(tr traffic.Trace) {
	if d.in.Route != nil {
		d.in.Route(tr, d.loaded)
	}
	d.loads = append(d.loads, LoadArrivals(d.plane.k, tr, d.loaded, d.in.Key, d.in.Admit))
	d.loaded += len(tr)
}

// Claim takes the next n load indices for demands a caller queues through
// events of its own rather than Load, and returns the first.
func (d *Driver) Claim(n int) int {
	d.loaded += n
	return d.loaded - n
}

// SetTraceReader streams the workload in from r instead of (or after)
// Load: demands are pulled one at a time as virtual time reaches the
// previous one's start, so arbitrarily long traces ingest with one demand
// queued (a library reader is read ahead in fixed batches; see
// traffic.Ingest, which Run closes). r must yield nondecreasing Start
// times. A streamed demand is queued where a Loaded one would be, so a
// streamed run's records are identical to Load of the same sequence.
// Install before Run; a reader error stops ingestion and is returned by
// Run.
func (d *Driver) SetTraceReader(r traffic.Reader) {
	if d.begun {
		panic(d.name + ": SetTraceReader after Run")
	}
	d.reader = traffic.NewIngest(d.name, r)
}

// SetRecordSink streams every stats.FlowRecord to sink instead of
// retaining it in the collector, in the order Collector().Flows() would
// have held it: completion order on a flow-level run, load order on a
// packet-level or hybrid one. The engines evict a flow's state as its
// record goes out, so a multi-million-flow run completes with O(1) record
// memory. Install before Run.
func (d *Driver) SetRecordSink(sink func(stats.FlowRecord)) { d.plane.col.SetFlowSink(sink) }

// SetProgress arms progress reporting: fn receives a simevent.Progress at
// most once per `every` of virtual time, driven off the kernel's
// pre-advance path so everything at the reported instant has settled.
// Install before Run.
func (d *Driver) SetProgress(every simtime.Duration, fn simevent.ProgressFunc) {
	simevent.ArmProgress(d.plane.k, every, fn)
}

// Run executes the simulation until the event queue drains, virtual time
// exceeds until (simtime.Never for no bound), or ctx is cancelled. It
// starts the control plane and then each engine in attach order, and
// after the kernel stops finishes them in the same order: every
// unfinished flow is settled to the stop instant and recorded, so on
// cancellation the collector is partial but consistent (returned with
// ctx.Err()). EventsRun is the kernel's dispatch count. Run may be called
// once.
func (d *Driver) Run(ctx context.Context, until simtime.Time) (*stats.Collector, error) {
	if d.begun {
		panic(d.name + ": Run called twice")
	}
	d.begun = true
	p := &d.plane
	p.col.Reserve(DueRecords(d.loads, until))
	p.col.ReserveLinkSeries(2*p.topo.NumLinks(), until)
	d.loads = nil
	p.Start()
	for _, e := range p.engines {
		e.Begin()
	}
	if d.reader != nil {
		ReadArrivals(p.k, d.reader, d.loaded, d.in.StreamKey, d.in.StreamAdmit)
	}
	defer d.reader.Close() // a panic out of the kernel skips the close below
	err := p.k.RunContext(ctx, until)
	d.reader.Close()
	for _, e := range p.engines {
		e.Finish()
	}
	// Load indices that never produced a record (a demand past until, or
	// a cancelled run) leave holes the flush skips.
	if d.ordered != nil {
		d.ordered.Flush()
	}
	p.col.EventsRun = p.k.Dispatched()
	if err == nil {
		err = d.reader.Err()
	}
	return p.col, err
}

// Kernel returns the simulation kernel driving the run.
func (d *Driver) Kernel() *simcore.Kernel { return d.plane.k }

// Now returns the current virtual time.
func (d *Driver) Now() simtime.Time { return d.plane.k.Now() }

// Topology returns the simulated topology.
func (d *Driver) Topology() *netgraph.Topology { return d.plane.topo }

// Network exposes the data-plane state (switch tables), e.g. for
// pre-installing rules.
func (d *Driver) Network() *dataplane.Network { return d.plane.net }

// Collector returns the one collector every engine counts into: the
// records emitted so far (none when a record sink is installed), outcome
// tallies, packet, punt, rate and path counters, link series, the
// control plane's FlowMods and, once Run has ended, EventsRun.
func (d *Driver) Collector() *stats.Collector { return d.plane.col }

// Observe registers an observer of applied network dynamics; see
// ControlPlane.Observe.
func (d *Driver) Observe(fn simevent.Observer) { d.plane.Observe(fn) }

// ScheduleLinkChange schedules a link failure (up=false) or recovery; see
// ControlPlane.ScheduleLinkChange.
func (d *Driver) ScheduleLinkChange(at simtime.Time, link netgraph.LinkID, up bool) {
	d.plane.ScheduleLinkChange(at, link, up)
}

// ScheduleSwitchChange schedules a switch crash (up=false) or restart;
// see ControlPlane.ScheduleSwitchChange.
func (d *Driver) ScheduleSwitchChange(at simtime.Time, sw netgraph.NodeID, up bool) {
	d.plane.ScheduleSwitchChange(at, sw, up)
}

// ScheduleControllerChange schedules a controller detach (attached=false)
// or reattach; see ControlPlane.ScheduleControllerChange.
func (d *Driver) ScheduleControllerChange(at simtime.Time, attached bool) {
	d.plane.ScheduleControllerChange(at, attached)
}

// ScheduleLinkDegrade schedules a link-model change (nil m restores the
// pristine link); see ControlPlane.ScheduleLinkDegrade.
func (d *Driver) ScheduleLinkDegrade(at simtime.Time, link netgraph.LinkID, m linkmodel.Model) {
	d.plane.ScheduleLinkDegrade(at, link, m)
}
