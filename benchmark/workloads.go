package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"horse"
	"horse/api/wire"
	"horse/internal/addr"
	"horse/internal/header"
	"horse/internal/service"
)

// A workload is one named set of inputs. Sizes are fixed per (seed,
// scale): where a generator draws a random count (Poisson arrivals in a
// horizon) the workload takes the first N arrivals instead, so ten seeds
// give ten samples of the same amount of work, not ten amounts.
type workload struct {
	name string
	why  string
	// layer is the package whose code Engine.Run's self time is charged
	// to: "flowsim", "packetsim", "hybrid", or "service".
	layer string
	// eng is nil for horsed.stream, which drives the daemon instead.
	eng *engineWorkload
	// parityWith names a workload whose record digest this one must
	// reproduce exactly (same inputs, different execution).
	parityWith string
}

// engineWorkload describes an in-process run through horse.New. The
// program under test sees only what topo and trace return.
type engineWorkload struct {
	topo    func(seed int64, scale float64) (*horse.Topology, any)
	trace   func(topo *horse.Topology, aux any, seed int64, scale float64) horse.Trace
	options func() []horse.Option
	// controller builds a fresh control plane per run (apps keep state).
	controller func() horse.Controller
	// routes pre-installs MAC forwarding (the E3/E9 methodology).
	routes bool
	// csvStream encodes the trace to CSV in setup and streams it back in
	// through NewTraceCSVReader during Run, instead of Load.
	csvStream bool
	// sink streams records through WithRecordSink; otherwise they are
	// retained and read from the collector after Run.
	sink bool
	// sharded runs hide nothing behind wrappers: a wrapped controller
	// would lose Forker, and callbacks may leave the Run goroutine.
	sharded bool
	until   horse.Time
	// progressEvery is the traced run's WithProgressEvery period.
	progressEvery horse.Duration
	// source names the generator for the traffic probe.
	source string
}

// scaled is n·scale, at least floor.
func scaled(n int, scale float64, floor int) int {
	return max(floor, int(math.Round(float64(n)*scale)))
}

// keepLargest zeroes all but the n largest entries of a traffic matrix
// (ties by position). IXPFabric.ReplayTrace drops entries under a fixed
// rate floor, which lets the epoch flow count swing by a tenth from seed
// to seed; a floor that adapts to keep n entries is the same idea at a
// fixed amount of work.
func keepLargest(m *horse.Matrix, n int) {
	type entry struct {
		i, j int
		rate float64
	}
	var es []entry
	for i, row := range m.Rates {
		for j, r := range row {
			if r > 0 {
				es = append(es, entry{i, j, r})
			}
		}
	}
	sort.SliceStable(es, func(a, b int) bool { return es[a].rate > es[b].rate })
	for _, e := range es[min(n, len(es)):] {
		m.Rates[e.i][e.j] = 0
	}
}

// fixMix makes the TCP/CBR split exact instead of a coin flip per flow:
// flows alternate in blocks of the given length, TCP first. A random
// split moves the packet-level TCP count — the expensive flows — by
// several percent between seeds.
func fixMix(tr horse.Trace, block int, cbrBps float64) horse.Trace {
	for i := range tr {
		d := &tr[i]
		d.TCP = (i/block)%2 == 0
		if d.TCP {
			d.RateBps, d.Key.Proto = math.Inf(1), header.ProtoTCP
		} else {
			d.RateBps, d.Key.Proto = cbrBps, header.ProtoUDP
		}
	}
	return tr
}

// spreadPairs re-addresses a trace so that flow i goes from a host under
// the i-th (ingress switch, destination host) pair of a seeded shuffle of
// all such pairs, wrapping around. A reactive controller punts once per
// pair it has not seen; with independent uniform endpoints the number of
// distinct pairs a few hundred flows touch — and with it the control
// plane's share of the run — moves by a tenth between seeds.
func spreadPairs(tr horse.Trace, topo *horse.Topology, seed int64) horse.Trace {
	under := map[horse.NodeID][]horse.NodeID{}
	var switches []horse.NodeID
	for _, h := range topo.Hosts() {
		sw, _ := topo.AttachedSwitch(h)
		if len(under[sw]) == 0 {
			switches = append(switches, sw)
		}
		under[sw] = append(under[sw], h)
	}
	type pair struct{ sw, dst horse.NodeID }
	var pairs []pair
	for _, sw := range switches {
		for _, dst := range topo.Hosts() {
			pairs = append(pairs, pair{sw, dst})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	for i := range tr {
		d := &tr[i]
		p := pairs[i%len(pairs)]
		srcs := under[p.sw]
		src := srcs[rng.Intn(len(srcs))]
		for src == p.dst {
			src = srcs[rng.Intn(len(srcs))]
		}
		d.Src, d.Dst = src, p.dst
		d.Key = addr.FlowKeyBetween(src, p.dst, d.Key.Proto, d.Key.SrcPort, d.Key.DstPort)
	}
	return tr
}

// poissonN returns the first n arrivals of a Poisson process: the
// generator's own stream, cut by count instead of by horizon.
func poissonN(seed int64, cfg horse.PoissonConfig, n int) horse.Trace {
	cfg.Horizon = horse.Duration(4*float64(n)/cfg.Lambda*float64(horse.Second)) + horse.Second
	r := horse.NewPoissonReader(seed, cfg)
	tr := make(horse.Trace, 0, n)
	for len(tr) < n {
		d, err := r.Next()
		if err != nil {
			break
		}
		tr = append(tr, d)
	}
	return tr
}

const (
	ixpMembers       = 300
	ixpEpochs        = 6
	ixpPairs         = 10_000 // matrix entries replayed per epoch
	streamFlows      = 250_000
	fatTreeArity     = 8
	fatTreeFlows     = 1250
	leafSpineFlows   = 3600
	horsedLambda     = 20000
	horsedHorizonSec = 4
)

func fatTreeWorkload(name, why string, shards int) *workload {
	w := &workload{
		name: name, why: why, layer: "packetsim",
		eng: &engineWorkload{
			topo: func(int64, float64) (*horse.Topology, any) {
				return horse.FatTree(fatTreeArity, horse.Gig), nil
			},
			trace: func(topo *horse.Topology, _ any, seed int64, scale float64) horse.Trace {
				return fixMix(poissonN(seed, horse.PoissonConfig{
					Hosts: topo.Hosts(), Lambda: 40 * float64(len(topo.Hosts())),
					Sizes: horse.FixedSize(1e6), TCPFraction: 0.5, CBRRateBps: 2e7,
				}, scaled(fatTreeFlows, scale, 8)), 1, 2e7)
			},
			options: func() []horse.Option {
				opts := []horse.Option{horse.WithFidelity(horse.Packet), horse.WithMiss(horse.MissDrop)}
				if shards > 0 {
					opts = append(opts, horse.WithShards(shards))
				}
				return opts
			},
			routes:        true,
			sharded:       shards > 0,
			until:         horse.Time(4 * horse.Second),
			progressEvery: 10 * horse.Millisecond,
			source:        "poisson",
		},
	}
	return w
}

// workloads is the suite, in report order.
var workloads = []*workload{
	{
		name:  "flow.ixp-replay",
		layer: "flowsim",
		why:   "Paper's headline run: IXP fabric, diurnal gravity traffic in hourly epochs, ECMP controller; large shared fair-share components and rate changes dominate, the event queue is incidental.",
		eng: &engineWorkload{
			topo: func(seed int64, scale float64) (*horse.Topology, any) {
				members := scaled(ixpMembers, math.Sqrt(scale), 20)
				prof := horse.LargeIXP(members)
				prof.Seed = seed // drives the peering mask
				fab, err := horse.BuildIXP(prof)
				if err != nil {
					panic(err) // LargeIXP profiles are valid by construction
				}
				// Member masses are one fixed heavy-tailed draw; the seed
				// decides which member (hence which edge switch) gets which
				// mass. Redrawing the masses per seed would change how many
				// matrix entries clear the replay's rate floor by tens of
				// percent, and the seeds would stop being comparable.
				w := horse.ParetoWeights(members, prof.WeightAlpha, 1)
				rand.New(rand.NewSource(seed)).Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
				fab.Weights = w
				return fab.Topo, fab
			},
			trace: func(_ *horse.Topology, aux any, seed int64, scale float64) horse.Trace {
				fab := aux.(*horse.IXPFabric)
				m := fab.PeeringMatrix(float64(len(fab.Members))*1e9, 0.2)
				keepLargest(m, scaled(ixpPairs, scale, 20))
				return horse.NewGenerator(seed).Replay(m, horse.ReplayConfig{
					Epoch: horse.Hour, Horizon: ixpEpochs * horse.Hour,
					Mod: horse.Diurnal{Base: 1, Amplitude: 0.5, Period: 24 * horse.Hour},
				})
			},
			options: func() []horse.Option {
				return []horse.Option{horse.WithMiss(horse.MissController), horse.WithStatsEvery(10 * horse.Minute)}
			},
			controller:    func() horse.Controller { return horse.NewChain(&horse.ECMPLoadBalancer{}) },
			sink:          true,
			until:         horse.Time((ixpEpochs + 1) * horse.Hour),
			progressEvery: 10 * horse.Minute,
			source:        "replay",
		},
	},
	{
		name:  "flow.stream-250k",
		layer: "flowsim",
		why:   "250k tiny CBR flows streamed from CSV to a record sink on a star: cost is event queue, kernel dispatch, trace reader and sink; peak live heap shows whether streaming stays bounded.",
		eng: &engineWorkload{
			topo: func(int64, float64) (*horse.Topology, any) { return horse.Star(4, horse.Gig), nil },
			trace: func(topo *horse.Topology, _ any, seed int64, scale float64) horse.Trace {
				hosts := topo.Hosts()
				rng := rand.New(rand.NewSource(seed))
				tr := make(horse.Trace, scaled(streamFlows, scale, 100))
				for i := range tr {
					s := rng.Intn(len(hosts))
					d := (s + 1 + rng.Intn(len(hosts)-1)) % len(hosts)
					tr[i] = horse.Demand{
						Src: hosts[s], Dst: hosts[d],
						Start:    horse.Time(i) * horse.Time(10*horse.Microsecond),
						SizeBits: 1e4, RateBps: 1e9,
					}
					// The CSV codec rebuilds keys from (src, dst, proto,
					// ports), so only those need setting here.
					tr[i].Key.Proto = header.ProtoUDP
					tr[i].Key.SrcPort = uint16(30000 + rng.Intn(1000))
					tr[i].Key.DstPort = 80
				}
				return tr
			},
			options: func() []horse.Option {
				return []horse.Option{horse.WithMiss(horse.MissController)}
			},
			controller:    func() horse.Controller { return horse.NewChain(&horse.ProactiveMAC{}) },
			csvStream:     true,
			sink:          true,
			until:         horse.Never,
			progressEvery: 100 * horse.Millisecond,
			source:        "csv",
		},
	},
	fatTreeWorkload("packet.fattree8",
		"Packet fast path alone on a k=8 fat-tree with pre-installed routes: per-packet handlers, per-hop table lookups and TCP timers; no controller, no fair-share.", 0),
	func() *workload {
		w := fatTreeWorkload("packet.fattree8.k2",
			"Same packets on 2 shards: barrier and exchange cost shows as this row moving against packet.fattree8; records must be identical to the serial run.", 2)
		w.parityWith = "packet.fattree8"
		return w
	}(),
	{
		name:  "hybrid.leafspine-q",
		layer: "hybrid",
		why:   "Third fidelity: a quarter of the flows packet-level, the rest fluid, one clock, reactive controller; coupling, reorder buffer and punts are all on the path.",
		eng: &engineWorkload{
			topo: func(int64, float64) (*horse.Topology, any) {
				return horse.LeafSpine(8, 4, 8, horse.Gig, horse.TenGig), nil
			},
			trace: func(topo *horse.Topology, _ any, seed int64, scale float64) horse.Trace {
				// WithPacketFraction(0.25) takes every fourth flow, so
				// blocks of four give each engine an exact half TCP.
				tr := poissonN(seed, horse.PoissonConfig{
					Hosts: topo.Hosts(), Lambda: 4000,
					Sizes: horse.FixedSize(5e5), TCPFraction: 0.5, CBRRateBps: 2e7,
				}, scaled(leafSpineFlows, scale, 8))
				return spreadPairs(fixMix(tr, 4, 2e7), topo, seed)
			},
			options: func() []horse.Option {
				return []horse.Option{
					horse.WithFidelity(horse.Hybrid), horse.WithPacketFraction(0.25),
					horse.WithMiss(horse.MissController),
				}
			},
			controller:    func() horse.Controller { return horse.NewChain(&horse.ReactiveMAC{}) },
			until:         horse.Time(30 * horse.Second),
			progressEvery: 10 * horse.Millisecond,
			source:        "poisson",
		},
	},
	{
		name:  "horsed.stream",
		layer: "service",
		why:   "Records over the daemon's unix socket, closed loop: 1 client, 1 streamed flow-level session at a time, small flows so wire encode, subscriber hand-off and the socket dominate, not the engine.",
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// iterResult is everything one setup+run yields.
type iterResult struct {
	SetupS, WallS float64
	Offered       int
	Records       int
	Digest        uint64
	Events, Hops  uint64
	AllocBytes    uint64
	PeakLive      uint64
	PacketIns     uint64
	FlowMods      uint64
	Solves        uint64
	ShardLoads    []uint64
	// SessionFailed is set when a horsed session does not end "done".
	SessionFailed bool
	// SubmitMs and FirstRecordMs are measured from the Submit call.
	SubmitMs, FirstRecordMs float64
	ConnRead, ConnWritten   int64
}

// collected is what the untimed warm-up iteration keeps for the
// simulated statistics and the probes. Timed iterations keep nothing.
type collected struct {
	fcts    []float64
	records []horse.FlowRecord
}

const recordSampleCap = 50_000

func (c *collected) add(r *horse.FlowRecord) {
	if r.Completed {
		c.fcts = append(c.fcts, r.FCT().Seconds())
	}
	if len(c.records) < recordSampleCap {
		c.records = append(c.records, *r)
	}
}

// runner executes iterations of one workload.
type runner struct {
	w       *workload
	seed    int64
	scale   float64
	workdir string
	socks   int
	// horsedOffered is the session's flow count, materialized once.
	horsedOffered int
}

func newRunner(w *workload, seed int64, scale float64, workdir string) (*runner, error) {
	r := &runner{w: w, seed: seed, scale: scale, workdir: workdir}
	if w.eng == nil {
		_, tr, err := horsedInputs(seed, scale)
		if err != nil {
			return nil, err
		}
		r.horsedOffered = len(tr)
	}
	return r, nil
}

// iterate performs one full setup+run. t, when non-nil, records spans;
// keep, when non-nil, receives every record.
func (r *runner) iterate(t *tracer, keep *collected) (res iterResult, err error) {
	runtime.GC()
	a0 := totalAlloc()
	hs := startHeapSampler()
	if r.w.eng == nil {
		res, err = r.iterateHorsed(t, keep)
	} else {
		res, err = r.iterateEngine(t, keep)
	}
	res.PeakLive = hs.Stop()
	res.AllocBytes = totalAlloc() - a0
	return res, err
}

// setupEngine is everything before Run: topology, trace, options, New,
// routes, Load. It returns the engine ready to run and the flows offered.
func (r *runner) setupEngine(t *tracer, onRecord func(*horse.FlowRecord)) (horse.Engine, int, error) {
	w := r.w.eng
	setup := t.begin("setup")
	defer t.end(setup)

	id := t.begin("netgraph.build")
	topo, aux := w.topo(r.seed, r.scale)
	t.end(id)
	id = t.begin("traffic.generate")
	tr := w.trace(topo, aux, r.seed, r.scale)
	t.end(id)

	opts := w.options()
	if w.controller != nil {
		ctrl := w.controller()
		if t != nil && !w.sharded {
			ctrl = &tracedController{c: ctrl, t: t, start: t.nameID("Controller.Start"), handle: t.nameID("Controller.Handle")}
		}
		opts = append(opts, horse.WithController(ctrl))
	}
	if w.sink {
		sink := func(rec horse.FlowRecord) { onRecord(&rec) }
		if t != nil {
			name := t.nameID("record.sink")
			sink = func(rec horse.FlowRecord) {
				id := t.beginID(name)
				onRecord(&rec)
				t.end(id)
			}
		}
		opts = append(opts, horse.WithRecordSink(sink))
	}
	if w.csvStream {
		id = t.begin("traffic.encode")
		var buf bytes.Buffer
		err := tr.WriteCSV(&buf)
		t.end(id)
		if err != nil {
			return nil, 0, fmt.Errorf("encode trace: %w", err)
		}
		rd, err := horse.NewTraceCSVReader(&buf, 0)
		if err != nil {
			return nil, 0, fmt.Errorf("open trace reader: %w", err)
		}
		if t != nil {
			rd = &tracedReader{r: rd, t: t, name: t.nameID("traffic.Reader.Next")}
		}
		opts = append(opts, horse.WithTraceReader(rd))
	}
	if t != nil && !w.sharded {
		run := t.run
		opts = append(opts, horse.WithProgressEvery(w.progressEvery, func(p horse.Progress) {
			t.progress = append(t.progress, progressPoint{run: run, virtNs: int64(p.Now), events: p.Events, hostNs: t.now()})
		}))
	}

	id = t.begin("horse.New")
	eng, err := horse.New(topo, opts...)
	t.end(id)
	if err != nil {
		return nil, 0, fmt.Errorf("horse.New: %w", err)
	}
	if w.routes {
		id = t.begin("InstallMACRoutes")
		horse.InstallMACRoutes(eng.Network())
		t.end(id)
	}
	if !w.csvStream {
		id = t.begin("Engine.Load")
		eng.Load(tr)
		t.end(id)
	}
	return eng, len(tr), nil
}

// setupOnly times one more setup whose engine is never run. Setups of a
// millisecond or less need more samples than the timed runs supply for
// their median to hold still.
func (r *runner) setupOnly() (float64, error) {
	runtime.GC()
	t0 := time.Now()
	_, _, err := r.setupEngine(nil, func(*horse.FlowRecord) {})
	return time.Since(t0).Seconds(), err
}

func (r *runner) iterateEngine(t *tracer, keep *collected) (iterResult, error) {
	w := r.w.eng
	var res iterResult
	res.Digest = digestBasis
	onRecord := func(rec *horse.FlowRecord) {
		res.Records++
		res.Digest = foldRecord(res.Digest, rec)
		if keep != nil {
			keep.add(rec)
		}
	}

	t0 := time.Now()
	eng, offered, err := r.setupEngine(t, onRecord)
	res.SetupS = time.Since(t0).Seconds()
	if err != nil {
		return res, err
	}
	res.Offered = offered

	t1 := time.Now()
	id := t.begin("Engine.Run")
	col, err := eng.Run(context.Background(), w.until)
	t.end(id)
	res.WallS = time.Since(t1).Seconds()
	if err != nil {
		return res, fmt.Errorf("Engine.Run: %w", err)
	}

	if !w.sink {
		flows := col.Flows()
		for i := range flows {
			onRecord(&flows[i])
		}
	}
	res.Events = col.EventsRun
	res.PacketIns = col.PacketIns
	res.FlowMods = col.FlowMods
	switch e := eng.(type) {
	case *horse.PacketSimulator:
		// The packet engine never sets Collector.EventsRun (see README).
		res.Events = e.EventsDispatched()
		res.Hops = e.PacketsForwarded()
		res.ShardLoads = e.ShardLoads()
	case *horse.HybridSimulator:
		res.Hops = e.PacketsForwarded()
	case *horse.Simulator:
		res.Solves = e.Allocator().ComponentSolves + e.Allocator().FullSolves
	}
	return res, nil
}

// horsedSpec is the session every horsed.stream iteration submits.
func horsedSpec(seed int64, scale float64) wire.SessionSpec {
	return wire.SessionSpec{
		Topology: wire.TopoSpec{Kind: wire.TopoLeafSpine, Leaves: 8, Spines: 4, Hosts: 8},
		Workload: wire.WorkloadSpec{Poisson: &wire.PoissonSpec{
			Seed: seed, Lambda: horsedLambda,
			HorizonNs:  int64(math.Max(horsedHorizonSec*scale, 0.005) * float64(horse.Second)),
			Size:       wire.SizeSpec{Kind: wire.SizeFixed, Bits: 1e4},
			CBRRateBps: 2e7,
		}},
		Options: wire.OptionsSpec{
			Fidelity:   wire.FidelityFlow,
			Controller: []wire.AppSpec{{Kind: wire.AppECMP}},
			Miss:       "controller",
		},
	}
}

// horsedInputs materializes the session's topology and trace locally,
// for the offered-flow count and the probes. The daemon never sees them.
func horsedInputs(seed int64, scale float64) (*horse.Topology, horse.Trace, error) {
	spec := horsedSpec(seed, scale)
	topo, err := spec.Topology.Build()
	if err != nil {
		return nil, nil, err
	}
	tr, err := spec.Workload.Trace(topo)
	return topo, tr, err
}

// iterateHorsed runs one closed-loop session: an in-process server on a
// unix socket under workdir, one client, one streamed session. Submit
// builds the engine synchronously inside the daemon (NewFromSpec), which
// is what setup covers for every in-process workload, so it is timed as
// setup here too; wall runs from Submit's return to the Done event.
func (r *runner) iterateHorsed(t *tracer, keep *collected) (res iterResult, err error) {
	spec := horsedSpec(r.seed, r.scale)
	res.Digest = digestBasis
	res.Offered = r.horsedOffered

	t0 := time.Now()
	setup := t.begin("setup")

	r.socks++
	sock := filepath.Join(r.workdir, fmt.Sprintf("horsed-%d-%d.sock", os.Getpid(), r.socks))
	l, err := net.Listen("unix", sock)
	if err != nil {
		return res, fmt.Errorf("listen: %w", err)
	}
	sv := service.NewServer(service.New(service.Config{}), "horse-benchmark")
	served := make(chan error, 1)
	go func() { served <- sv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if serr := sv.Shutdown(ctx); serr != nil && err == nil {
			err = fmt.Errorf("server shutdown: %w", serr)
		}
		if serr := <-served; serr != nil && err == nil {
			err = fmt.Errorf("serve: %w", serr)
		}
		os.Remove(sock) // Shutdown already unlinks it; this covers a failed start
	}()

	conn, err := net.Dial("unix", sock)
	if err != nil {
		return res, fmt.Errorf("dial: %w", err)
	}
	var counted *countingConn
	if t != nil {
		counted = &countingConn{Conn: conn}
		conn = counted
	}
	c, err := wire.NewClient(conn)
	if err != nil {
		conn.Close()
		return res, fmt.Errorf("handshake: %w", err)
	}
	defer c.Close()

	id := t.begin("Client.Submit")
	tSub := time.Now()
	_, stream, err := c.Submit(wire.SubmitParams{Name: r.w.name, Spec: spec, Stream: true})
	res.SubmitMs = float64(time.Since(tSub)) / 1e6
	t.end(id)
	if err != nil {
		return res, fmt.Errorf("submit: %w", err)
	}
	t.end(setup)
	res.SetupS = time.Since(t0).Seconds()

	t1 := time.Now()
	drain := t.begin("Stream.drain")
	recv := int32(-1)
	if t != nil {
		recv = t.nameID("Stream.Recv")
	}
	var done *wire.DoneEvent
	for done == nil {
		var ev wire.Event
		if t != nil {
			id := t.beginID(recv)
			ev, err = stream.Recv()
			t.end(id)
		} else {
			ev, err = stream.Recv()
		}
		if err != nil {
			t.end(drain)
			return res, fmt.Errorf("stream: %w", err)
		}
		switch ev.Kind {
		case wire.EventRecord:
			if res.Records == 0 {
				res.FirstRecordMs = float64(time.Since(tSub)) / 1e6
			}
			rec := ev.Record.FlowRecord()
			res.Records++
			res.Digest = foldRecord(res.Digest, &rec)
			if keep != nil {
				keep.add(&rec)
			}
		case wire.EventProgress:
			if t != nil {
				t.progress = append(t.progress, progressPoint{run: t.run, virtNs: ev.Progress.NowNs, events: ev.Progress.Events, hostNs: t.now()})
			}
		case wire.EventDone:
			done = ev.Done
		}
	}
	t.end(drain)
	res.WallS = time.Since(t1).Seconds()

	res.SessionFailed = done.State != wire.StateDone
	if s := done.Summary; s != nil {
		res.Events = s.Counters.EventsRun
		res.PacketIns = s.Counters.PacketIns
		res.FlowMods = s.Counters.FlowMods
	}
	if counted != nil {
		res.ConnRead, res.ConnWritten = counted.rd.Load(), counted.wr.Load()
	}
	return res, nil
}
