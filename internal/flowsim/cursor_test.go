package flowsim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"horse/internal/dataplane"
	"horse/internal/eventq"
	"horse/internal/eventq/eventqtest"
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simcore"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

// dispatchLog returns q logging, for every event it dispatches, the
// engine's own events with the flow they concern, control-plane changes
// with their direction, and eager arrivals, so two runs can be compared
// event for event.
func dispatchLog(q eventq.Canceler) *eventqtest.Log {
	return &eventqtest.Log{Canceler: q, Entry: func(ev eventq.Event) string {
		switch e := ev.(type) {
		case *event:
			if e.flow != nil {
				return fmt.Sprintf("%v flow%d", e, e.flow.ID)
			}
			return fmt.Sprint(e)
		case *Flow:
			return fmt.Sprintf("complete flow%d", e.ID)
		case *ctlEvent:
			return fmt.Sprintf("ctl%d up=%v", e.kind, e.up)
		case *eagerArrival:
			return fmt.Sprint(e)
		}
		return ""
	}}
}

// eagerArrival is the reference ingestion the Load cursor is held to:
// one arrival event per demand, pushed when the demand is loaded.
type eagerArrival struct {
	sim *Simulator
	d   traffic.Demand
	i   int
}

func (e *eagerArrival) Time() simtime.Time { return e.d.Start }
func (e *eagerArrival) OrderKey() uint64   { return ArrivalKey(e.i) }
func (e *eagerArrival) Fire()              { e.sim.Admit(&e.d, e.i) }
func (e *eagerArrival) Release()           {}
func (e *eagerArrival) String() string     { return fmt.Sprintf("arrival %d", e.i) }

// loadEager loads tr the eager way, one eagerArrival per demand.
func loadEager(s *Simulator, tr traffic.Trace) {
	for _, d := range tr {
		s.k.Schedule(&eagerArrival{sim: s, d: d, i: s.Claim(1)})
	}
}

// cancelAfter wraps a controller with a timer that cancels the run.
type cancelAfter struct {
	Controller
	at     simtime.Duration
	cancel func()
}

func (c *cancelAfter) Start(ctx *Context) {
	c.Controller.Start(ctx)
	ctx.After(c.at, c.cancel)
}

// cursorArm is what one way of feeding a workload produced.
type cursorArm struct {
	records []stats.FlowRecord
	events  uint64
	log     []string
}

// runCursorArm runs feed's workload under a reactive controller on a
// recording kernel until `until`, cancelling the run from a controller
// timer at cancelAt when it is positive.
func runCursorArm(topo *netgraph.Topology, until simtime.Time, cancelAt simtime.Duration, feed func(*Simulator)) cursorArm {
	q := dispatchLog(eventq.NewWheel())
	k := simcore.New(simcore.Config{Queue: q})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ctrl Controller = reactivePath{}
	if cancelAt > 0 {
		ctrl = &cancelAfter{ctrl, cancelAt, cancel}
	}
	var sim *Simulator
	OnKernel(k, func() { sim = New(Config{Topology: topo, Miss: dataplane.MissController, Controller: ctrl}) })
	feed(sim)
	col, _ := sim.Run(ctx, until)
	return cursorArm{records: col.Flows(), events: col.EventsRun, log: q.Lines}
}

// tiedTrace is a Poisson workload with starts rounded to 5 ms, so dozens
// of arrivals share each instant with each other and with the control
// plane's events.
func tiedTrace(topo *netgraph.Topology, seed int64, sport uint16) traffic.Trace {
	tr := traffic.NewGenerator(seed).PoissonArrivals(traffic.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 2000, Horizon: 200 * simtime.Millisecond,
		Sizes: traffic.FixedSize(2e5), TCPFraction: 0.5, CBRRateBps: 2e7,
	})
	const q = 5 * simtime.Millisecond
	for i := range tr {
		tr[i].Start = tr[i].Start / simtime.Time(q) * simtime.Time(q)
		tr[i].Key.SrcPort += sport
	}
	return tr
}

// TestLoadCursorMatchesInject holds Load's one-arrival-at-a-time cursor to
// the eager reference — one arrival event per demand pushed at Load time
// (loadEager) — on records, EventsRun and the exact dispatch sequence,
// including runs that stop early.
func TestLoadCursorMatchesInject(t *testing.T) {
	topo := netgraph.LeafSpine(3, 2, 3, netgraph.Gig, netgraph.TenGig)
	a, b, c := tiedTrace(topo, 1, 0), tiedTrace(topo, 2, 1000), tiedTrace(topo, 3, 2000)
	shuffled := append(traffic.Trace(nil), a...)
	rand.New(rand.NewSource(4)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	inject := loadEager
	cases := []struct {
		name     string
		until    simtime.Time
		cancelAt simtime.Duration
		cursor   func(*Simulator)
		eager    func(*Simulator)
	}{
		{
			name:   "sorted",
			until:  simtime.Never,
			cursor: func(s *Simulator) { s.Load(a) },
			eager:  func(s *Simulator) { inject(s, a) },
		},
		{
			name:   "unsorted",
			until:  simtime.Never,
			cursor: func(s *Simulator) { s.Load(shuffled) },
			eager:  func(s *Simulator) { inject(s, shuffled) },
		},
		{
			name:   "two-loads-interleaved",
			until:  simtime.Never,
			cursor: func(s *Simulator) { s.Load(a); s.Load(b) },
			eager:  func(s *Simulator) { inject(s, a); inject(s, b) },
		},
		{
			name:  "load-reader-inject",
			until: simtime.Never,
			cursor: func(s *Simulator) {
				s.Load(a)
				s.SetTraceReader(traffic.TraceReader(b))
				inject(s, c)
			},
			eager: func(s *Simulator) {
				inject(s, a)
				s.SetTraceReader(traffic.TraceReader(b))
				inject(s, c)
			},
		},
		{
			name:   "until-mid-trace",
			until:  simtime.Time(97 * simtime.Millisecond),
			cursor: func(s *Simulator) { s.Load(a); s.Load(b) },
			eager:  func(s *Simulator) { inject(s, a); inject(s, b) },
		},
		{
			name:     "cancel-mid-run",
			until:    simtime.Never,
			cancelAt: 60 * simtime.Millisecond,
			cursor:   func(s *Simulator) { s.Load(shuffled); s.Load(b) },
			eager:    func(s *Simulator) { inject(s, shuffled); inject(s, b) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runCursorArm(topo, tc.until, tc.cancelAt, tc.cursor)
			want := runCursorArm(topo, tc.until, tc.cancelAt, tc.eager)
			if len(want.records) == 0 || want.events == 0 {
				t.Fatal("reference run did nothing")
			}
			for i := range min(len(got.log), len(want.log)) {
				if got.log[i] != want.log[i] {
					t.Fatalf("dispatch %d: cursor %q, eager %q", i, got.log[i], want.log[i])
				}
			}
			if len(got.log) != len(want.log) {
				t.Fatalf("cursor dispatched %d events, eager %d", len(got.log), len(want.log))
			}
			if got.events != want.events {
				t.Fatalf("EventsRun: cursor %d, eager %d", got.events, want.events)
			}
			if !reflect.DeepEqual(got.records, want.records) {
				t.Fatalf("records differ: cursor %d, eager %d", len(got.records), len(want.records))
			}
		})
	}
}

// TestFinalizeRecyclesSlots: finalized flows give their slot (and Flow,
// with its buffers) to later arrivals, so a streamed run's slot table is
// as large as the most flows live at once, not the flow count — and the
// records match a retained run of the same trace.
func TestFinalizeRecyclesSlots(t *testing.T) {
	topo := netgraph.Star(4, netgraph.Gig)
	hosts := topo.Hosts()
	var tr traffic.Trace
	for i := 0; i < 2000; i++ {
		// After the proactive rules land, a new flow every 20 µs; each
		// moves 1e4 bits at 1 Gbps, in 10 µs.
		start := simtime.Time(10*simtime.Millisecond) + simtime.Time(i)*simtime.Time(20*simtime.Microsecond)
		tr = append(tr, cbr(hosts[i%4], hosts[(i+1)%4], start, 1e4, 1e9))
	}
	retained := New(Config{Topology: topo, Controller: proactiveMAC{}, Miss: dataplane.MissController})
	retained.Load(tr)
	want := mustRun(retained, simtime.Never).Flows()

	var got []stats.FlowRecord
	sim := New(Config{Topology: topo, Controller: proactiveMAC{}, Miss: dataplane.MissController})
	sim.SetRecordSink(func(r stats.FlowRecord) { got = append(got, r) })
	sim.SetTraceReader(traffic.TraceReader(tr))
	mustRun(sim, simtime.Never)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed records differ from retained: %d vs %d", len(got), len(want))
	}
	if n := len(sim.flows); n > 4 {
		t.Fatalf("slot table holds %d slots for %d flows that never overlap", n, len(tr))
	}
	if len(sim.free) != len(sim.flows) {
		t.Fatalf("%d of %d slots free after the run", len(sim.free), len(sim.flows))
	}
}

// TestDirtyFlowKeepsSlotUntilBatch: a flow finalized while it waits in
// the re-resolve batch keeps its slot until the batch runs, which
// releases it exactly once for the next arrival to reuse.
func TestDirtyFlowKeepsSlotUntilBatch(t *testing.T) {
	topo := netgraph.Dumbbell(1, 1, netgraph.Gig, netgraph.TenGig)
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	sim := New(Config{Topology: topo, Controller: reactivePath{}, Miss: dataplane.MissController})
	// The first flow punts at 0; the controller's rules land at 2 ms and
	// mark it dirty, and its 2 ms deadline ends it at that same instant,
	// before the batch (a later class) resolves it.
	d := cbr(h0, r0, 0, 1e9, 1e7)
	d.Duration = 2 * simtime.Millisecond
	sim.Load(traffic.Trace{d, cbr(h0, r0, simtime.Time(5*simtime.Millisecond), 1e5, 1e8)})
	col := mustRun(sim, simtime.Never)
	recs := col.Flows()
	if len(recs) != 2 || recs[0].Outcome != "expired-waiting" || !recs[1].Completed {
		t.Fatalf("records = %+v", recs)
	}
	if len(sim.flows) != 1 || len(sim.free) != 1 {
		t.Fatalf("%d slots, %d free: want the second flow in the first one's slot", len(sim.flows), len(sim.free))
	}
}

// TestReparkedFlowStaysListed pins the waiting index's membership rule: a
// flow that punts at one switch and, once that switch's rule lands, punts
// again further on is re-parked without leaving the first switch's
// waiting list, so a later change there re-resolves it too; finishing
// takes it off every list.
func TestReparkedFlowStaysListed(t *testing.T) {
	topo := netgraph.Dumbbell(1, 1, netgraph.Gig, netgraph.TenGig)
	h0, r0 := topo.MustLookup("h0"), topo.MustLookup("r0")
	sl, sr := topo.MustLookup("sL"), topo.MustLookup("sR")
	var sim *Simulator
	listed := func(sw netgraph.NodeID) bool {
		for _, r := range sim.waiting[sw] {
			if sim.flows[r.slot].ID == 1 {
				return true
			}
		}
		return false
	}
	checked := false
	ctrl := &funcController{
		start: func(ctx *Context) {
			ctx.After(10*simtime.Millisecond, func() {
				checked = true
				if !listed(sl) || !listed(sr) {
					t.Errorf("waiting at sR: listed at sL %v, sR %v; want both", listed(sl), listed(sr))
				}
			})
		},
		// Rules only ever reach sL, so the flow moves on to wait at sR.
		handle: func(ctx *Context, msg openflow.Message) {
			if pin, ok := msg.(*openflow.PacketIn); ok && pin.Switch == sl {
				ctx.Send(&openflow.FlowMod{
					Switch: sl, Op: openflow.FlowAdd, Priority: 10,
					Match: header.Match{}.WithEthDst(pin.Key.EthDst),
					Instr: openflow.Apply(openflow.Output(topo.PortToward(sl, sr))),
				})
			}
		},
	}
	sim = New(Config{Topology: topo, Controller: ctrl, Miss: dataplane.MissController})
	d := cbr(h0, r0, 0, 1e9, 1e7)
	d.Duration = 20 * simtime.Millisecond
	sim.Load(traffic.Trace{d})
	col := mustRun(sim, simtime.Never)
	if !checked || col.Flows()[0].Outcome != "expired-waiting" {
		t.Fatalf("checked %v, records %+v", checked, col.Flows())
	}
	if listed(sl) || listed(sr) {
		t.Fatal("finished flow still listed as waiting")
	}
}
