package packetsim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"horse/internal/controller"
	"horse/internal/dataplane"
	"horse/internal/eventq"
	"horse/internal/eventq/eventqtest"
	"horse/internal/flowsim"
	"horse/internal/netgraph"
	"horse/internal/simcore"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

// dispatchLog returns q logging every event it dispatches — the admitted
// demand's load index for a first send, the event's kind or type
// otherwise — so two runs can be compared event for event.
func dispatchLog(q eventq.Canceler) *eventqtest.Log {
	return &eventqtest.Log{Canceler: q, Entry: func(ev eventq.Event) string {
		switch e := ev.(type) {
		case *event:
			return fmt.Sprintf("kind%d", e.kind)
		case fmt.Stringer: // a first send, the cursor's or the eager reference's
			return e.String()
		}
		return fmt.Sprintf("%T", ev)
	}}
}

// eagerSend is the reference ingestion the Load cursor is held to: one
// first-send event per demand, pushed at Load, which admits the demand
// when it fires.
type eagerSend struct {
	s *Simulator
	d traffic.Demand
	i int
}

func (e *eagerSend) Time() simtime.Time { return e.d.Start }
func (e *eagerSend) OrderKey() uint64   { return FirstSendKey(e.i) }
func (e *eagerSend) Fire()              { e.s.Admit(&e.d, e.i, int32(e.i)) }
func (e *eagerSend) Release()           {}
func (e *eagerSend) String() string     { return fmt.Sprintf("arrival %d", e.i) }

// loadEager loads tr the eager way, one eagerSend per demand.
func loadEager(s *Simulator, tr traffic.Trace) {
	for _, d := range tr {
		s.k.Schedule(&eagerSend{s: s, d: d, i: s.Claim(1)})
	}
}

// cancelAfter wraps a controller with a timer that cancels the run.
type cancelAfter struct {
	flowsim.Controller
	at     simtime.Duration
	cancel func()
}

func (c *cancelAfter) Start(ctx *flowsim.Context) {
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
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ctrl flowsim.Controller = controller.NewChain(&controller.ReactiveMAC{})
	if cancelAt > 0 {
		ctrl = &cancelAfter{ctrl, cancelAt, cancel}
	}
	s := onKernel(simcore.New(simcore.Config{Queue: q}), Config{Topology: topo, Miss: dataplane.MissController, Controller: ctrl})
	feed(s)
	s.Run(ctx, until)
	col := s.Collector()
	return cursorArm{records: col.Flows(), events: col.EventsRun, log: q.Lines}
}

// tiedTrace is a Poisson workload with starts rounded to 5 ms, so several
// first sends share each instant with each other and with the control
// plane's events.
func tiedTrace(topo *netgraph.Topology, seed int64, sport uint16) traffic.Trace {
	tr := traffic.NewGenerator(seed).PoissonArrivals(traffic.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 400, Horizon: 100 * simtime.Millisecond,
		Sizes: traffic.FixedSize(1e5), TCPFraction: 0.5, CBRRateBps: 2e7,
	})
	const q = 5 * simtime.Millisecond
	for i := range tr {
		tr[i].Start = tr[i].Start / simtime.Time(q) * simtime.Time(q)
		tr[i].Key.SrcPort += sport
	}
	return tr
}

// TestLoadCursorMatchesEager holds Load's one-demand-at-a-time cursor,
// whose event is the flow's first send, to the eager reference — one
// first send per demand pushed at Load (loadEager) — on records,
// EventsRun and the exact dispatch sequence, including runs that stop
// early.
func TestLoadCursorMatchesEager(t *testing.T) {
	topo := netgraph.LeafSpine(3, 2, 3, netgraph.Gig, netgraph.TenGig)
	a, b, c := tiedTrace(topo, 1, 0), tiedTrace(topo, 2, 1000), tiedTrace(topo, 3, 2000)
	shuffled := slices.Clone(a)
	rand.New(rand.NewSource(4)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
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
			eager:  func(s *Simulator) { loadEager(s, a) },
		},
		{
			name:   "unsorted",
			until:  simtime.Never,
			cursor: func(s *Simulator) { s.Load(shuffled) },
			eager:  func(s *Simulator) { loadEager(s, shuffled) },
		},
		{
			name:   "two-loads-interleaved",
			until:  simtime.Never,
			cursor: func(s *Simulator) { s.Load(a); s.Load(b) },
			eager:  func(s *Simulator) { loadEager(s, a); loadEager(s, b) },
		},
		{
			name:  "load-reader",
			until: simtime.Never,
			cursor: func(s *Simulator) {
				s.Load(a)
				s.SetTraceReader(traffic.TraceReader(c))
			},
			eager: func(s *Simulator) {
				loadEager(s, a)
				s.SetTraceReader(traffic.TraceReader(c))
			},
		},
		{
			name:   "until-mid-trace",
			until:  simtime.Time(47 * simtime.Millisecond),
			cursor: func(s *Simulator) { s.Load(a); s.Load(b) },
			eager:  func(s *Simulator) { loadEager(s, a); loadEager(s, b) },
		},
		{
			name:     "cancel-mid-run",
			until:    simtime.Never,
			cancelAt: 30 * simtime.Millisecond,
			cursor:   func(s *Simulator) { s.Load(shuffled); s.Load(b) },
			eager:    func(s *Simulator) { loadEager(s, shuffled); loadEager(s, b) },
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
