package hybrid

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
	"horse/internal/packetsim"
	"horse/internal/simcore"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

// dispatchLog returns q logging every event it dispatches — the admitted
// demand's load index for an arrival, the event's type otherwise — so two
// runs can be compared event for event.
func dispatchLog(q eventq.Canceler) *eventqtest.Log {
	return &eventqtest.Log{Canceler: q, Entry: func(ev eventq.Event) string {
		entry := fmt.Sprintf("%T", ev)
		if s, ok := ev.(fmt.Stringer); ok { // an arrival, the cursor's or the eager reference's
			entry = s.String()
		}
		// A control-plane change logs its direction: a link down and up
		// at one instant then tell which fired first.
		if up := reflect.ValueOf(ev).Elem().FieldByName("up"); up.IsValid() {
			entry += fmt.Sprintf(" up=%v", up.Bool())
		}
		return entry
	}}
}

// eagerAdmit is the reference ingestion the Load cursor is held to: one
// event per demand, pushed at Load, at the demand's start under the order
// key of its first event in the engine it is routed to, which admits it
// there when it fires.
type eagerAdmit struct {
	s     *Simulator
	d     traffic.Demand
	i     int
	dense int32
}

func (e *eagerAdmit) Time() simtime.Time { return e.d.Start }
func (e *eagerAdmit) Release()           {}
func (e *eagerAdmit) String() string     { return fmt.Sprintf("arrival %d", e.i) }

func (e *eagerAdmit) OrderKey() uint64 {
	if e.dense >= 0 {
		return packetsim.FirstSendKey(int(e.dense))
	}
	return flowsim.ArrivalKey(e.i)
}

func (e *eagerAdmit) Fire() {
	if e.dense >= 0 {
		e.s.pkt.Admit(&e.d, e.i, e.dense)
	} else {
		e.s.flow.Admit(&e.d, e.i)
	}
}

// loadEager loads tr the eager way, one eagerAdmit per demand.
func loadEager(s *Simulator, tr traffic.Trace) {
	for _, d := range tr {
		i := s.Claim(1)
		s.Kernel().Schedule(&eagerAdmit{s: s, d: d, i: i, dense: s.route(i, &d)})
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

// runCursorArm runs feed's workload at packet share p under a reactive
// controller on a recording kernel until `until`, cancelling the run from
// a controller timer at cancelAt when it is positive.
func runCursorArm(topo *netgraph.Topology, p float64, until simtime.Time, cancelAt simtime.Duration, feed func(*Simulator)) cursorArm {
	q := dispatchLog(eventq.NewWheel())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ctrl flowsim.Controller = controller.NewChain(&controller.ReactiveMAC{})
	if cancelAt > 0 {
		ctrl = &cancelAfter{ctrl, cancelAt, cancel}
	}
	var s *Simulator
	flowsim.OnKernel(simcore.New(simcore.Config{Queue: q}), func() {
		s = New(Config{Topology: topo, Controller: ctrl, Miss: dataplane.MissController, PacketLevel: Fraction(p)})
	})
	feed(s)
	col, _ := s.Run(ctx, until)
	return cursorArm{records: col.Flows(), events: col.EventsRun, log: q.Lines}
}

// diffArms fails t unless the cursor arm dispatched exactly the eager
// arm's events and reported its records.
func diffArms(t *testing.T, got, want cursorArm) {
	t.Helper()
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
}

// tiedTrace is a Poisson workload with starts rounded to 5 ms, so several
// arrivals share each instant with each other — flow- and packet-level
// ones alike — and with the control plane's events.
func tiedTrace(topo *netgraph.Topology, seed int64, sport uint16) traffic.Trace {
	tr := traffic.NewGenerator(seed).PoissonArrivals(traffic.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 600, Horizon: 100 * simtime.Millisecond,
		Sizes: traffic.FixedSize(1e5), TCPFraction: 0.5, CBRRateBps: 2e7,
	})
	const q = 5 * simtime.Millisecond
	for i := range tr {
		tr[i].Start = tr[i].Start / simtime.Time(q) * simtime.Time(q)
		tr[i].Key.SrcPort += sport
	}
	return tr
}

// TestLoadCursorMatchesEager holds the hybrid's Load cursor — one demand
// queued at a time, walked in (Start, engine, index) order under seqs
// reserved at Load — to the eager reference, one first event per demand
// pushed at Load (loadEager), on records, EventsRun and the exact
// dispatch sequence, including runs that stop early.
func TestLoadCursorMatchesEager(t *testing.T) {
	topo := netgraph.LeafSpine(3, 2, 3, netgraph.Gig, netgraph.TenGig)
	a, b, c := tiedTrace(topo, 1, 0), tiedTrace(topo, 2, 1000), tiedTrace(topo, 3, 2000)
	shuffled := slices.Clone(a)
	rand.New(rand.NewSource(4)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	// Every demand at one of two instants, each packet-level one (odd
	// indices, by Fraction(0.5)) loaded just ahead of a flow-level one it
	// ties with: (1, 2) at 20 ms, (3, 4) at 0, …
	tied := slices.Clone(b)
	for i := range tied {
		tied[i].Start = simtime.Time((i+1)/2%2) * simtime.Time(20*simtime.Millisecond)
	}
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
			name:   "engines-tied",
			until:  simtime.Never,
			cursor: func(s *Simulator) { s.Load(tied) },
			eager:  func(s *Simulator) { loadEager(s, tied) },
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
			got := runCursorArm(topo, 0.5, tc.until, tc.cancelAt, tc.cursor)
			want := runCursorArm(topo, 0.5, tc.until, tc.cancelAt, tc.eager)
			if len(want.records) == 0 || want.events == 0 {
				t.Fatal("reference run did nothing")
			}
			diffArms(t, got, want)
		})
	}
}

// FuzzLoadCursor holds the hybrid's Load cursor to the eager reference on
// records, EventsRun and the dispatch sequence over random small traces
// whose starts sit on a coarse grid, so demands of both engines tie,
// loaded in random order, at a packet share of 0, 1, or one drawn at
// random.
func FuzzLoadCursor(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(0), uint8(4))
	f.Add(int64(2), uint8(30), uint8(1), uint8(2))
	f.Add(int64(3), uint8(20), uint8(2), uint8(1))
	f.Add(int64(4), uint8(40), uint8(2), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, demands, share, slots uint8) {
		topo := netgraph.LeafSpine(2, 2, 2, netgraph.Gig, netgraph.TenGig)
		rng := rand.New(rand.NewSource(seed))
		p := []float64{0, 1, rng.Float64()}[share%3]
		tr := tiedTrace(topo, seed, 0)
		if n := 1 + int(demands)%len(tr); n < len(tr) {
			tr = tr[:n]
		}
		grid := 1 + int(slots%8)
		for i := range tr {
			tr[i].Start = simtime.Time(rng.Intn(grid)) * simtime.Time(3*simtime.Millisecond)
		}
		t.Logf("packet share %.2f, %d demands", p, len(tr))
		diffArms(t, runCursorArm(topo, p, simtime.Never, 0, func(s *Simulator) { s.Load(tr) }),
			runCursorArm(topo, p, simtime.Never, 0, func(s *Simulator) { loadEager(s, tr) }))
	})
}

// TestLoadAllocsConstant: Load holds no per-demand state but its route
// and walk order, so it allocates as often for 10,000 sorted demands as
// for 10.
func TestLoadAllocsConstant(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("allocation counts are instrumented under -cover")
	}
	topo := netgraph.LeafSpine(8, 4, 8, netgraph.Gig, netgraph.TenGig)
	gen := traffic.NewGenerator(1)
	trace := func(n int) traffic.Trace {
		return gen.PoissonArrivals(traffic.PoissonConfig{
			Hosts: topo.Hosts(), Lambda: 4000, Horizon: simtime.Duration(n) * simtime.Second / 4000,
			Sizes: traffic.FixedSize(5e5), TCPFraction: 0.5, CBRRateBps: 2e7,
		})
	}
	allocs := func(tr traffic.Trace) float64 {
		const runs = 5
		sims := make([]*Simulator, runs+1)
		for i := range sims {
			sims[i] = New(Config{Topology: topo, PacketLevel: Fraction(0.25)})
		}
		n := 0
		return testing.AllocsPerRun(runs, func() {
			sims[n].Load(tr)
			n++
		})
	}
	small, large := trace(10), trace(10_000)
	if len(small) > 40 || len(large) < 5_000 || !small.Sorted() || !large.Sorted() {
		t.Fatalf("fixtures: %d and %d demands", len(small), len(large))
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Errorf("Load allocates %.0f times for %d demands, %.0f for %d", a, len(small), b, len(large))
	}
}

// TestRetainedRecordsSizedOnce: a retained run sizes its record slice at
// Run, one slot per Loaded demand that starts by the bound, so a trace
// that ends before the bound leaves it exactly full.
func TestRetainedRecordsSizedOnce(t *testing.T) {
	topo := netgraph.LeafSpine(3, 2, 3, netgraph.Gig, netgraph.TenGig)
	hyb := New(Config{
		Topology: topo, Controller: controller.NewChain(&controller.ReactiveMAC{}),
		Miss: dataplane.MissController, PacketLevel: Fraction(0.25),
	})
	hyb.Load(tiedTrace(topo, 1, 0))
	col := mustRun(hyb, simtime.Time(simtime.Minute))
	if recs := col.Flows(); len(recs) == 0 || cap(recs) != len(recs) {
		t.Fatalf("%d records in a slice of capacity %d", len(recs), cap(recs))
	}
}
