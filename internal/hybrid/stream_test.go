package hybrid

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"horse/internal/controller"
	"horse/internal/dataplane"
	"horse/internal/eventq"
	"horse/internal/eventq/eventqtest"
	"horse/internal/flowsim"
	"horse/internal/simcore"
	"horse/internal/simevent"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/tcpmodel"
	"horse/internal/traffic"
)

// hybridOpts selects the bounded-memory variants: streamed record sink
// and/or trace-reader ingestion, plus the kernel's queue (nil for the
// default wheel) and a bottleneck flap: down and up again at one instant,
// flapAt.
type hybridOpts struct {
	sink   bool
	reader bool
	queue  eventq.Canceler
	flap   bool
}

const flapAt = simtime.Time(10 * simtime.Millisecond)

// runSplit runs the reactive dumbbell scenario at 50% packet fidelity
// with the selected variants and returns the load-order records plus the
// merged counter snapshot.
func runSplit(t *testing.T, opt hybridOpts) ([]stats.FlowRecord, stats.Counters) {
	t.Helper()
	topo, tr := reactiveScenario()
	var hyb *Simulator
	flowsim.OnKernel(simcore.New(simcore.Config{Queue: opt.queue}), func() {
		hyb = New(Config{
			Topology: topo, Miss: dataplane.MissController,
			Controller:     controller.NewChain(&controller.ReactiveMAC{}),
			ControlLatency: simtime.Millisecond,
			TCP:            tcpmodel.Params{RTT: 2200 * simtime.Microsecond, MSS: 1500, InitialWindow: 10},
			PacketLevel:    Fraction(0.5),
		})
	})
	if opt.flap {
		hyb.ScheduleLinkChange(flapAt, 0, false)
		hyb.ScheduleLinkChange(flapAt, 0, true)
	}
	var streamed []stats.FlowRecord
	if opt.sink {
		hyb.SetRecordSink(func(r stats.FlowRecord) { streamed = append(streamed, r) })
	}
	if opt.reader {
		hyb.SetTraceReader(traffic.TraceReader(tr))
	} else {
		hyb.Load(tr)
	}
	col := mustRun(hyb, simtime.Time(simtime.Minute))
	if opt.sink {
		if n := len(col.Flows()); n != 0 {
			t.Fatalf("sink mode retained %d merged records", n)
		}
		return streamed, col.Counters()
	}
	return hyb.Collector().Flows(), col.Counters()
}

// diffCounters compares merged counter snapshots modulo EventsRun, which
// legitimately differs under reader ingestion (each streamed demand costs
// one ingest dispatch on the shared kernel).
func diffCounters(t *testing.T, name string, want, got stats.Counters) {
	t.Helper()
	want.EventsRun, got.EventsRun = 0, 0
	if want != got {
		t.Errorf("%s: counters diverged:\nwant %+v\n got %+v", name, want, got)
	}
}

// TestHybridStreamedMatchesRetained is the hybrid half of the
// bounded-memory equivalence contract: the sink stream must be
// byte-identical to the retained Collector().Flows() order — and the
// trace-reader ingestion path must reproduce the eager Load run — in
// every combination.
func TestHybridStreamedMatchesRetained(t *testing.T) {
	want, wantC := runSplit(t, hybridOpts{})
	if len(want) == 0 {
		t.Fatal("retained run produced no records")
	}
	for _, opt := range []hybridOpts{
		{sink: true},
		{reader: true},
		{sink: true, reader: true},
	} {
		got, gotC := runSplit(t, opt)
		label := fmt.Sprintf("sink=%v reader=%v", opt.sink, opt.reader)
		diffRecords(t, label, want, got)
		diffCounters(t, label, wantC, gotC)
	}
}

// TestQueueImplementationsAgree holds the hybrid to the heap oracle: the
// reactive split run on a heap kernel reproduces the default run's
// records and every counter, EventsRun included. The bottleneck flaps at
// one instant, so the outcome hangs on the FIFO order of tied events. The
// negative control is a heap with that tie-break reversed: it must part
// from the default run, and first at the flap instant, or the oracle
// could pass without seeing tie order at all.
func TestQueueImplementationsAgree(t *testing.T) {
	wheel := dispatchLog(eventq.NewWheel())
	want, wantC := runSplit(t, hybridOpts{flap: true, queue: wheel})
	got, gotC := runSplit(t, hybridOpts{flap: true, queue: eventq.NewHeap()})
	if len(want) == 0 {
		t.Fatal("default run produced no records")
	}
	diffRecords(t, "heap", want, got)
	if wantC != gotC {
		t.Errorf("heap: counters diverged:\nwant %+v\n got %+v", wantC, gotC)
	}
	lifo := dispatchLog(eventqtest.NewLIFOTies())
	if got, _ := runSplit(t, hybridOpts{flap: true, queue: lifo}); reflect.DeepEqual(want, got) {
		t.Fatal("reversed tie-break reproduced the default run's records")
	}
	if at := eventqtest.FirstDivergence(wheel.Lines, lifo.Lines); at != flapAt {
		t.Fatalf("reversed tie-break first parts from the default run at %v, want the flap instant %v", at, flapAt)
	}
}

// diffRecords reports the first record where got departs from want.
func diffRecords(t *testing.T, name string, want, got []stats.FlowRecord) {
	t.Helper()
	if reflect.DeepEqual(want, got) {
		return
	}
	t.Errorf("%s: records diverged (%d vs %d)", name, len(want), len(got))
	for i := range want {
		if i < len(got) && want[i] != got[i] {
			t.Errorf("%s: record %d:\nwant %+v\n got %+v", name, i, want[i], got[i])
			return
		}
	}
}

// TestHybridCancelPartialRecords is the regression for the merged records
// after a canceled Run: the partial bookkeeping must yield a consistent
// load-order record set — never a panic on IDs the maps don't cover —
// identically retained and streamed.
func TestHybridCancelPartialRecords(t *testing.T) {
	run := func(sink bool) ([]stats.FlowRecord, error) {
		topo, tr := reactiveScenario()
		hyb := New(Config{
			Topology: topo, Miss: dataplane.MissController,
			Controller:     controller.NewChain(&controller.ReactiveMAC{}),
			ControlLatency: simtime.Millisecond,
			TCP:            tcpmodel.Params{RTT: 2200 * simtime.Microsecond, MSS: 1500, InitialWindow: 10},
			PacketLevel:    Fraction(0.5),
		})
		var streamed []stats.FlowRecord
		if sink {
			hyb.SetRecordSink(func(r stats.FlowRecord) { streamed = append(streamed, r) })
		}
		hyb.SetTraceReader(traffic.TraceReader(tr))
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		hyb.SetProgress(5*simtime.Millisecond, func(simevent.Progress) {
			if n++; n == 2 {
				cancel()
			}
		})
		_, err := hyb.Run(ctx, simtime.Time(simtime.Minute))
		if sink {
			return streamed, err
		}
		return hyb.Collector().Flows(), err
	}
	retained, err := run(false)
	if err != context.Canceled {
		t.Fatalf("retained run: err = %v, want context.Canceled", err)
	}
	streamed, err := run(true)
	if err != context.Canceled {
		t.Fatalf("streamed run: err = %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(retained, streamed) {
		t.Errorf("canceled runs diverged: retained %d records, streamed %d", len(retained), len(streamed))
	}
	for i := 1; i < len(retained); i++ {
		if retained[i].ID <= retained[i-1].ID {
			t.Errorf("records out of load order at %d: %d after %d", i, retained[i].ID, retained[i-1].ID)
		}
	}
}

// TestHybridMixedLoadAndReader: an eager Load combined with trace-reader
// ingestion. The latest demand is loaded eagerly, so it is trace index 0,
// and the two earlier ones stream in after it; the flow engine still
// numbers them by arrival. Records must carry trace IDs — 1 → the 40 ms
// demand, 2 → 0 ms, 3 → 20 ms — identically retained and streamed.
func TestHybridMixedLoadAndReader(t *testing.T) {
	for _, p := range []float64{0, 0.5, 1} {
		run := func(sink bool) ([]stats.FlowRecord, stats.Counters) {
			topo, tr := reactiveScenario()
			hyb := New(Config{
				Topology: topo, Miss: dataplane.MissController,
				Controller:     controller.NewChain(&controller.ReactiveMAC{}),
				ControlLatency: simtime.Millisecond,
				TCP:            tcpmodel.Params{RTT: 2200 * simtime.Microsecond, MSS: 1500, InitialWindow: 10},
				PacketLevel:    Fraction(p),
			})
			var streamed []stats.FlowRecord
			if sink {
				hyb.SetRecordSink(func(r stats.FlowRecord) { streamed = append(streamed, r) })
			}
			hyb.Load(tr[2:])
			hyb.SetTraceReader(traffic.TraceReader(tr[:2]))
			col := mustRun(hyb, simtime.Time(simtime.Minute))
			if sink {
				return streamed, col.Counters()
			}
			return col.Flows(), col.Counters()
		}
		retained, wantC := run(false)
		streamed, gotC := run(true)
		if !reflect.DeepEqual(retained, streamed) {
			t.Errorf("p=%g: streamed records differ from retained:\nretained %+v\nstreamed %+v", p, retained, streamed)
		}
		if wantC != gotC {
			t.Errorf("p=%g: counters differ:\nretained %+v\nstreamed %+v", p, wantC, gotC)
		}
		wantArrival := []simtime.Duration{40 * simtime.Millisecond, 0, 20 * simtime.Millisecond}
		if len(retained) != len(wantArrival) {
			t.Fatalf("p=%g: %d records, want %d", p, len(retained), len(wantArrival))
		}
		for i, r := range retained {
			if r.ID != int64(i+1) || r.Arrival != simtime.Time(wantArrival[i]) {
				t.Errorf("p=%g: record %d = ID %d arriving %v, want ID %d arriving %v",
					p, i, r.ID, r.Arrival, i+1, wantArrival[i])
			}
		}
	}
}
