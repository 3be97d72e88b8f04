package service_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"horse"
	"horse/api/wire"
	"horse/internal/service"
	"horse/internal/simtime"
)

// flowSpec is a small deterministic flow-engine session: two explicit
// demands on a leaf-spine fabric under a link flap.
func flowSpec() *wire.SessionSpec {
	return &wire.SessionSpec{
		Topology: wire.TopoSpec{Kind: wire.TopoLeafSpine, Leaves: 2, Spines: 2, Hosts: 2},
		Workload: wire.WorkloadSpec{Demands: []wire.DemandSpec{
			{Src: "h0", Dst: "h3", SizeBits: 8e5, RateBps: wire.Float(math.Inf(1)), TCP: true},
			{Src: "h1", Dst: "h2", StartNs: 1e6, SizeBits: 8e5, RateBps: 1e8},
		}},
		Scenario: []wire.EventSpec{
			{AtNs: 2e6, Kind: wire.EventLinkDown, LinkA: "leaf0", LinkB: "spine0"},
			{AtNs: 5e6, Kind: wire.EventLinkUp, LinkA: "leaf0", LinkB: "spine0"},
		},
		Options: wire.OptionsSpec{
			Controller: []wire.AppSpec{{Kind: wire.AppProactiveMAC}},
			Miss:       "controller",
		},
		UntilNs: int64(10 * simtime.Second),
	}
}

// busySpec is a session with thousands of events, so it reliably spans
// many progress periods (the backpressure tests park it mid-run).
func busySpec() *wire.SessionSpec {
	return &wire.SessionSpec{
		Topology: wire.TopoSpec{Kind: wire.TopoLeafSpine, Leaves: 2, Spines: 2, Hosts: 4},
		Workload: wire.WorkloadSpec{Poisson: &wire.PoissonSpec{
			Seed: 11, Lambda: 2000, HorizonNs: int64(5 * simtime.Second),
			Size: wire.SizeSpec{Kind: wire.SizeFixed, Bits: 1e5}, TCPFraction: 0.5,
		}},
		Options: wire.OptionsSpec{
			Controller: []wire.AppSpec{{Kind: wire.AppProactiveMAC}},
			Miss:       "controller",
		},
		UntilNs: int64(30 * simtime.Second),
	}
}

// drainSession consumes sub until the given session's Done push,
// returning its records (in arrival order) and the Done event. Pushes of
// other sessions are ignored.
func drainSession(t *testing.T, sub *service.Subscriber, session string) ([]wire.Record, wire.DoneEvent) {
	t.Helper()
	var recs []wire.Record
	timeout := time.After(60 * time.Second)
	for {
		select {
		case p := <-sub.C():
			if p.Session != session {
				continue
			}
			switch p.Event {
			case wire.EventRecord:
				recs = append(recs, p.Record)
			case wire.EventDone:
				return recs, *p.Done
			}
		case <-timeout:
			t.Fatalf("session %s: no Done push within 60s", session)
		}
	}
}

// oneShotRecords runs the spec in-process and returns its records in
// wire encoding — the parity baseline for daemon-run sessions.
func oneShotRecords(t *testing.T, spec *wire.SessionSpec) []wire.Record {
	t.Helper()
	eng, until, err := horse.NewFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	col, err := eng.Run(context.Background(), until)
	if err != nil {
		t.Fatal(err)
	}
	flows := col.Flows()
	recs := make([]wire.Record, len(flows))
	for i, r := range flows {
		recs[i] = wire.FromRecord(r)
	}
	return recs
}

func assertRecordsEqual(t *testing.T, label string, got, want []wire.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d differs:\n got  %+v\n want %+v", label, i, got[i], want[i])
		}
	}
}

func TestSessionLifecycle(t *testing.T) {
	mgr := service.New(service.Config{})
	sub := service.NewSubscriber(4096)
	defer sub.Close()

	st, err := mgr.Submit(flowSpec(), "lifecycle", true, sub)
	if err != nil {
		t.Fatal(err)
	}
	if st.Session == "" || st.Name != "lifecycle" || !st.Stream {
		t.Fatalf("submit status %+v", st)
	}
	recs, done := drainSession(t, sub, st.Session)
	if done.State != wire.StateDone {
		t.Fatalf("done state %q (%s)", done.State, done.Error)
	}
	if done.Summary == nil || done.Summary.Records != len(recs) {
		t.Fatalf("summary %+v, streamed %d records", done.Summary, len(recs))
	}
	if done.Summary.Counters.FlowsCompleted != 2 {
		t.Fatalf("counters %+v", done.Summary.Counters)
	}

	final, err := mgr.Status(st.Session)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != wire.StateDone || final.Summary == nil {
		t.Fatalf("final status %+v", final)
	}
	if got := mgr.List(); len(got) != 1 || got[0].Session != st.Session {
		t.Fatalf("list %+v", got)
	}

	if _, err := mgr.Retire(st.Session); err != nil {
		t.Fatal(err)
	}
	var nf *service.NotFoundError
	if _, err := mgr.Status(st.Session); !errors.As(err, &nf) {
		t.Fatalf("status after retire: %v, want *NotFoundError", err)
	}
	if got := mgr.List(); len(got) != 0 {
		t.Fatalf("list after retire %+v", got)
	}
}

func TestStreamedRecordsMatchOneShot(t *testing.T) {
	mgr := service.New(service.Config{})
	sub := service.NewSubscriber(4096)
	defer sub.Close()

	st, err := mgr.Submit(flowSpec(), "", true, sub)
	if err != nil {
		t.Fatal(err)
	}
	recs, done := drainSession(t, sub, st.Session)
	if done.State != wire.StateDone {
		t.Fatalf("done %+v", done)
	}
	assertRecordsEqual(t, "streamed", recs, oneShotRecords(t, flowSpec()))
	// Streamed sessions retain nothing server-side: the summary skips the
	// FCT distribution (the client has every record to compute it from).
	if done.Summary.FCT != nil {
		t.Fatalf("streamed session retained an FCT distribution: %+v", done.Summary.FCT)
	}
}

func TestRetainedReplayMatchesOneShot(t *testing.T) {
	mgr := service.New(service.Config{})
	sub := service.NewSubscriber(4096)
	defer sub.Close()

	// Non-streamed: the subscriber still receives the replay at finalize.
	st, err := mgr.Submit(flowSpec(), "", false, sub)
	if err != nil {
		t.Fatal(err)
	}
	recs, done := drainSession(t, sub, st.Session)
	if done.State != wire.StateDone {
		t.Fatalf("done %+v", done)
	}
	assertRecordsEqual(t, "replayed", recs, oneShotRecords(t, flowSpec()))
	if done.Summary.FCT == nil || done.Summary.FCT.N == 0 {
		t.Fatalf("retained session lost its FCT distribution: %+v", done.Summary)
	}

	// A late Watch replays the retained records again.
	late := service.NewSubscriber(4096)
	defer late.Close()
	if _, err := mgr.Watch(st.Session, late); err != nil {
		t.Fatal(err)
	}
	recs2, done2 := drainSession(t, late, st.Session)
	assertRecordsEqual(t, "late watch", recs2, recs)
	if done2.State != wire.StateDone {
		t.Fatalf("late done %+v", done2)
	}
}

// parkedSession submits a busy streaming session against a tiny
// subscriber buffer and waits until the session is parked publishing
// into it: the first progress push fills the buffer, the second blocks
// the simulation goroutine. Deterministic mid-run state for the
// admission and cancellation tests.
func parkedSession(t *testing.T, mgr *service.Manager) (wire.SessionStatus, *service.Subscriber) {
	t.Helper()
	spec := busySpec()
	sub := service.NewSubscriber(1)
	st, err := mgr.Submit(spec, "parked", true, sub)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, err := mgr.Status(st.Session)
		if err != nil {
			t.Fatal(err)
		}
		if cur.NowNs > 0 {
			return cur, sub
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s made no progress within 60s", st.Session)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionBudgetFIFO: the worker budget, not the session limit,
// holds a session back — every session costs one worker, whatever shard
// fields its spec carries — and the queued session runs once the budget
// frees.
func TestAdmissionBudgetFIFO(t *testing.T) {
	mgr := service.New(service.Config{
		MaxSessions:   2,
		MaxWorkers:    1,
		ProgressEvery: simtime.Millisecond,
	})

	// A costs the whole budget and parks mid-run.
	a, subA := parkedSession(t, mgr)
	defer subA.Close()
	if a.State != wire.StateRunning || a.Workers != 1 {
		t.Fatalf("session A %+v", a)
	}

	// B fits the session limit but not the worker budget: queued. Its
	// ignored shard fields do not change its cost.
	subB := service.NewSubscriber(4096)
	defer subB.Close()
	spec := flowSpec()
	spec.Options.Shards = 4
	b, err := mgr.Submit(spec, "", true, subB)
	if err != nil {
		t.Fatal(err)
	}
	if b.State != wire.StateQueued || b.Workers != 1 {
		t.Fatalf("session B %+v, want queued at cost 1 (budget exhausted)", b)
	}

	// Draining A's subscriber unparks it; on completion B runs.
	_, doneA := drainSession(t, subA, a.Session)
	if doneA.State != wire.StateDone {
		t.Fatalf("A finished %q (%s)", doneA.State, doneA.Error)
	}
	recsB, doneB := drainSession(t, subB, b.Session)
	if doneB.State != wire.StateDone {
		t.Fatalf("B finished %q (%s)", doneB.State, doneB.Error)
	}
	assertRecordsEqual(t, "B after queueing", recsB, oneShotRecords(t, flowSpec()))
}

func TestQueueFull(t *testing.T) {
	mgr := service.New(service.Config{
		MaxSessions:   1,
		MaxWorkers:    1,
		QueueLimit:    1,
		ProgressEvery: simtime.Millisecond,
	})
	a, subA := parkedSession(t, mgr)
	defer subA.Close()

	if _, err := mgr.Submit(flowSpec(), "", false, nil); err != nil {
		t.Fatalf("first queued submit: %v", err)
	}
	var qf *service.QueueFullError
	if _, err := mgr.Submit(flowSpec(), "", false, nil); !errors.As(err, &qf) {
		t.Fatalf("over-queue submit: %v, want *QueueFullError", err)
	}
	mgr.Cancel(a.Session)
	drainSession(t, subA, a.Session)
}

func TestCancelQueued(t *testing.T) {
	mgr := service.New(service.Config{
		MaxSessions:   1,
		MaxWorkers:    1,
		ProgressEvery: simtime.Millisecond,
	})
	a, subA := parkedSession(t, mgr)
	defer subA.Close()

	subB := service.NewSubscriber(64)
	defer subB.Close()
	b, err := mgr.Submit(flowSpec(), "", false, subB)
	if err != nil {
		t.Fatal(err)
	}
	if b.State != wire.StateQueued {
		t.Fatalf("B %+v, want queued", b)
	}
	st, err := mgr.Cancel(b.Session)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != wire.StateCanceled {
		t.Fatalf("canceled queued session reports %q", st.State)
	}
	recs, done := drainSession(t, subB, b.Session)
	if done.State != wire.StateCanceled || len(recs) != 0 || done.Summary != nil {
		t.Fatalf("queued cancel: %d records, done %+v", len(recs), done)
	}
	mgr.Cancel(a.Session)
	drainSession(t, subA, a.Session)
}

func TestCancelRunningPartialResults(t *testing.T) {
	mgr := service.New(service.Config{ProgressEvery: simtime.Millisecond})
	a, subA := parkedSession(t, mgr)
	defer subA.Close()

	if _, err := mgr.Cancel(a.Session); err != nil {
		t.Fatal(err)
	}
	recs, done := drainSession(t, subA, a.Session)
	if done.State != wire.StateCanceled {
		t.Fatalf("done %+v, want canceled", done)
	}
	// Partial but consistent: the summary reflects exactly the streamed
	// records and the counters at the stop instant.
	if done.Summary == nil || done.Summary.Records != len(recs) {
		t.Fatalf("summary %+v, streamed %d records", done.Summary, len(recs))
	}
	full := oneShotRecords(t, busySpec())
	if len(recs) >= len(full) {
		t.Fatalf("cancel was not mid-run: %d records streamed of %d total", len(recs), len(full))
	}
	// A cancelled engine finalizes its in-flight flows at the stop instant
	// ("running"/"waiting" outcomes) after the normally-finalized ones.
	// Everything before that flush must match the one-shot run record for
	// record.
	settled := len(recs)
	for settled > 0 && (recs[settled-1].Outcome == "running" || recs[settled-1].Outcome == "waiting") {
		settled--
	}
	assertRecordsEqual(t, "canceled prefix", recs[:settled], full[:settled])
}

func TestRetireGuards(t *testing.T) {
	mgr := service.New(service.Config{ProgressEvery: simtime.Millisecond})
	a, subA := parkedSession(t, mgr)
	defer subA.Close()

	var nr *service.NotRetirableError
	if _, err := mgr.Retire(a.Session); !errors.As(err, &nr) {
		t.Fatalf("retire running: %v, want *NotRetirableError", err)
	}
	var nf *service.NotFoundError
	if _, err := mgr.Retire("s999"); !errors.As(err, &nf) {
		t.Fatalf("retire unknown: %v, want *NotFoundError", err)
	}
	mgr.Cancel(a.Session)
	drainSession(t, subA, a.Session)
	if _, err := mgr.Retire(a.Session); err != nil {
		t.Fatalf("retire canceled session: %v", err)
	}
}

func TestDrainCancelsEverything(t *testing.T) {
	mgr := service.New(service.Config{
		MaxSessions:   1,
		MaxWorkers:    1,
		ProgressEvery: simtime.Millisecond,
	})
	a, subA := parkedSession(t, mgr)
	defer subA.Close()
	subB := service.NewSubscriber(64)
	defer subB.Close()
	b, err := mgr.Submit(flowSpec(), "", false, subB)
	if err != nil {
		t.Fatal(err)
	}

	// Drain concurrently with consumers: the parked session unparks into
	// its watcher, which must see partial results and Done.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		drained <- mgr.Drain(ctx)
	}()

	_, doneB := drainSession(t, subB, b.Session)
	if doneB.State != wire.StateCanceled {
		t.Fatalf("queued B drained to %q", doneB.State)
	}
	recsA, doneA := drainSession(t, subA, a.Session)
	if doneA.State != wire.StateCanceled || doneA.Summary == nil || doneA.Summary.Records != len(recsA) {
		t.Fatalf("running A drained to %+v with %d records", doneA, len(recsA))
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	if _, err := mgr.Submit(flowSpec(), "", false, nil); !errors.Is(err, service.ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
}

func TestSubmitBadSpec(t *testing.T) {
	mgr := service.New(service.Config{})
	spec := flowSpec()
	spec.Workload.Demands[0].Dst = "nonexistent"
	var serr *wire.SpecError
	if _, err := mgr.Submit(spec, "", false, nil); !errors.As(err, &serr) {
		t.Fatalf("bad spec: %v, want *wire.SpecError", err)
	}
	bad := flowSpec()
	bad.Options.Fidelity = "quantum"
	var berr *horse.BuildError
	if _, err := mgr.Submit(bad, "", false, nil); !errors.As(err, &berr) {
		t.Fatalf("bad options: %v, want *horse.BuildError", err)
	}
	if got := mgr.List(); len(got) != 0 {
		t.Fatalf("rejected submissions left session state: %+v", got)
	}
}
