package packetsim

import (
	"reflect"
	"testing"

	"horse/internal/controller"
	"horse/internal/dataplane"
	"horse/internal/eventq"
	"horse/internal/simtime"
	"horse/internal/stats"
)

// TestStreamedMatchesRetained is the packetsim half of the bounded-memory
// equivalence contract: the incrementally-finalized sink sequence must be
// byte-identical to the retained Records() order on either event-queue
// backend, on both the golden scenario and the scripted failure scenario.
func TestStreamedMatchesRetained(t *testing.T) {
	proactive := func() controller.App { return &controller.ProactiveMAC{} }
	for _, q := range []eventq.Backend{eventq.BackendHeap, eventq.BackendWheel} {
		want := runGolden(q, streamOpts{})
		if len(want.records) == 0 {
			t.Fatal("golden scenario produced no records")
		}
		diffRuns(t, "golden-streamed/"+q.String(), want, runGolden(q, streamOpts{sink: true}))
		diffRuns(t, "failures-streamed/"+q.String(), runFailures(q, proactive, streamOpts{}),
			runFailures(q, proactive, streamOpts{sink: true}))
	}
}

// TestStreamedEvictsFlows pins the memory contract behind the sink: once
// a record is emitted incrementally, the engine drops its flow state —
// after Finish every completed flow's slot is nil and nothing reached the
// retained collector.
func TestStreamedEvictsFlows(t *testing.T) {
	topo, tr := goldenFatTree()
	sim := New(Config{Topology: topo, Miss: dataplane.MissDrop})
	dataplane.InstallMACRoutes(sim.Network())
	emitted := 0
	sim.SetRecordSink(func(stats.FlowRecord) { emitted++ })
	sim.Load(tr)
	col := mustRun(sim, simtime.Time(2*simtime.Second))
	if emitted != len(tr) {
		t.Fatalf("sink saw %d records for %d demands", emitted, len(tr))
	}
	if n := len(col.Flows()); n != 0 {
		t.Fatalf("sink mode retained %d records in the collector", n)
	}
	evicted := 0
	for _, f := range sim.flows {
		if f == nil {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatal("no flow state was evicted before Finish")
	}
}

// TestReaderMatchesLoad pins windowed trace ingestion: feeding the golden
// workload through SetTraceReader must reproduce the eager Load run
// byte-for-byte — records, samples, and counters — with and without the
// record sink.
func TestReaderMatchesLoad(t *testing.T) {
	want := runGolden(eventq.BackendHeap, streamOpts{})
	diffRuns(t, "reader", want, runGolden(eventq.BackendHeap, streamOpts{reader: true}))
	diffRuns(t, "reader+sink", want, runGolden(eventq.BackendHeap, streamOpts{reader: true, sink: true}))
	proactive := func() controller.App { return &controller.ProactiveMAC{} }
	diffRuns(t, "reader-failures", runFailures(eventq.BackendWheel, proactive, streamOpts{}),
		runFailures(eventq.BackendWheel, proactive, streamOpts{reader: true, sink: true}))
	if !reflect.DeepEqual(want.records, runGolden(eventq.BackendHeap, streamOpts{reader: true}).records) {
		t.Fatal("reader run is not repeatable")
	}
}
