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

// proactive is the failure scenario's routing app.
func proactive() controller.App { return &controller.ProactiveMAC{} }

// TestStreamedMatchesRetained is the packetsim half of the bounded-memory
// equivalence contract: the incrementally-finalized sink sequence must be
// byte-identical to the retained Records() order, on both the golden
// scenario and the scripted failure scenario.
func TestStreamedMatchesRetained(t *testing.T) {
	want := runGolden(streamOpts{})
	if len(want.records) == 0 {
		t.Fatal("golden scenario produced no records")
	}
	diffRuns(t, "golden-streamed", want, runGolden(streamOpts{sink: true}))
	diffRuns(t, "failures-streamed", runFailures(proactive, streamOpts{}),
		runFailures(proactive, streamOpts{sink: true}))
}

// TestQueueImplementationsAgree holds the packet engine to the heap
// oracle: on a heap kernel the golden and the disturbed scenario
// reproduce the default runs' records, samples and counters, EventsRun
// included.
func TestQueueImplementationsAgree(t *testing.T) {
	heap := streamOpts{queue: eventq.BackendHeap}
	diffRuns(t, "golden", runGolden(streamOpts{}), runGolden(heap))
	diffRuns(t, "failures", runFailures(proactive, streamOpts{}), runFailures(proactive, heap))
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
// workload through SetTraceReader must reproduce the Load run
// byte-for-byte — records, samples, and counters, EventsRun included
// (a streamed demand's cursor event is its first send, as a Loaded one's
// is) — with and without the record sink.
func TestReaderMatchesLoad(t *testing.T) {
	want := runGolden(streamOpts{})
	diffRuns(t, "reader", want, runGolden(streamOpts{reader: true}))
	diffRuns(t, "reader+sink", want, runGolden(streamOpts{reader: true, sink: true}))
	diffRuns(t, "reader-failures", runFailures(proactive, streamOpts{}),
		runFailures(proactive, streamOpts{reader: true, sink: true}))
	if !reflect.DeepEqual(want.records, runGolden(streamOpts{reader: true}).records) {
		t.Fatal("reader run is not repeatable")
	}
}
