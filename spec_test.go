package horse_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"horse"
	"horse/api/wire"
	"horse/internal/eventq"
	"horse/internal/simcore"
)

// specFixture is a small deterministic session: two explicit demands on
// a leaf-spine fabric plus a link flap. Used across the bridge tests and
// mirrored by the service parity tests.
func specFixture() *wire.SessionSpec {
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
		UntilNs: int64(10 * horse.Second),
	}
}

func TestNewFromSpecRuns(t *testing.T) {
	eng, until, err := horse.NewFromSpec(specFixture())
	if err != nil {
		t.Fatal(err)
	}
	if until != horse.Time(10*horse.Second) {
		t.Fatalf("until = %v, want 10s", until)
	}
	col, err := eng.Run(context.Background(), until)
	if err != nil {
		t.Fatal(err)
	}
	if col.FlowsCompleted != 2 {
		t.Fatalf("completed %d flows, want 2", col.FlowsCompleted)
	}
}

// TestNewFromSpecParity is the contract behind the daemon: a spec-built
// engine must produce records identical to the same simulation assembled
// by hand through the public builder.
func TestNewFromSpecParity(t *testing.T) {
	eng, until, err := horse.NewFromSpec(specFixture())
	if err != nil {
		t.Fatal(err)
	}
	specCol, err := eng.Run(context.Background(), until)
	if err != nil {
		t.Fatal(err)
	}

	// The same session, hand-assembled.
	spec := specFixture()
	topo, err := spec.Topology.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spec.Workload.Trace(topo)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := wire.Timeline(spec.Scenario, topo)
	if err != nil {
		t.Fatal(err)
	}
	hand, err := horse.New(topo,
		horse.WithController(horse.NewChain(&horse.ProactiveMAC{})),
		horse.WithMiss(horse.MissController),
	)
	if err != nil {
		t.Fatal(err)
	}
	hand.Load(tr)
	if err := tl.Apply(hand, until); err != nil {
		t.Fatal(err)
	}
	handCol, err := hand.Run(context.Background(), until)
	if err != nil {
		t.Fatal(err)
	}

	a, b := specCol.Flows(), handCol.Flows()
	if len(a) != len(b) {
		t.Fatalf("spec run: %d records, hand run: %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs:\n spec %+v\n hand %+v", i, a[i], b[i])
		}
	}
}

// TestNewFromSpecStreamed pins the daemon's bounded-memory ingestion
// path: a Poisson-only workload submitted with Stream (fed through
// WorkloadSpec.Reader → WithTraceReader) must produce records
// byte-identical to the same spec materialized eagerly, and a streamed
// spec with sorted explicit demands must match their eager load. A
// streamed session mixing demands and Poisson is also exercised — it
// must run clean even though its load-order numbering (global start
// order) legitimately differs from the demands-first eager order.
func TestNewFromSpecStreamed(t *testing.T) {
	poisson := func(stream bool) *wire.SessionSpec {
		return &wire.SessionSpec{
			Topology: wire.TopoSpec{Kind: wire.TopoLeafSpine, Leaves: 2, Spines: 2, Hosts: 2},
			Workload: wire.WorkloadSpec{
				Poisson: &wire.PoissonSpec{
					Seed: 7, Lambda: 300, HorizonNs: int64(200 * horse.Millisecond),
					Size: wire.SizeSpec{Kind: "fixed", Bits: 8e5}, CBRRateBps: 1e8,
				},
				Stream: stream,
			},
			Options: wire.OptionsSpec{
				Controller: []wire.AppSpec{{Kind: wire.AppProactiveMAC}},
				Miss:       "controller",
			},
			UntilNs: int64(10 * horse.Second),
		}
	}
	run := func(spec *wire.SessionSpec) []horse.FlowRecord {
		eng, until, err := horse.NewFromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		col, err := eng.Run(context.Background(), until)
		if err != nil {
			t.Fatal(err)
		}
		return col.Flows()
	}
	want := run(poisson(false))
	if len(want) == 0 {
		t.Fatal("poisson workload produced no records")
	}
	got := run(poisson(true))
	if len(want) != len(got) {
		t.Fatalf("streamed run: %d records, eager: %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("record %d differs:\n eager %+v\nstream %+v", i, want[i], got[i])
		}
	}

	// Sorted explicit demands: streamed == eager (specFixture's demands
	// are already in start order).
	eagerFix := run(specFixture())
	streamFix := specFixture()
	streamFix.Workload.Stream = true
	gotFix := run(streamFix)
	if len(eagerFix) != len(gotFix) {
		t.Fatalf("streamed fixture: %d records, eager: %d", len(gotFix), len(eagerFix))
	}
	for i := range eagerFix {
		if eagerFix[i] != gotFix[i] {
			t.Fatalf("fixture record %d differs:\n eager %+v\nstream %+v", i, eagerFix[i], gotFix[i])
		}
	}

	// Mixed demands + Poisson streams in global start order; the session
	// must run clean with every demand accounted.
	mixed := poisson(true)
	mixed.Workload.Demands = []wire.DemandSpec{
		{Src: "h0", Dst: "h3", SizeBits: 8e5, RateBps: 1e8},
	}
	if n := len(run(mixed)); n != len(want)+1 {
		t.Fatalf("mixed streamed run: %d records, want %d", n, len(want)+1)
	}
}

func TestNewFromSpecValidation(t *testing.T) {
	barely := func(mut func(*wire.SessionSpec)) *wire.SessionSpec {
		s := specFixture()
		mut(s)
		return s
	}
	cases := []struct {
		name    string
		spec    *wire.SessionSpec
		asBuild bool // expect *horse.BuildError (else *wire.SpecError)
	}{
		{"nil spec", nil, true},
		{"bad topology", barely(func(s *wire.SessionSpec) { s.Topology.Kind = "moebius" }), false},
		{"bad workload", barely(func(s *wire.SessionSpec) { s.Workload.Demands[0].Dst = "nowhere" }), false},
		{"bad scenario", barely(func(s *wire.SessionSpec) { s.Scenario[0].Switch = ""; s.Scenario[0].Kind = "melt" }), false},
		{"bad fidelity", barely(func(s *wire.SessionSpec) { s.Options.Fidelity = "quantum" }), true},
		{"bad app", barely(func(s *wire.SessionSpec) { s.Options.Controller = []wire.AppSpec{{Kind: "oracle"}} }), true},
		{"bad miss", barely(func(s *wire.SessionSpec) { s.Options.Miss = "explode" }), true},
		{"bad option combo", barely(func(s *wire.SessionSpec) {
			s.Options.Fidelity = wire.FidelityHybrid
			s.Options.Shards = 4
			pf := 0.5
			s.Options.PacketFraction = &pf
		}), true},
		{"bad balancing name", barely(func(s *wire.SessionSpec) {
			s.Options.Fidelity = wire.FidelityPacket
			s.Options.Shards = 4
			s.Options.ShardBalancing = "lopsided"
		}), true},
		{"balancing without shards", barely(func(s *wire.SessionSpec) {
			s.Options.Fidelity = wire.FidelityPacket
			s.Options.ShardBalancing = wire.BalanceSteal
		}), true},
		{"shard workers on flow", barely(func(s *wire.SessionSpec) {
			two := 2
			s.Options.Shards = 4
			s.Options.ShardWorkers = &two
		}), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := horse.NewFromSpec(c.spec)
			if err == nil {
				t.Fatal("spec accepted, want error")
			}
			var berr *horse.BuildError
			var serr *wire.SpecError
			switch {
			case c.asBuild && !errors.As(err, &berr):
				t.Fatalf("error %v is not a *BuildError", err)
			case !c.asBuild && !errors.As(err, &serr):
				t.Fatalf("error %v is not a *SpecError", err)
			}
		})
	}
}

func TestSpecOptionsDefaults(t *testing.T) {
	// A zero OptionsSpec must behave exactly like no options at all.
	spec := specFixture()
	spec.Scenario = nil
	spec.Options = wire.OptionsSpec{}
	eng, until, err := horse.NewFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	// No controller and default drop-on-miss: flows still traverse the
	// default-built engine (flow fidelity).
	if _, err := eng.Run(context.Background(), until); err != nil {
		t.Fatal(err)
	}
}

// TestSpecShardFieldsIgnored is the wire-compatibility contract for the
// removed sharded executor: the checked-in v1 fixture setting shards,
// shard_workers and shard_balancing still builds and runs, with records
// identical to the same spec without them.
func TestSpecShardFieldsIgnored(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("api", "wire", "testdata", "v1", "submit-shards.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f wire.Frame
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var p wire.SubmitParams
	if err := json.Unmarshal(f.Params, &p); err != nil {
		t.Fatal(err)
	}
	run := func(spec wire.SessionSpec) []horse.FlowRecord {
		t.Helper()
		eng, until, err := horse.NewFromSpec(&spec)
		if err != nil {
			t.Fatal(err)
		}
		col, err := eng.Run(context.Background(), until)
		if err != nil {
			t.Fatal(err)
		}
		return col.Flows()
	}
	got := run(p.Spec)
	plain := p.Spec
	plain.Options.Shards, plain.Options.ShardWorkers, plain.Options.ShardBalancing = 0, nil, ""
	want := run(plain)
	completed := 0
	for _, r := range want {
		if r.Completed {
			completed++
		}
	}
	if completed == 0 {
		t.Fatal("fixture completed no flows")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shard fields changed the records: %d vs %d", len(got), len(want))
	}
}

// TestSpecEventQueueAliases is the wire-compatibility contract for the
// removed backends: the checked-in v1 fixture naming "calendar" (with the
// older calendar_queue switch set), and "auto", still build and run, on
// the default queue, with records identical to a spec that names none.
func TestSpecEventQueueAliases(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("api", "wire", "testdata", "v1", "submit-event-queue-calendar.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f wire.Frame
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var p wire.SubmitParams
	if err := json.Unmarshal(f.Params, &p); err != nil {
		t.Fatal(err)
	}
	run := func(queue string, calendar bool) []horse.FlowRecord {
		t.Helper()
		spec := p.Spec
		spec.Options.EventQueue, spec.Options.CalendarQueue = queue, calendar
		eng, until, err := horse.NewFromSpec(&spec)
		if err != nil {
			t.Fatalf("event_queue %q: %v", queue, err)
		}
		if !onWheel(eng) {
			t.Fatalf("event_queue %q: engine is not on the wheel", queue)
		}
		col, err := eng.Run(context.Background(), until)
		if err != nil {
			t.Fatal(err)
		}
		return col.Flows()
	}
	want := run("", false)
	if len(want) == 0 {
		t.Fatal("fixture produced no records")
	}
	for _, alias := range []struct {
		queue    string
		calendar bool
	}{
		{p.Spec.Options.EventQueue, p.Spec.Options.CalendarQueue}, // as checked in
		{"auto", false},
		{"", true},
	} {
		got := run(alias.queue, alias.calendar)
		if len(got) != len(want) {
			t.Fatalf("event_queue %q: %d records, default %d", alias.queue, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event_queue %q: record %d differs:\n default %+v\n   alias %+v", alias.queue, i, want[i], got[i])
			}
		}
	}
}

// onWheel reports whether the engine's kernel runs on the timing wheel.
func onWheel(eng horse.Engine) bool {
	var k *simcore.Kernel
	switch e := eng.(type) {
	case *horse.Simulator:
		k = e.Kernel()
	case *horse.PacketSimulator:
		k = e.Kernel()
	case *horse.HybridSimulator:
		k = e.Kernel()
	}
	_, ok := k.Queue().(*eventq.Wheel)
	return ok
}

// TestDefaultQueueIsWheel pins the default at every layer: an engine
// built with no queue option (each fidelity), a spec with event_queue "",
// and a zero simcore.Config all get the wheel; the heap is built only
// when named.
func TestDefaultQueueIsWheel(t *testing.T) {
	for _, fid := range []horse.Fidelity{horse.Flow, horse.Packet, horse.Hybrid} {
		eng, err := horse.New(horse.Star(4, horse.Gig), horse.WithFidelity(fid))
		if err != nil {
			t.Fatal(err)
		}
		if !onWheel(eng) {
			t.Errorf("horse.New(%v) with no queue option is not on the wheel", fid)
		}
	}
	eng, _, err := horse.NewFromSpec(specFixture())
	if err != nil {
		t.Fatal(err)
	}
	if !onWheel(eng) {
		t.Error(`NewFromSpec with event_queue "" is not on the wheel`)
	}
	if _, ok := simcore.New(simcore.Config{}).Queue().(*eventq.Wheel); !ok {
		t.Error("simcore.New(Config{}) is not on the wheel")
	}
	if horse.EventQueue(0) != horse.EventQueueWheel || eventq.Backend(0) != eventq.BackendWheel {
		t.Error("the zero EventQueue / Backend is not the wheel")
	}
	heap, err := horse.New(horse.Star(4, horse.Gig), horse.WithEventQueue(horse.EventQueueHeap))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := heap.(*horse.Simulator).Kernel().Queue().(*eventq.Heap); !ok {
		t.Error("WithEventQueue(EventQueueHeap) did not build the heap oracle")
	}
}
